#include "eval/stack.hpp"

#include <utility>

#include "eval/frontier/scenario_sampler.hpp"
#include "slam/pure_localization.hpp"

namespace srl {

namespace {

std::optional<RangeMethodKind> range_from_string(const std::string& name) {
  if (name == "bresenham") return RangeMethodKind::kBresenham;
  if (name == "ray_marching") return RangeMethodKind::kRayMarching;
  if (name == "cddt") return RangeMethodKind::kCddt;
  if (name == "lut") return RangeMethodKind::kLut;
  return std::nullopt;
}

/// Remove `suffix` from the end of `kind`; false (and `kind` untouched)
/// when it is not there.
bool strip_suffix(std::string& kind, const std::string& suffix) {
  if (kind.size() <= suffix.size() ||
      kind.compare(kind.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  kind.resize(kind.size() - suffix.size());
  return true;
}

double hist_quantile(const telemetry::MetricsRegistry& metrics,
                     const char* name, double q) {
  const telemetry::Histogram* h = metrics.find_histogram(name);
  return h != nullptr ? h->percentile(q) : 0.0;
}

std::uint64_t counter_value(const telemetry::MetricsRegistry& metrics,
                            const char* name) {
  const telemetry::Counter* c = metrics.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// Fault stage of the recipe. A frontier recipe resamples the scenario: its
/// envelope (phase/ramp/window) was sampled, not canonical, and it adds a
/// stage only above severity 0. Otherwise the canonical factory stage is
/// added for every fault except the stage-free "kidnap" and a clean
/// "none"@0. False when the fault name is unknown.
bool add_fault_stage(const PostmortemStackSpec& spec,
                     fault::FaultPipeline& pipeline) {
  if (const auto scenario =
          frontier::ScenarioSampler::sample_recipe(spec.track)) {
    if (scenario->severity <= 0.0) return true;
    std::unique_ptr<fault::Injector> injector =
        fault::make_injector(scenario->axis, scenario->profile);
    if (injector == nullptr) return false;
    pipeline.add(std::move(injector));
    return true;
  }
  const bool clean = spec.fault == "none" && spec.severity == 0.0;
  if (clean || spec.fault == "kidnap") return true;
  return pipeline.add(spec.fault, spec.severity);
}

}  // namespace

json::Value stack_spec_to_json(const PostmortemStackSpec& spec) {
  json::Value v = json::Value::object();
  v.set("track", json::Value::string(spec.track));
  v.set("localizer", json::Value::string(spec.localizer));
  v.set("n_particles",
        json::Value::number(static_cast<double>(spec.n_particles)));
  v.set("threads", json::Value::number(static_cast<double>(spec.threads)));
  v.set("range", json::Value::string(spec.range));
  v.set("beams", json::Value::number(static_cast<double>(spec.beams)));
  v.set("pf_seed", json::Value::number(static_cast<double>(spec.pf_seed)));
  v.set("fault", json::Value::string(spec.fault));
  v.set("severity", json::Value::number(spec.severity));
  v.set("fault_seed",
        json::Value::number(static_cast<double>(spec.fault_seed)));
  // Governor fields only when a governor was in the stack: pre-governor
  // readers (and byte-for-byte artifact diffs) see unchanged documents.
  if (!spec.governor.empty()) {
    v.set("governor", json::Value::string(spec.governor));
    v.set("budget_ms", json::Value::number(spec.budget_ms));
  }
  return v;
}

bool stack_spec_from_json(const json::Value& v, PostmortemStackSpec& out,
                          std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!v.is_object()) return fail("not an object");
  PostmortemStackSpec spec;
  spec.localizer = str_field(v, "localizer");
  if (spec.localizer.empty()) return fail("localizer: missing");
  std::string why;
  if (!json::read_uint(v, "n_particles", spec.n_particles, why) ||
      !json::read_uint(v, "threads", spec.threads, why) ||
      !json::read_uint(v, "beams", spec.beams, why) ||
      !json::read_uint(v, "pf_seed", spec.pf_seed, why) ||
      !json::read_uint(v, "fault_seed", spec.fault_seed, why)) {
    return fail(why);
  }
  const std::string track = str_field(v, "track");
  if (!track.empty()) spec.track = track;
  const std::string range = str_field(v, "range");
  if (!range.empty()) spec.range = range;
  const std::string fault = str_field(v, "fault");
  if (!fault.empty()) spec.fault = fault;
  spec.severity = num_field(v, "severity", spec.severity);
  spec.governor = str_field(v, "governor");
  spec.budget_ms = num_field(v, "budget_ms", spec.budget_ms);
  out = std::move(spec);
  return true;
}

std::optional<StackKind> parse_stack_kind(const std::string& kind) {
  StackKind parsed;
  std::string rest = kind;
  if (strip_suffix(rest, "+Governor")) {
    parsed.governor = "govern";
  } else if (strip_suffix(rest, "+Budget")) {
    parsed.governor = "enforce";
  }
  parsed.recovery = strip_suffix(rest, "+Recovery");
  if (rest != "SynPF" && rest != "CartoLite") return std::nullopt;
  parsed.base = rest;
  return parsed;
}

LocalizerStack::LocalizerStack(const PostmortemStackSpec& spec,
                               const LidarConfig& lidar)
    : spec_{spec}, pipeline_{spec.fault_seed, lidar} {}

std::unique_ptr<LocalizerStack> LocalizerStack::build(
    const PostmortemStackSpec& spec,
    const std::shared_ptr<const OccupancyGrid>& map, const LidarConfig& lidar,
    std::string& error) {
  const std::optional<StackKind> kind = parse_stack_kind(spec.localizer);
  if (!kind.has_value()) {
    error = "unknown localizer kind: " + spec.localizer;
    return nullptr;
  }
  if (spec.n_particles < 1) {
    error = "n_particles must be at least 1";
    return nullptr;
  }
  if (spec.n_particles > kMaxStackParticles) {
    error = "n_particles must be at most " +
            std::to_string(kMaxStackParticles);
    return nullptr;
  }
  if (spec.beams < 1) {
    error = "beams must be at least 1";
    return nullptr;
  }
  if (spec.beams > lidar.n_beams) {
    error = "beams must be at most the LiDAR's " +
            std::to_string(lidar.n_beams);
    return nullptr;
  }
  const std::optional<RangeMethodKind> range = range_from_string(spec.range);
  if (!range.has_value()) {
    error = "unknown range backend: " + spec.range;
    return nullptr;
  }
  if (!spec.governor.empty() && spec.governor != "govern" &&
      spec.governor != "enforce") {
    error = "unknown governor mode: " + spec.governor;
    return nullptr;
  }
  if (!kind->governor.empty() && kind->governor != spec.governor) {
    error = "localizer kind " + spec.localizer +
            " contradicts governor mode '" + spec.governor + "'";
    return nullptr;
  }
  std::unique_ptr<LocalizerStack> stack{new LocalizerStack{spec, lidar}};
  if (!add_fault_stage(spec, stack->pipeline_)) {
    error = "unknown fault: " + spec.fault;
    return nullptr;
  }

  if (kind->base == "SynPF") {
    SynPfConfig cfg;
    cfg.range = *range;
    cfg.beams = spec.beams;
    cfg.seed = spec.pf_seed;
    cfg.filter.n_particles = spec.n_particles;
    cfg.filter.n_threads = spec.threads;
    auto synpf = std::make_unique<SynPf>(cfg, map, lidar);
    stack->synpf_ = synpf.get();
    stack->base_ = std::move(synpf);
  } else {
    stack->base_ = std::make_unique<CartoLocalizer>(PureLocalizationOptions{},
                                                    map, lidar);
  }
  ParticleFilter* pf =
      stack->synpf_ != nullptr ? &stack->synpf_->filter() : nullptr;
  stack->faulted_ = std::make_unique<fault::FaultedLocalizer>(
      *stack->base_, stack->pipeline_);
  stack->top_ = stack->faulted_.get();

  // Supervise *outside* the faults, so sensor corruption reaches the filter
  // upstream of divergence detection.
  if (kind->recovery) {
    stack->supervised_ = std::make_unique<recovery::SupervisedLocalizer>(
        *stack->top_, recovery::SupervisedLocalizerConfig{}, map, lidar);
    if (pf != nullptr) stack->supervised_->bind_filter(pf);
    stack->top_ = stack->supervised_.get();
  }

  // Governor outermost (DESIGN.md §16): it reads the supervisor's health
  // and can veto the whole update before any inner layer runs.
  if (!spec.governor.empty()) {
    governor::GovernorConfig gcfg;
    gcfg.budget_ms = spec.budget_ms;
    gcfg.shed = spec.governor == "govern";
    gcfg.adaptive = gcfg.shed;  // the enforcer keeps the workload fixed
    // Knobless localizers (no bound filter) are accounted at the pinned
    // nominal cost; ignored once a filter is bound.
    gcfg.nominal_cost_units = governor::kCartoNominalCostUnits;
    stack->governed_ =
        std::make_unique<governor::GovernedLocalizer>(*stack->top_, gcfg);
    if (pf != nullptr) stack->governed_->bind_filter(pf);
    stack->governed_->bind_pressure(&stack->pipeline_);
    if (stack->supervised_ != nullptr) {
      stack->governed_->bind_supervisor(stack->supervised_.get());
    }
    stack->top_ = stack->governed_.get();
  }
  return stack;
}

std::unique_ptr<telemetry::FlightRecorder> LocalizerStack::make_recorder(
    const CellBoxes& boxes, telemetry::EventLog* events) const {
  telemetry::FlightRecorderConfig rcfg;
  rcfg.dump_dir = boxes.dir;
  rcfg.label = boxes.label;
  auto recorder = std::make_unique<telemetry::FlightRecorder>(rcfg, events);

  json::Value provenance = json::Value::object();
  provenance.set("stack", stack_spec_to_json(spec_));
  for (const auto& [key, value] : boxes.provenance.members()) {
    provenance.set(key, value);
  }
  recorder->set_provenance(std::move(provenance));

  SynPf* synpf = synpf_;
  const recovery::SupervisedLocalizer* sup = supervised_.get();
  const fault::FaultedLocalizer* flt = faulted_.get();
  const std::size_t top_k = rcfg.top_k;
  recorder->set_tick_probe([synpf, sup, flt,
                            top_k](telemetry::TickSnapshot& snap) {
    if (synpf != nullptr) {
      ParticleFilter& pf = synpf->filter();
      // Health signals come from the filter's cached per-update block — the
      // probe must not add O(n) passes of its own.
      snap.ess_fraction = pf.health().ess_fraction;
      snap.weight_entropy = pf.health().weight_entropy;
      snap.digest.clear();
      for (const Particle& p : pf.top_particles(top_k)) {
        snap.digest.push_back(p.pose.x);
        snap.digest.push_back(p.pose.y);
        snap.digest.push_back(p.pose.theta);
        snap.digest.push_back(p.weight);
      }
    }
    if (sup != nullptr) {
      snap.health_state = static_cast<int>(sup->state());
      snap.latch_mask = sup->detector().latch_mask();
      snap.alignment = sup->last_alignment();
      snap.injection_prob = sup->policy().injection_fraction();
    }
    snap.fault_level = flt->last_fault_level();
  });
  return recorder;
}

CellOutcome run_cell(const CellRecipe& recipe, const Track& track,
                     const std::shared_ptr<const OccupancyGrid>& map,
                     telemetry::Sink sink, const CellBoxes& boxes) {
  CellOutcome out;
  const std::unique_ptr<LocalizerStack> stack = LocalizerStack::build(
      recipe.stack, map, recipe.experiment.lidar, out.error);
  if (stack == nullptr) return out;

  telemetry::EventLog own_events;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  if (!boxes.dir.empty()) {
    if (sink.events == nullptr) sink.events = &own_events;
    recorder = stack->make_recorder(boxes, sink.events);
    sink.recorder = recorder.get();
  }
  ExperimentRunner runner{track, recipe.experiment};
  out.result = runner.run(stack->top(), nullptr, sink);
  if (recorder != nullptr) out.blackboxes = recorder->dump_paths();

  if (const telemetry::EventLog* events = sink.events) {
    out.events_total = events->total();
    out.events_warn = events->count(telemetry::EventSeverity::kWarn);
    out.events_error = events->count(telemetry::EventSeverity::kError);
    out.events_critical = events->critical_count();
    out.events_dropped = events->dropped();
  }
  if (sink.metrics != nullptr) {
    const telemetry::MetricsRegistry& m = *sink.metrics;
    out.reinjections = counter_value(m, "recovery.injections");
    out.global_relocs = counter_value(m, "recovery.global_relocs");
    out.recovery_transitions = counter_value(m, "recovery.to_suspect") +
                               counter_value(m, "recovery.to_diverged") +
                               counter_value(m, "recovery.to_recovering") +
                               counter_value(m, "recovery.to_healthy");
    out.ess_fraction_p50 = hist_quantile(m, "pf.ess_fraction_dist", 0.50);
    const telemetry::Histogram* ess = m.find_histogram("pf.ess_fraction_dist");
    out.ess_fraction_min = ess != nullptr ? ess->min() : 0.0;
    out.resamples = counter_value(m, "pf.resamples");
    out.pose_jump_alarms = counter_value(m, "pf.pose_jump_alarms");
    const char* stage = stack->synpf() != nullptr ? "pf.raycast_ms"
                                                  : "carto.local_match_ms";
    out.stage_p50_ms = hist_quantile(m, stage, 0.50);
    out.stage_p99_ms = hist_quantile(m, stage, 0.99);
  }
  if (const governor::GovernedLocalizer* governed = stack->governor()) {
    out.governed = true;
    out.governor_shed = governed->config().shed;
    out.budget_ms = governed->config().budget_ms;
    out.governor_updates = governed->updates();
    out.deadline_misses = governed->deadline_misses();
    out.shed_beam_updates = governed->shed_beam_updates();
    out.shed_particle_updates = governed->shed_particle_updates();
    out.skipped_resamples = governed->skipped_resamples();
    out.governor_resizes = governed->resizes();
    out.governor_mean_particles = governed->mean_particles();
    out.governor_min_particles = governed->min_particles_seen();
    out.governor_mean_beams = governed->mean_beams();
    out.governor_cost_p50 = governed->cost_units_p50();
    out.governor_cost_p99 = governed->cost_units_p99();
  }
  return out;
}

}  // namespace srl
