#include "governor/governor.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace srl::governor {

// ---------------------------------------------------------------------------
// ComputeGovernor — the pure decision core.
// ---------------------------------------------------------------------------

ComputeGovernor::ComputeGovernor(GovernorConfig config) : config_{config} {
  SYNPF_EXPECTS_MSG(config_.max_beam_stride >= 1,
                    "governor beam-stride limit must be >= 1");
  SYNPF_EXPECTS_MSG(config_.min_particles >= 1,
                    "governor particle floor must be >= 1");
}

int ComputeGovernor::active_beams(int beams, int stride) {
  if (stride <= 1) return beams;
  // Matches ParticleFilter::set_beam_stride: indices 0, s, 2s, ...
  return (beams + stride - 1) / stride;
}

double ComputeGovernor::cost_units(int particles, int beams, int stride) {
  return static_cast<double>(particles) *
         static_cast<double>(active_beams(beams, stride));
}

double ComputeGovernor::effective_budget_units(double pressure) const {
  if (config_.budget_ms <= 0.0) return -1.0;  // unlimited
  const double p = std::clamp(pressure, 0.0, 1.0);
  return config_.budget_ms * kDefaultUnitsPerMs * (1.0 - p);
}

GovernorDecision ComputeGovernor::decide(int particles, int beams,
                                         double pressure, bool grow) const {
  GovernorDecision d;
  d.particle_target = particles;
  d.budget_units = effective_budget_units(pressure);

  // Pillar 1: SUSPECT-driven growth back to the ceiling happens *before*
  // budgeting, so a tight budget can still veto it via the clamp below —
  // degradation always wins over ambition.
  if (grow && config_.adaptive && config_.max_particles > particles) {
    d.particle_target = config_.max_particles;
  }

  d.cost_units = cost_units(d.particle_target, beams, 1);
  if (d.budget_units < 0.0) return d;  // no budget declared: sizing only

  if (!config_.shed) {
    // Enforcer: fixed workload, the only lever is the deadline itself.
    if (d.cost_units > d.budget_units) {
      d.drop_update = true;
      d.shed_stage = 4;
    }
    return d;
  }

  // Stage 1: beam decimation. Raise the stride one notch at a time so the
  // engaged stage is the *least* aggressive one that fits.
  while (d.cost_units > d.budget_units &&
         d.beam_stride < config_.max_beam_stride) {
    ++d.beam_stride;
    d.cost_units = cost_units(d.particle_target, beams, d.beam_stride);
  }
  if (d.beam_stride > 1) d.shed_stage = 1;

  // Stage 2: clamp the cloud to what the budget buys at the decimated beam
  // count, floored so the filter never starves.
  if (d.cost_units > d.budget_units) {
    const int shed_beams = active_beams(beams, d.beam_stride);
    int affordable = config_.min_particles;
    if (shed_beams > 0) {
      affordable = static_cast<int>(d.budget_units /
                                    static_cast<double>(shed_beams));
    }
    const int clamped = std::max(config_.min_particles, affordable);
    if (clamped < d.particle_target) {
      d.particle_target = clamped;
      d.shed_stage = 2;
    }
    d.cost_units = cost_units(d.particle_target, beams, d.beam_stride);
  }

  // Stage 3: still over budget at the floor — skip the ESS resample (the
  // scoring pass dominates cost, but the resample's copy/normalize pass is
  // the last shavable work that doesn't touch the estimate's inputs).
  if (d.cost_units > d.budget_units) {
    d.skip_resample = true;
    d.shed_stage = 3;
  }
  return d;
}

GovernorDecision ComputeGovernor::decide_fixed(double cost,
                                               double pressure) const {
  GovernorDecision d;
  d.cost_units = std::max(0.0, cost);
  d.budget_units = effective_budget_units(pressure);
  if (d.budget_units >= 0.0 && d.cost_units > 0.0 &&
      d.cost_units > d.budget_units) {
    d.drop_update = true;
    d.shed_stage = 4;
  }
  return d;
}

// ---------------------------------------------------------------------------
// GovernedLocalizer — the decorator.
// ---------------------------------------------------------------------------

GovernedLocalizer::GovernedLocalizer(Localizer& inner, GovernorConfig config)
    : LocalizerDecorator{inner}, config_{config}, governor_{config} {}

void GovernedLocalizer::bind_filter(ParticleFilter* pf) {
  pf_ = pf;
  if (pf_ == nullptr) return;
  if (config_.max_particles <= 0) {
    config_.max_particles = pf_->current_particles();
    governor_ = ComputeGovernor{config_};
  }
  // Pillar 1: the cloud may now shrink on its own where the posterior is
  // tight; the governor grows it back under SUSPECT. Shedding (enforcer
  // mode) must leave the filter exactly as configured.
  if (config_.adaptive && config_.shed) pf_->set_kld_adaptive(true);
}

void GovernedLocalizer::bind_pressure(const fault::FaultPipeline* pipeline) {
  pipeline_ = pipeline;
}

void GovernedLocalizer::bind_supervisor(
    const recovery::SupervisedLocalizer* supervisor) {
  supervisor_ = supervisor;
}

double GovernedLocalizer::poll_pressure(double stream_t) const {
  if (pipeline_ == nullptr) return 0.0;
  double strongest = 0.0;
  for (std::size_t i = 0; i < pipeline_->size(); ++i) {
    const fault::Injector& stage = pipeline_->stage(i);
    if (stage.name() != "compute_pressure") continue;
    strongest = std::max(strongest, stage.strength_at(stream_t));
  }
  return std::clamp(strongest, 0.0, 1.0);
}

Pose2 GovernedLocalizer::on_scan(const LaserScan& scan) {
  // Strict no-op configuration: forward untouched. Nothing below runs, no
  // substream is drawn, no knob is written — bitwise identical to the bare
  // inner localizer.
  if (!config_.adaptive && config_.budget_ms <= 0.0) {
    return inner_.on_scan(scan);
  }

  if (!seen_scan_) {
    first_scan_t_ = scan.t;
    seen_scan_ = true;
  }
  const double stream_t = scan.t - first_scan_t_;
  const std::uint64_t ordinal = updates_;
  ++updates_;

  const double pressure = poll_pressure(stream_t);
  last_pressure_ = pressure;

  const bool grow =
      supervisor_ != nullptr &&
      supervisor_->state() != recovery::HealthState::kHealthy;

  GovernorDecision d;
  if (pf_ != nullptr && config_.shed) {
    d = governor_.decide(pf_->current_particles(), pf_->total_beams(),
                         pressure, grow);
  } else if (pf_ != nullptr) {
    // Enforcer over a particle stack: cost of the *fixed* configured load.
    d = governor_.decide_fixed(
        ComputeGovernor::cost_units(pf_->current_particles(),
                                    pf_->total_beams(), 1),
        pressure);
  } else {
    d = governor_.decide_fixed(config_.nominal_cost_units, pressure);
  }
  journal(scan.t, d);  // edge-detects against last_stage_, so update after
  last_stage_ = d.shed_stage;
  publish(d);

  if (d.drop_update) {
    // Deadline miss: the update is simply not run. The inner stack keeps
    // its odometry-propagated state and coasts; the estimate is whatever
    // the last completed update left behind.
    ++deadline_misses_;
    if (c_misses_ != nullptr) c_misses_->add();
    return inner_.pose();
  }

  apply(d, ordinal);

  if (pf_ != nullptr) {
    particles_sum_ += static_cast<std::uint64_t>(pf_->current_particles());
    beams_sum_ += static_cast<std::uint64_t>(pf_->active_beams());
    if (min_particles_seen_ == 0 ||
        pf_->current_particles() < min_particles_seen_) {
      min_particles_seen_ = pf_->current_particles();
    }
  }
  costs_.push_back(d.cost_units);
  if (c_updates_ != nullptr) c_updates_->add();

  return inner_.on_scan(scan);
}

void GovernedLocalizer::apply(const GovernorDecision& d,
                              std::uint64_t ordinal) {
  if (pf_ == nullptr || !config_.shed) return;
  if (d.particle_target != pf_->current_particles()) {
    pf_->govern_resize(d.particle_target, ordinal);
    ++resizes_;
    if (c_resizes_ != nullptr) c_resizes_->add();
  }
  pf_->set_beam_stride(d.beam_stride);
  // Stage 3 sheds *most* resamples, never all of them: under a sustained
  // full-pressure envelope a permanently suppressed resample degenerates
  // the weights (ESS -> 1 particle) and kills the filter the budget was
  // trying to save. Every kResampleKeepPeriod-th update — keyed by the
  // governor's own ordinal, so the schedule is a pure function of the
  // update index — still resamples.
  const bool suppress =
      d.skip_resample && (ordinal % kResampleKeepPeriod) != 0;
  pf_->set_resample_suppressed(suppress);
  if (d.beam_stride > 1) {
    ++shed_beam_updates_;
    if (c_shed_beams_ != nullptr) c_shed_beams_->add();
  }
  if (d.shed_stage >= 2) {
    ++shed_particle_updates_;
    if (c_shed_particles_ != nullptr) c_shed_particles_->add();
  }
  if (suppress) {
    ++skipped_resamples_;
    if (c_skipped_resamples_ != nullptr) c_skipped_resamples_->add();
  }
}

void GovernedLocalizer::journal(double scan_t, const GovernorDecision& d) {
  if (events_ == nullptr) return;
  using telemetry::EventCategory;
  using telemetry::EventSeverity;

  // Deadline-miss runs journal as edges (like fault envelopes): one kError
  // at entry, one kInfo at recovery — not one event per missed scan.
  if (d.drop_update && !missing_) {
    missing_ = true;
    auto data = json::Value::object();
    data.set("cost_units", json::Value::number(d.cost_units));
    data.set("budget_units", json::Value::number(d.budget_units));
    events_->emit(scan_t, EventSeverity::kError, EventCategory::kFilter,
                  "governor.deadline_miss", std::move(data));
  } else if (!d.drop_update && missing_) {
    missing_ = false;
    events_->emit(scan_t, EventSeverity::kInfo, EventCategory::kFilter,
                  "governor.deadline_recovered");
  }

  // Ladder transitions journal as edges too: entering a different stage
  // than the previous update is a "shed", returning to stage 0 a
  // "recovered".
  if (d.shed_stage > 0 && d.shed_stage != last_stage_) {
    auto data = json::Value::object();
    data.set("stage", json::Value::number(static_cast<double>(d.shed_stage)));
    data.set("beam_stride",
             json::Value::number(static_cast<double>(d.beam_stride)));
    data.set("particle_target",
             json::Value::number(static_cast<double>(d.particle_target)));
    data.set("skip_resample", json::Value::boolean(d.skip_resample));
    data.set("cost_units", json::Value::number(d.cost_units));
    data.set("budget_units", json::Value::number(d.budget_units));
    events_->emit(scan_t, EventSeverity::kWarn, EventCategory::kFilter,
                  "governor.shed", std::move(data));
  } else if (d.shed_stage == 0 && last_stage_ > 0) {
    events_->emit(scan_t, EventSeverity::kInfo, EventCategory::kFilter,
                  "governor.recovered");
  }
}

void GovernedLocalizer::publish(const GovernorDecision& d) {
  if (g_pressure_ != nullptr) g_pressure_->set(last_pressure_);
  if (g_particles_ != nullptr) {
    g_particles_->set(static_cast<double>(d.particle_target));
  }
  if (g_beams_ != nullptr && pf_ != nullptr) {
    g_beams_->set(static_cast<double>(
        ComputeGovernor::active_beams(pf_->total_beams(), d.beam_stride)));
  }
  if (g_stage_ != nullptr) g_stage_->set(static_cast<double>(d.shed_stage));
  if (g_cost_ != nullptr) g_cost_->set(d.cost_units);
  if (g_budget_ != nullptr) g_budget_->set(d.budget_units);
}

void GovernedLocalizer::set_telemetry(const telemetry::Sink& sink) {
  events_ = sink.events;
  if (sink.metrics != nullptr) {
    g_pressure_ = &sink.metrics->gauge("governor.pressure");
    g_particles_ = &sink.metrics->gauge("governor.particles");
    g_beams_ = &sink.metrics->gauge("governor.beams");
    g_stage_ = &sink.metrics->gauge("governor.stage");
    g_cost_ = &sink.metrics->gauge("governor.cost_units");
    g_budget_ = &sink.metrics->gauge("governor.budget_units");
    c_updates_ = &sink.metrics->counter("governor.updates");
    c_misses_ = &sink.metrics->counter("governor.deadline_misses");
    c_resizes_ = &sink.metrics->counter("governor.resizes");
    c_shed_beams_ = &sink.metrics->counter("governor.shed_beam_updates");
    c_shed_particles_ =
        &sink.metrics->counter("governor.shed_particle_updates");
    c_skipped_resamples_ =
        &sink.metrics->counter("governor.skipped_resamples");
  }
  inner_.set_telemetry(sink);
}

double GovernedLocalizer::mean_particles() const {
  const std::uint64_t executed = updates_ - deadline_misses_;
  if (executed == 0) return 0.0;
  return static_cast<double>(particles_sum_) / static_cast<double>(executed);
}

double GovernedLocalizer::mean_beams() const {
  const std::uint64_t executed = updates_ - deadline_misses_;
  if (executed == 0) return 0.0;
  return static_cast<double>(beams_sum_) / static_cast<double>(executed);
}

double GovernedLocalizer::cost_percentile(double q) const {
  if (costs_.empty()) return 0.0;
  std::vector<double> sorted = costs_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(rank);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace srl::governor
