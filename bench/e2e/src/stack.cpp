#include "stack.hpp"

#include <stdexcept>

#include "slam/pure_localization.hpp"
#include "util.hpp"

namespace e2e {

using namespace srl;

Pose2 Shim::on_scan(const LaserScan& scan) {
  const double start = scan_latency_s_ != nullptr ? now_s() : 0.0;
  Pose2 est;
  {
    Scope span{tracer_, on_scan_};
    est = inner_.on_scan(scan);
  }
  if (scan_latency_s_ != nullptr) scan_latency_s_->push_back(now_s() - start);
  return est;
}

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() > suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string strip(const std::string& s, const std::string& suffix) {
  return ends_with(s, suffix) ? s.substr(0, s.size() - suffix.size()) : s;
}

}  // namespace

Stack::Stack(const StackSpec& spec, std::shared_ptr<const OccupancyGrid> map,
             const LidarConfig& lidar, Tracer* tracer)
    : pipeline_{spec.fault_seed, lidar} {
  // Same suffix grammar as the scenario matrix: the governor suffix is
  // outermost and named last.
  std::string gov_mode;
  if (ends_with(spec.kind, "+Governor")) gov_mode = "govern";
  if (ends_with(spec.kind, "+Budget")) gov_mode = "enforce";
  if (spec.enforce_budget) gov_mode = "enforce";
  const std::string ungoverned =
      strip(strip(spec.kind, "+Governor"), "+Budget");
  const bool recovery = ends_with(ungoverned, "+Recovery");
  const std::string base = strip(ungoverned, "+Recovery");

  if (base == "SynPF") {
    Scope span{tracer, Span::kSetupSynpfCtor};
    SynPfConfig cfg;
    cfg.range = RangeMethodKind::kCddt;
    cfg.filter.n_particles = spec.n_particles;
    cfg.filter.n_threads = spec.filter_threads;
    auto synpf = std::make_unique<SynPf>(cfg, map, lidar);
    synpf_ = synpf.get();
    base_ = std::move(synpf);
    base_shim_ = std::make_unique<Shim>(*base_, tracer, Span::kCoreOnScan,
                                        Span::kCoreOnOdometry);
  } else if (base == "CartoLite") {
    Scope span{tracer, Span::kSetupCartoCtor};
    base_ = std::make_unique<CartoLocalizer>(PureLocalizationOptions{}, map,
                                             lidar);
    base_shim_ = std::make_unique<Shim>(*base_, tracer, Span::kSlamOnScan,
                                        Span::kSlamOnOdometry);
  } else {
    throw std::invalid_argument("unknown localizer kind: " + spec.kind);
  }

  faulted_ = std::make_unique<fault::FaultedLocalizer>(*base_shim_, pipeline_);
  fault_shim_ = std::make_unique<Shim>(*faulted_, tracer, Span::kFaultOnScan,
                                       Span::kFaultOnOdometry);
  top_ = fault_shim_.get();

  if (recovery) {
    Scope span{tracer, Span::kSetupSupervisorCtor};
    supervised_ = std::make_unique<recovery::SupervisedLocalizer>(
        *top_, recovery::SupervisedLocalizerConfig{}, map, lidar);
    if (synpf_ != nullptr) supervised_->bind_filter(&synpf_->filter());
    recovery_shim_ = std::make_unique<Shim>(
        *supervised_, tracer, Span::kRecoveryOnScan, Span::kRecoveryOnOdometry);
    top_ = recovery_shim_.get();
  }

  if (!gov_mode.empty()) {
    governor::GovernorConfig gcfg;
    gcfg.budget_ms = spec.budget_ms;
    gcfg.shed = gov_mode == "govern";
    gcfg.adaptive = gcfg.shed;
    gcfg.nominal_cost_units = governor::kCartoNominalCostUnits;
    governed_ = std::make_unique<governor::GovernedLocalizer>(*top_, gcfg);
    if (synpf_ != nullptr) governed_->bind_filter(&synpf_->filter());
    governed_->bind_pressure(&pipeline_);
    if (supervised_ != nullptr) governed_->bind_supervisor(supervised_.get());
    governor_shim_ = std::make_unique<Shim>(
        *governed_, tracer, Span::kGovernorOnScan, Span::kGovernorOnOdometry);
    top_ = governor_shim_.get();
  }
}

}  // namespace e2e
