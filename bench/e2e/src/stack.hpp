#pragma once

/// \file stack.hpp
/// \brief Localizer stacks with timing shims between the decorator layers.
///
/// The scenario matrix and the frontier compose
/// `Governed(Supervised(Faulted(SynPF | CartoLite)))` inside the library
/// (src/eval/scenario_matrix.cpp, src/eval/frontier/frontier_search.cpp).
/// For the traced run the benchmark composes the same stack itself and puts
/// a pass-through `Shim` under each layer, so each decorator's self time is
/// its span minus the span of the layer below. The shims forward every call
/// unchanged; the traced run checks that the results stay bit-identical.

#include <memory>
#include <string>
#include <vector>

#include "core/synpf.hpp"
#include "fault/faulted_localizer.hpp"
#include "fault/pipeline.hpp"
#include "governor/governor.hpp"
#include "recovery/supervised_localizer.hpp"
#include "spans.hpp"

namespace e2e {

/// Pass-through localizer timing the calls into the layer it wraps. With a
/// tracer it records spans; with `scan_latency_s` it appends each on_scan
/// duration (the untraced latency probe). Both may be null.
class Shim final : public srl::Localizer {
 public:
  Shim(srl::Localizer& inner, Tracer* tracer, Span on_scan, Span on_odometry,
       std::vector<double>* scan_latency_s = nullptr)
      : inner_{inner},
        tracer_{tracer},
        on_scan_{on_scan},
        on_odometry_{on_odometry},
        scan_latency_s_{scan_latency_s} {}

  void initialize(const srl::Pose2& pose) override { inner_.initialize(pose); }
  void on_odometry(const srl::OdometryDelta& odom) override {
    Scope span{tracer_, on_odometry_};
    inner_.on_odometry(odom);
  }
  srl::Pose2 on_scan(const srl::LaserScan& scan) override;
  srl::Pose2 pose() const override { return inner_.pose(); }
  std::string name() const override { return inner_.name(); }
  double mean_scan_update_ms() const override {
    return inner_.mean_scan_update_ms();
  }
  double total_busy_s() const override { return inner_.total_busy_s(); }
  void set_telemetry(const srl::telemetry::Sink& sink) override {
    inner_.set_telemetry(sink);
  }

 private:
  srl::Localizer& inner_;
  Tracer* tracer_;
  Span on_scan_;
  Span on_odometry_;
  std::vector<double>* scan_latency_s_;
};

/// How a stack is composed: the kind vocabulary of the scenario matrix
/// ("SynPF", "CartoLite", "+Recovery", then "+Governor" or "+Budget").
/// SynPF always casts with CDDT, as in the library's matrix and frontier.
struct StackSpec {
  std::string kind{"SynPF"};
  int n_particles{1200};
  int filter_threads{1};
  double budget_ms{2.0};
  /// Force a budget-enforcing governor whatever the kind says (the
  /// frontier's compute_pressure probes).
  bool enforce_budget{false};
  std::uint64_t fault_seed{0x7a017ULL};
};

/// Owns one composed stack. Layers are built inside `setup.*` spans; the
/// fault pipeline is empty until the caller adds stages to `pipeline()`.
class Stack {
 public:
  Stack(const StackSpec& spec, std::shared_ptr<const srl::OccupancyGrid> map,
        const srl::LidarConfig& lidar, Tracer* tracer);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  srl::Localizer& top() { return *top_; }
  srl::fault::FaultPipeline& pipeline() { return pipeline_; }
  srl::SynPf* synpf() { return synpf_; }
  srl::governor::GovernedLocalizer* governed() { return governed_.get(); }

 private:
  srl::fault::FaultPipeline pipeline_;
  std::unique_ptr<srl::Localizer> base_;
  srl::SynPf* synpf_{nullptr};
  std::unique_ptr<Shim> base_shim_;
  std::unique_ptr<srl::fault::FaultedLocalizer> faulted_;
  std::unique_ptr<Shim> fault_shim_;
  std::unique_ptr<srl::recovery::SupervisedLocalizer> supervised_;
  std::unique_ptr<Shim> recovery_shim_;
  std::unique_ptr<srl::governor::GovernedLocalizer> governed_;
  std::unique_ptr<Shim> governor_shim_;
  srl::Localizer* top_{nullptr};
};

}  // namespace e2e
