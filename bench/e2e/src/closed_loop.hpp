#pragma once

/// \file closed_loop.hpp
/// \brief A copy of `srl::ExperimentRunner` (src/eval/experiment.cpp) with
/// a span around every harness call, for the traced run.
///
/// The library runner keeps its tick loop private, so the only way to see
/// where a closed-loop tick spends its time without touching src/ is to
/// drive the same public components in the same order from here. The copy
/// must stay bit-identical to the library: the traced benchmark compares
/// every mirrored race against an `ExperimentRunner::run` of the same inputs
/// and fails on any difference. The flight-recorder and trace-recording
/// paths are left out (the benchmark runs with both off).

#include <memory>

#include "eval/experiment.hpp"
#include "gridmap/distance_transform.hpp"
#include "range/range_method.hpp"
#include "spans.hpp"

namespace e2e {

class MirroredRunner {
 public:
  MirroredRunner(const srl::Track& track, srl::ExperimentConfig config);

  /// `ExperimentRunner::run(localizer, nullptr, sink)` with spans recorded
  /// into `tracer` (null = untimed). `sink.recorder` must be null.
  srl::ExperimentResult run(srl::Localizer& localizer,
                            srl::telemetry::Sink sink, Tracer* tracer);

 private:
  srl::Pose2 start_pose() const;

  const srl::Track& track_;
  srl::ExperimentConfig config_;
  srl::Raceline raceline_;
  srl::SpeedProfile profile_;
  srl::ScanAlignmentScorer alignment_;
  srl::DistanceField wall_distance_;
  std::shared_ptr<const srl::RangeMethod> truth_caster_;
};

}  // namespace e2e
