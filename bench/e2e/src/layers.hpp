#pragma once

/// \file layers.hpp
/// \brief Per-layer metrics of the traced run: span totals plus the
/// counters the modules already export through `telemetry::Sink`.

#include <cstdint>
#include <vector>

#include "governor/governor.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace e2e {

/// Value of a registry counter; 0 when the operation never created it.
std::uint64_t counter(const srl::telemetry::MetricsRegistry& m,
                      const char* name);

/// Work counts and stage sums of one operation, read from its metrics
/// registry (empty when it ran without a sink) and its governor. Stage sums
/// come from the `pf.*_ms` / `carto.*_ms` histograms: their sums are exact,
/// only their percentiles are bucketed.
struct LayerCounters {
  double pf_predict_s{0.0};
  double pf_raycast_s{0.0};
  double pf_weight_s{0.0};
  double pf_resample_s{0.0};
  std::uint64_t pf_updates{0};
  std::uint64_t pf_resamples{0};
  std::uint64_t range_lut{0};
  std::uint64_t range_cddt{0};
  double carto_local_match_s{0.0};
  double carto_insert_s{0.0};
  double carto_global_s{0.0};
  std::uint64_t carto_fixes{0};
  std::uint64_t carto_failures{0};
  std::uint64_t carto_relocs{0};
  std::uint64_t recovery_global_relocs{0};
  std::uint64_t recovery_injections{0};
  std::uint64_t governor_updates{0};
  std::uint64_t governor_misses{0};
  std::uint64_t governor_shed{0};

  void add(const srl::telemetry::MetricsRegistry& registry,
           const srl::governor::GovernedLocalizer* governed);
  void merge(const LayerCounters& other);
};

/// Everything the per-layer table is computed from.
struct LayerInputs {
  const Tracer* setup{nullptr};  ///< the benchmark's own set-up phase
  const Tracer* work{nullptr};   ///< every traced operation, merged
  LayerCounters counters{};
  /// Wall seconds of every traced operation, summed. Span self times plus
  /// harness.unattributed add up to exactly this.
  double ops_total_s{0.0};
  /// Wall of the traced and the untraced job: the operations' sum for the
  /// serial workloads, the pool region for the batch jobs.
  double traced_job_s{0.0};
  double untraced_job_s{0.0};
  std::vector<double> lane_busy_s;  ///< per job lane
  double gen_lag_p99_us{0.0};
};

/// Append the per-layer metrics (every name, zero for layers the workload
/// bypasses) and record the accounting checks.
void add_per_layer(const LayerInputs& in, Report& report);

}  // namespace e2e
