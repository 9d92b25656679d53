#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util.hpp"

namespace e2e {

namespace {

double hist_sum_s(const srl::telemetry::MetricsRegistry& m, const char* name) {
  const srl::telemetry::Histogram* h = m.find_histogram(name);
  return h != nullptr ? h->sum() * 1e-3 : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Spans that run once per tick or per update also report exact
/// percentiles of their inclusive duration.
bool per_tick(Span s) {
  switch (s) {
    case Span::kVehicleStep:
    case Span::kSensorTruthScan:
    case Span::kEvalAlignment:
    case Span::kControlPursuit:
    case Span::kGovernorOnScan:
    case Span::kRecoveryOnScan:
    case Span::kFaultOnScan:
    case Span::kCoreOnScan:
    case Span::kSlamOnScan:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::uint64_t counter(const srl::telemetry::MetricsRegistry& m,
                      const char* name) {
  const srl::telemetry::Counter* c = m.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

void LayerCounters::add(const srl::telemetry::MetricsRegistry& m,
                        const srl::governor::GovernedLocalizer* governed) {
  pf_predict_s += hist_sum_s(m, "pf.predict_ms");
  pf_raycast_s += hist_sum_s(m, "pf.raycast_ms");
  pf_weight_s += hist_sum_s(m, "pf.weight_ms");
  pf_resample_s += hist_sum_s(m, "pf.resample_ms");
  pf_updates += counter(m, "pf.updates");
  pf_resamples += counter(m, "pf.resamples");
  range_lut += counter(m, "range.lut.queries");
  range_cddt += counter(m, "range.cddt.queries");
  carto_local_match_s += hist_sum_s(m, "carto.local_match_ms");
  carto_insert_s += hist_sum_s(m, "carto.insert_ms");
  carto_global_s += hist_sum_s(m, "carto.global_ms");
  carto_fixes += counter(m, "carto.global_fixes");
  carto_failures += counter(m, "carto.global_failures");
  carto_relocs += counter(m, "carto.reloc_searches");
  recovery_global_relocs += counter(m, "recovery.global_relocs");
  recovery_injections += counter(m, "recovery.injections");
  if (governed != nullptr) {
    governor_updates += governed->updates();
    governor_misses += governed->deadline_misses();
    governor_shed +=
        governed->shed_beam_updates() + governed->shed_particle_updates();
  }
}

void LayerCounters::merge(const LayerCounters& o) {
  pf_predict_s += o.pf_predict_s;
  pf_raycast_s += o.pf_raycast_s;
  pf_weight_s += o.pf_weight_s;
  pf_resample_s += o.pf_resample_s;
  pf_updates += o.pf_updates;
  pf_resamples += o.pf_resamples;
  range_lut += o.range_lut;
  range_cddt += o.range_cddt;
  carto_local_match_s += o.carto_local_match_s;
  carto_insert_s += o.carto_insert_s;
  carto_global_s += o.carto_global_s;
  carto_fixes += o.carto_fixes;
  carto_failures += o.carto_failures;
  carto_relocs += o.carto_relocs;
  recovery_global_relocs += o.recovery_global_relocs;
  recovery_injections += o.recovery_injections;
  governor_updates += o.governor_updates;
  governor_misses += o.governor_misses;
  governor_shed += o.governor_shed;
}

void add_per_layer(const LayerInputs& in, Report& report) {
  auto put = [&](const std::string& name, double value,
                 const std::string& unit) {
    report.per_layer.push_back({name, value, unit});
  };

  double self_sum = 0.0;
  for (int i = 0; i < kSpanCount; ++i) {
    const auto span = static_cast<Span>(i);
    const std::string name = span_name(span);
    const SpanStats& w = in.work->stats(span);
    const SpanStats& s = in.setup->stats(span);
    self_sum += w.self_s;
    put(name + ".calls", static_cast<double>(w.calls + s.calls), "count");
    put(name + ".self_s", w.self_s + s.self_s, "s");
    if (per_tick(span)) {
      const Percentiles p = percentiles(w.dur_us);
      put(name + ".p50_us", p.p50, "us");
      put(name + ".p99_us", p.p99, "us");
    }
  }

  const LayerCounters& c = in.counters;
  put("core.predict.sum_s", c.pf_predict_s, "s");
  put("core.raycast.sum_s", c.pf_raycast_s, "s");
  put("core.weight.sum_s", c.pf_weight_s, "s");
  put("core.resample.sum_s", c.pf_resample_s, "s");
  put("core.resample_ratio",
      ratio(static_cast<double>(c.pf_resamples),
            static_cast<double>(c.pf_updates)),
      "ratio");
  put("range.lut.queries", static_cast<double>(c.range_lut), "count");
  put("range.cddt.queries", static_cast<double>(c.range_cddt), "count");
  put("slam.local_match.sum_s", c.carto_local_match_s, "s");
  put("slam.insert.sum_s", c.carto_insert_s, "s");
  put("slam.global.sum_s", c.carto_global_s, "s");
  put("slam.global_success_ratio",
      ratio(static_cast<double>(c.carto_fixes),
            static_cast<double>(c.carto_fixes + c.carto_failures)),
      "ratio");
  put("slam.reloc_searches", static_cast<double>(c.carto_relocs), "count");
  put("recovery.global_relocs", static_cast<double>(c.recovery_global_relocs),
      "count");
  put("recovery.injections", static_cast<double>(c.recovery_injections),
      "count");
  put("governor.miss_ratio",
      ratio(static_cast<double>(c.governor_misses),
            static_cast<double>(c.governor_updates)),
      "ratio");
  put("governor.shed_ratio",
      ratio(static_cast<double>(c.governor_shed),
            static_cast<double>(c.governor_updates)),
      "ratio");

  // Job lanes: the cell pool of the batch jobs, one lane for the serial
  // workloads. Lanes the workload does not have read 0.
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (int k = 0; k < 4; ++k) {
    const double busy = k < static_cast<int>(in.lane_busy_s.size())
                            ? in.lane_busy_s[static_cast<std::size_t>(k)]
                            : 0.0;
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    put("pool.lane" + std::to_string(k) + ".busy_s", busy, "s");
  }
  const auto lanes = static_cast<double>(std::max<std::size_t>(
      in.lane_busy_s.size(), 1));
  put("pool.idle_frac", 1.0 - ratio(busy_sum, lanes * in.traced_job_s),
      "fraction");
  put("pool.imbalance", ratio(busy_max, busy_sum / lanes), "ratio");

  const double unattributed = in.ops_total_s - self_sum;
  put("harness.total_s", in.ops_total_s, "s");
  put("harness.unattributed_s", unattributed, "s");
  put("harness.unattributed_frac", ratio(unattributed, in.ops_total_s),
      "fraction");
  put("gen.lag_p99_us", in.gen_lag_p99_us, "us");
  const double overhead = in.traced_job_s - in.untraced_job_s;
  put("trace.overhead_s", overhead, "s");
  put("trace.overhead_frac", ratio(overhead, in.untraced_job_s), "fraction");

  // Self times of nested spans must add up to the outermost spans, and no
  // span may outlast the operation that contains it.
  const double top = in.work->top_level_s();
  report.check("spans_self_sum_equals_top_level",
               std::abs(self_sum - top) <= 1e-6 * std::max(1.0, top));
  report.check("spans_within_operations", unattributed >= -1e-9);
  // The spans must explain the operations: what falls between them is the
  // harness bookkeeping, and it has to stay small for the table to hold.
  report.check("unattributed_below_5pct",
               ratio(unattributed, in.ops_total_s) < 0.05);
}

}  // namespace e2e
