#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/particle_filter.hpp"
#include "motion/tum_model.hpp"
#include "range/bresenham.hpp"
#include "sensor/lidar_sim.hpp"
#include "sensor/scanline_layout.hpp"

namespace srl::telemetry {
namespace {

// ---------------------------------------------------------------- Histogram

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, ExactMomentsApproximatePercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);   // min/max are exact, not bucketed
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Geometric buckets bound the relative percentile error by one bucket
  // width: 10^(1/24) - 1 < 10.1%.
  EXPECT_NEAR(h.percentile(0.50), 50.0, 50.0 * 0.11);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 95.0 * 0.11);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 99.0 * 0.11);
  // Percentiles are clamped to the exact observed range.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
  EXPECT_GE(h.percentile(0.0), 1.0);
}

TEST(Histogram, PercentileMonotoneAndSnapshotConsistent) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(0.1 + 0.01 * i);
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, h.percentile(0.50));
  EXPECT_DOUBLE_EQ(s.p95, h.percentile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, h.percentile(0.99));
  EXPECT_DOUBLE_EQ(s.max, h.max());
}

TEST(Histogram, BucketIndexLayout) {
  HistogramOptions opt;
  opt.min_value = 1e-3;
  opt.max_value = 1e3;
  opt.buckets_per_decade = 10;
  Histogram h{opt};
  // Bucket 0 is the underflow bucket [0, min_value).
  EXPECT_EQ(h.bucket_index(0.0), 0);
  EXPECT_EQ(h.bucket_index(5e-4), 0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 0.0);
  // Values above max_value clamp into the last (overflow) bucket.
  EXPECT_EQ(h.bucket_index(1e6), h.bucket_count() - 1);
  // Indices are monotone in the value.
  int prev = -1;
  for (double v = 1e-3; v < 1e3; v *= 1.3) {
    const int i = h.bucket_index(v);
    EXPECT_GE(i, prev);
    EXPECT_LT(i, h.bucket_count());
    // The value lies inside its bucket's edges.
    EXPECT_GE(v, h.bucket_lower(i) * (1.0 - 1e-12));
    EXPECT_LE(v, h.bucket_upper(i) * (1.0 + 1e-12));
    prev = i;
  }
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(1.0);
  h.record(2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

// ----------------------------------------------------------------- Registry

TEST(MetricsRegistry, StableHandlesAndLookup) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.find_gauge("g"), nullptr);

  Counter& c = reg.counter("c");
  c.add(3);
  EXPECT_EQ(&reg.counter("c"), &c);  // same name -> same object
  EXPECT_EQ(reg.find_counter("c")->value(), 3u);

  reg.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.find_gauge("g")->value(), 2.5);

  Histogram& h = reg.histogram("h");
  h.record(1.0);
  EXPECT_EQ(&reg.histogram("h"), &h);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
  EXPECT_EQ(reg.histogram_names(), std::vector<std::string>{"h"});
}

TEST(MetricsRegistry, Rows) {
  MetricsRegistry reg;
  reg.counter("n.updates").add(7);
  reg.gauge("ess").set(812.0);
  reg.histogram("lat_ms").record(1.25);

  const auto rows = reg.rows();
  ASSERT_EQ(rows.size(), 3u);
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& r : rows) {
    if (r.kind == "counter") {
      saw_counter = true;
      EXPECT_EQ(r.count, 7u);
    } else if (r.kind == "gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(r.value, 812.0);
    } else if (r.kind == "histogram") {
      saw_hist = true;
      EXPECT_EQ(r.hist.count, 1u);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

// ---------------------------------------------------------------- Tracing

/// Minimal structural JSON check: quotes pair up, braces/brackets balance
/// outside strings, and the document is a single object.
bool json_well_formed(const std::string& text) {
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (char ch : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      else if (ch == '"') in_string = false;
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': if (--brace < 0) return false; break;
      case '[': ++bracket; break;
      case ']': if (--bracket < 0) return false; break;
      default: break;
    }
  }
  return !in_string && brace == 0 && bracket == 0;
}

TEST(TraceBuffer, SpanNestingDepthsAndContainment) {
  TraceBuffer buf;
  {
    ScopedSpan outer{&buf, "outer"};
    {
      ScopedSpan inner{&buf, "inner"};
    }
    {
      ScopedSpan inner2{&buf, "inner2"};
    }
  }
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 3u);  // inner, inner2, outer (closed in that order)
  const TraceEvent& inner = events[0];
  const TraceEvent& inner2 = events[1];
  const TraceEvent& outer = events[2];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner2.depth, 1u);  // sibling, not grandchild: depth unwinds
  // Children are contained in the parent interval.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  EXPECT_GE(inner2.ts_us, inner.ts_us + inner.dur_us - 1e-6);
  EXPECT_EQ(outer.tid, inner.tid);
}

TEST(TraceBuffer, NullBufferSpanIsNoOp) {
  // Must not touch thread-local depth: a real span after a null span still
  // starts at depth 0.
  {
    ScopedSpan null_span{nullptr, "ghost"};
  }
  TraceBuffer buf;
  {
    ScopedSpan s{&buf, "real"};
  }
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].depth, 0u);
}

TEST(TraceBuffer, CapacityBoundsAndDropCount) {
  TraceBuffer buf{4};
  for (int i = 0; i < 10; ++i) buf.add("e", 0.0, 1.0, 0, 0);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TraceBuffer, ChromeTraceJsonIsWellFormed) {
  TraceBuffer buf;
  {
    ScopedSpan a{&buf, "pf.correct"};
    ScopedSpan b{&buf, "pf.raycast"};
  }
  const std::string path = "test_telemetry_trace.json";
  ASSERT_TRUE(buf.write_chrome_trace(path));
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::remove(path.c_str());

  EXPECT_TRUE(json_well_formed(text));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"pf.raycast\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Spans that didn't fit the buffer are accounted in the footer.
  EXPECT_NE(text.find("\"dropped_spans\":0"), std::string::npos);
}

TEST(TraceBuffer, DroppedSpansReachRegistryAndFooter) {
  MetricsRegistry registry;
  TraceBuffer buf{2};
  buf.set_dropped_counter(&registry.counter("telemetry.dropped_spans"));
  for (int i = 0; i < 5; ++i) buf.add("e", 0.0, 1.0, 0, 0);
  EXPECT_EQ(buf.dropped(), 3u);
  EXPECT_EQ(registry.counter("telemetry.dropped_spans").value(), 3u);

  const std::string path = "test_telemetry_trace_dropped.json";
  ASSERT_TRUE(buf.write_chrome_trace(path));
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_NE(ss.str().find("\"dropped_spans\":3"), std::string::npos);
}

// ------------------------------------------------------------ EventLog

TEST(EventLog, EmitsInOrderWithSeverityTallies) {
  EventLog log;
  log.emit(0.1, EventSeverity::kInfo, EventCategory::kExperiment, "e.start");
  log.emit(0.2, EventSeverity::kWarn, EventCategory::kFault, "fault.active");
  log.emit(0.3, EventSeverity::kCritical, EventCategory::kContract,
           "contract.violation");
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.count(EventSeverity::kWarn), 1u);
  EXPECT_EQ(log.critical_count(), 1u);
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[1].code, "fault.active");
  EXPECT_EQ(events[1].category, EventCategory::kFault);
}

TEST(EventLog, KeepsFirstCapacityEventsAndCountsOverflow) {
  EventLog log{4};
  MetricsRegistry registry;
  log.set_dropped_counter(&registry.counter("telemetry.dropped_events"));
  for (int i = 0; i < 10; ++i) {
    log.emit(0.1 * i, EventSeverity::kInfo, EventCategory::kFilter,
             "e" + std::to_string(i));
  }
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(registry.counter("telemetry.dropped_events").value(), 6u);
  // The journal keeps the *beginning* of the causal chain.
  const std::vector<Event> events = log.events();
  EXPECT_EQ(events.front().code, "e0");
  EXPECT_EQ(events.back().code, "e3");
  // Severity tallies count every emission, kept or dropped.
  EXPECT_EQ(log.count(EventSeverity::kInfo), 10u);
}

TEST(EventLog, NdjsonRoundTrip) {
  EventLog log;
  json::Value data = json::Value::object();
  data.set("ess_fraction", json::Value::number(0.25));
  log.emit(1.5, EventSeverity::kDebug, EventCategory::kFilter, "pf.resample",
           std::move(data));
  log.emit(2.0, EventSeverity::kError, EventCategory::kRecovery,
           "recovery.transition");

  const std::string path = "test_telemetry_events.ndjson";
  std::remove(path.c_str());
  ASSERT_TRUE(log.write_ndjson(path));
  const auto back = EventLog::load_ndjson(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].code, "pf.resample");
  EXPECT_EQ((*back)[0].severity, EventSeverity::kDebug);
  EXPECT_DOUBLE_EQ((*back)[0].t, 1.5);
  const json::Value* ess = (*back)[0].data.find("ess_fraction");
  ASSERT_NE(ess, nullptr);
  EXPECT_DOUBLE_EQ(ess->as_double(), 0.25);
  EXPECT_EQ((*back)[1].severity, EventSeverity::kError);
  EXPECT_EQ((*back)[1].category, EventCategory::kRecovery);
}

TEST(EventLog, EventJsonRejectsMalformed) {
  EXPECT_FALSE(event_from_json(json::Value::number(1.0)).has_value());
  json::Value missing = json::Value::object();
  missing.set("t", json::Value::number(0.0));
  EXPECT_FALSE(event_from_json(missing).has_value());
}

// ------------------------------------------------------------ FilterHealth

TEST(FilterHealth, UniformWeights) {
  const std::vector<double> w{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(effective_sample_size(w), 4.0, 1e-12);
  EXPECT_NEAR(weight_entropy(w), std::log(4.0), 1e-12);
  EXPECT_NEAR(max_weight_share(w), 0.25, 1e-12);
}

TEST(FilterHealth, DegenerateWeights) {
  const std::vector<double> w{1.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(effective_sample_size(w), 1.0, 1e-12);
  EXPECT_NEAR(weight_entropy(w), 0.0, 1e-12);
  EXPECT_NEAR(max_weight_share(w), 1.0, 1e-12);
}

TEST(FilterHealth, ScaleInvarianceAndEdgeCases) {
  // The diagnostics normalize internally: scaling all weights is a no-op.
  const std::vector<double> w{0.5, 0.3, 0.2};
  std::vector<double> scaled;
  for (double v : w) scaled.push_back(v * 37.0);
  EXPECT_NEAR(effective_sample_size(w), effective_sample_size(scaled), 1e-9);
  EXPECT_NEAR(weight_entropy(w), weight_entropy(scaled), 1e-12);
  EXPECT_NEAR(max_weight_share(w), max_weight_share(scaled), 1e-12);

  EXPECT_DOUBLE_EQ(effective_sample_size({}), 0.0);
  EXPECT_DOUBLE_EQ(weight_entropy({}), 0.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(effective_sample_size(zeros), 0.0);
}

TEST(PoseJumpDetector, AlarmsOnlyAboveThreshold) {
  PoseJumpDetector det{0.5, 0.35};
  FilterHealth health;
  // Correction well inside the thresholds: no alarm.
  EXPECT_FALSE(det.update(Pose2{1.0, 2.0, 0.1}, Pose2{1.1, 2.0, 0.15},
                          health));
  EXPECT_NEAR(health.pose_jump_m, 0.1, 1e-12);
  EXPECT_FALSE(health.pose_jump_alarm);
  EXPECT_EQ(det.alarm_count(), 0);
  // Translation jump.
  EXPECT_TRUE(det.update(Pose2{0.0, 0.0, 0.0}, Pose2{1.0, 0.0, 0.0}, health));
  EXPECT_TRUE(health.pose_jump_alarm);
  // Heading jump alone also alarms; the angle distance wraps (2.5 -> -2.5
  // is 2*pi - 5, not 5).
  EXPECT_TRUE(det.update(Pose2{0.0, 0.0, 2.5}, Pose2{0.0, 0.0, -2.5},
                         health));
  EXPECT_NEAR(health.pose_jump_rad, 2.0 * kPi - 5.0, 1e-9);
  EXPECT_EQ(det.alarm_count(), 2);
}

// ------------------------------------------- Integration with the filter

std::shared_ptr<const OccupancyGrid> make_room() {
  auto grid = std::make_shared<OccupancyGrid>(200, 120, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  for (int x = 0; x < 200; ++x) {
    grid->at(x, 0) = OccupancyGrid::kOccupied;
    grid->at(x, 119) = OccupancyGrid::kOccupied;
  }
  for (int y = 0; y < 120; ++y) {
    grid->at(0, y) = OccupancyGrid::kOccupied;
    grid->at(199, y) = OccupancyGrid::kOccupied;
  }
  for (int y = 40; y < 60; ++y) {
    for (int x = 60; x < 80; ++x) grid->at(x, y) = OccupancyGrid::kOccupied;
  }
  return grid;
}

ParticleFilter make_filter(std::shared_ptr<const OccupancyGrid> map) {
  const LidarConfig lidar;
  ParticleFilterConfig cfg;
  cfg.n_particles = 400;
  return ParticleFilter{cfg,
                        std::make_shared<BresenhamCaster>(map, lidar.max_range),
                        std::make_shared<TumMotionModel>(),
                        BeamModel{},
                        lidar,
                        uniform_layout(lidar, 30),
                        42};
}

/// Telemetry must be purely observational: with and without an attached
/// registry the filter follows the exact same estimate trajectory.
TEST(TelemetryIntegration, AttachedRegistryDoesNotPerturbFilter) {
  auto map = make_room();
  const LidarConfig lidar;
  LidarNoise noise;
  noise.sigma_range = 0.01;
  noise.dropout_prob = 0.0;
  LidarSim sim{lidar, std::make_shared<BresenhamCaster>(map, lidar.max_range),
               noise};

  ParticleFilter plain = make_filter(map);
  ParticleFilter instrumented = make_filter(map);
  Telemetry telemetry;
  instrumented.set_telemetry(telemetry.sink());

  const Pose2 start{5.0, 3.0, 0.0};
  plain.init_pose(start);
  instrumented.init_pose(start);

  OdometryDelta odom;
  odom.delta = Pose2{0.05, 0.0, 0.01};
  odom.v = 2.5;
  odom.dt = 0.02;
  Rng scan_rng{7};
  Pose2 truth = start;
  for (int step = 0; step < 10; ++step) {
    truth = truth * odom.delta;
    const LaserScan scan = sim.scan(truth, 0.0, scan_rng);
    plain.predict(odom);
    instrumented.predict(odom);
    plain.correct(scan);
    instrumented.correct(scan);
    const Pose2 a = plain.estimate();
    const Pose2 b = instrumented.estimate();
    ASSERT_EQ(a.x, b.x) << "step " << step;
    ASSERT_EQ(a.y, b.y) << "step " << step;
    ASSERT_EQ(a.theta, b.theta) << "step " << step;
  }

  // The instrumented run actually populated its metrics.
  const Histogram* raycast = telemetry.metrics.find_histogram("pf.raycast_ms");
  ASSERT_NE(raycast, nullptr);
  EXPECT_EQ(raycast->count(), 10u);
  EXPECT_EQ(telemetry.metrics.find_counter("pf.updates")->value(), 10u);
  EXPECT_GT(telemetry.trace.size(), 0u);

  const FilterHealth& health = instrumented.health();
  EXPECT_EQ(health.n_particles, 400);
  EXPECT_GT(health.ess, 0.0);
  EXPECT_LE(health.ess_fraction, 1.0 + 1e-12);
  EXPECT_GT(health.normalized_entropy, 0.0);
  EXPECT_GE(health.max_weight_share, 1.0 / 400.0);
}

/// The disabled path must stay cheap: StageTimer/ScopedSpan with null sinks
/// are branch-only. This is a smoke bound (very loose to survive CI noise),
/// not a benchmark — the real comparison lives in bench_latency_rangelib.
TEST(TelemetryIntegration, NullSinkOverheadSmoke) {
  Stopwatch watch;
  double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    StageTimer timer{nullptr};
    ScopedSpan span{nullptr, "noop"};
    sink += static_cast<double>(i);
    timer.stop();
  }
  const double elapsed_ms = watch.elapsed_ms();
  EXPECT_GT(sink, 0.0);
  EXPECT_LT(elapsed_ms, 500.0) << "1e6 disabled telemetry ops took "
                               << elapsed_ms << " ms";
}

}  // namespace
}  // namespace srl::telemetry
