#include "eval/frontier/frontier_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "eval/frontier/frontier_json.hpp"
#include "eval/frontier/scenario_sampler.hpp"
#include "eval/postmortem.hpp"

namespace srl::frontier {
namespace {

// ---------------------------------------------------------------------------
// Scenario index packing
// ---------------------------------------------------------------------------

TEST(ScenarioKey, PackUnpackRoundTripsEveryCoordinate) {
  for (const ScenarioKey key : {ScenarioKey{0, 0, 0, 0},
                                ScenarioKey{1024, 7, 2, 0},
                                ScenarioKey{513, 3, 1, 9},
                                ScenarioKey{1, 15, 3, (1 << 14) - 1}}) {
    const ScenarioKey back = ScenarioKey::unpack(key.pack());
    EXPECT_EQ(back.sev_step, key.sev_step);
    EXPECT_EQ(back.axis, key.axis);
    EXPECT_EQ(back.track_class, key.track_class);
    EXPECT_EQ(back.variant, key.variant);
  }
}

TEST(ScenarioKey, ProfileKeyClearsOnlySeverityBits) {
  const ScenarioKey a{100, 3, 1, 7};
  const ScenarioKey b{900, 3, 1, 7};
  EXPECT_EQ(a.profile_key(), b.profile_key());
  EXPECT_NE(a.pack(), b.pack());
  // A different axis must land on a different envelope stream.
  const ScenarioKey c{100, 4, 1, 7};
  EXPECT_NE(a.profile_key(), c.profile_key());
}

TEST(ScenarioKey, TrackKeyClearsSeverityAndAxisBits) {
  const ScenarioKey a{100, 3, 1, 7};
  const ScenarioKey b{900, 6, 1, 7};
  EXPECT_EQ(a.track_key(), b.track_key());
  // Class and variant still distinguish circuits.
  EXPECT_NE(a.track_key(), (ScenarioKey{100, 3, 2, 7}.track_key()));
  EXPECT_NE(a.track_key(), (ScenarioKey{100, 3, 1, 8}.track_key()));
}

// ---------------------------------------------------------------------------
// Sampler determinism & severity-coherence
// ---------------------------------------------------------------------------

bool scenarios_bitwise_equal(const SampledScenario& a,
                             const SampledScenario& b) {
  return a.severity == b.severity &&
         std::memcmp(&a.profile, &b.profile, sizeof(a.profile)) == 0 &&
         a.length_scale == b.length_scale &&
         a.spec.half_width == b.spec.half_width &&
         a.n_waypoints == b.n_waypoints &&
         a.waypoint_radius == b.waypoint_radius &&
         a.waypoint_jitter == b.waypoint_jitter;
}

TEST(ScenarioSampler, SampleIsAPureFunctionOfSeedAndIndex) {
  const std::uint32_t index = ScenarioKey{640, 4, 2, 3}.pack();
  const ScenarioSampler sampler{0xF407};
  const SampledScenario first = sampler.sample(index);
  // Unrelated samples in between must not perturb a re-derivation, and a
  // fresh sampler with the same seed must land on the same bits.
  (void)sampler.sample(ScenarioKey{1, 1, 0, 0}.pack());
  EXPECT_TRUE(scenarios_bitwise_equal(first, sampler.sample(index)));
  EXPECT_TRUE(
      scenarios_bitwise_equal(first, ScenarioSampler{0xF407}.sample(index)));
  // A different master seed is a different universe.
  EXPECT_FALSE(
      scenarios_bitwise_equal(first, ScenarioSampler{0xF408}.sample(index)));
}

TEST(ScenarioSampler, SeveritySweepKeepsEnvelopeShapeAndCircuitFixed) {
  const ScenarioSampler sampler{7};
  for (int track_class = 0; track_class < 3; ++track_class) {
    const SampledScenario lo =
        sampler.sample(ScenarioKey{64, 2, track_class, 1}.pack());
    const SampledScenario hi =
        sampler.sample(ScenarioKey{1024, 2, track_class, 1}.pack());
    // Only the severity (and the envelope level derived from it) moves.
    EXPECT_EQ(lo.profile.t_start, hi.profile.t_start);
    EXPECT_EQ(lo.profile.ramp_s, hi.profile.ramp_s);
    EXPECT_EQ(lo.profile.duration, hi.profile.duration);
    EXPECT_EQ(lo.profile.severity, lo.severity);
    EXPECT_EQ(hi.profile.severity, 1.0);
    // Circuit parameters are severity-independent.
    EXPECT_EQ(lo.spec.half_width, hi.spec.half_width);
    EXPECT_EQ(lo.length_scale, hi.length_scale);
    EXPECT_EQ(lo.n_waypoints, hi.n_waypoints);
  }
}

TEST(ScenarioSampler, AxesShareTheCircuitOfTheirTrackCell) {
  // track_key clears the axis bits: every fault axis of one {class, variant}
  // cell must race exactly the same circuit.
  const ScenarioSampler sampler{7};
  const SampledScenario slip = sampler.sample(ScenarioKey{512, 0, 0, 2}.pack());
  const SampledScenario noise =
      sampler.sample(ScenarioKey{512, 4, 0, 2}.pack());
  EXPECT_EQ(slip.spec.half_width, noise.spec.half_width);
  EXPECT_EQ(slip.length_scale, noise.length_scale);
  // But their envelopes come from per-axis streams.
  EXPECT_NE(slip.profile.t_start, noise.profile.t_start);
}

TEST(ScenarioSampler, SeverityGridIsDyadicAndExact) {
  const ScenarioSampler sampler{1};
  for (const int step : {0, 1, 3, 512, 767, 1024}) {
    const SampledScenario s =
        sampler.sample(ScenarioKey{step, 1, 0, 0}.pack());
    // Every grid severity is exact in binary FP: scaling back recovers the
    // integer step with no rounding.
    EXPECT_EQ(s.severity * kSeverityDenominator, static_cast<double>(step));
    // ... and survives the JSON number formatter bit-for-bit.
    const std::string text = json::format_number(s.severity);
    EXPECT_EQ(std::stod(text), s.severity);
  }
}

TEST(ScenarioSampler, BlackoutSeverityDialsTheOutageWindow) {
  // The blackout envelope is all-or-nothing, so the frontier walks outage
  // *duration*: level pinned to 1, window length scaling with severity.
  const ScenarioSampler sampler{7};
  const int axis = 7;  // "blackout"
  ASSERT_EQ(frontier_axes()[axis], "blackout");
  const SampledScenario half =
      sampler.sample(ScenarioKey{512, axis, 0, 0}.pack());
  const SampledScenario full =
      sampler.sample(ScenarioKey{1024, axis, 0, 0}.pack());
  EXPECT_EQ(half.profile.severity, 1.0);
  EXPECT_EQ(full.profile.severity, 1.0);
  EXPECT_GT(half.profile.duration, 0.0);
  EXPECT_EQ(half.profile.duration, 0.5 * full.profile.duration);
  // Severity 0 must stay a true no-op.
  const SampledScenario off = sampler.sample(ScenarioKey{0, axis, 0, 0}.pack());
  EXPECT_EQ(off.profile.severity, 0.0);
}

TEST(ScenarioSampler, OutOfRangeCoordinatesClampDeterministically) {
  const ScenarioSampler sampler{7};
  // Axis id 15 exceeds the 8 pinned axes; class id 3 exceeds the 3 classes.
  const SampledScenario s =
      sampler.sample(ScenarioKey{1024, 15, 3, 0}.pack());
  EXPECT_EQ(s.axis, frontier_axes().back());
  EXPECT_EQ(s.track_class, frontier_track_classes().back());
  EXPECT_LE(s.severity, 1.0);
}

TEST(ScenarioSampler, BuildTrackIsReproducibleAndClassShaped) {
  const ScenarioSampler sampler{0xF407};
  for (int track_class = 0; track_class < 3; ++track_class) {
    const SampledScenario s =
        sampler.sample(ScenarioKey{512, 0, track_class, 0}.pack());
    const Track t1 = sampler.build_track(s);
    const Track t2 = sampler.build_track(s);
    ASSERT_FALSE(t1.centerline.empty());
    ASSERT_EQ(t1.centerline.size(), t2.centerline.size());
    for (std::size_t i = 0; i < t1.centerline.size(); ++i) {
      EXPECT_EQ(t1.centerline[i].x, t2.centerline[i].x);
      EXPECT_EQ(t1.centerline[i].y, t2.centerline[i].y);
    }
  }
}

TEST(ScenarioSampler, ReplayRecipeRoundTrips) {
  const std::uint64_t seed = 0xF407;
  const std::uint32_t index = ScenarioKey{768, 5, 1, 3}.pack();
  const std::string recipe = ScenarioSampler::replay_recipe(seed, index);
  EXPECT_EQ(recipe.rfind("frontier:", 0), 0u);
  std::uint64_t seed_back = 0;
  std::uint32_t index_back = 0;
  ASSERT_TRUE(
      ScenarioSampler::parse_replay_recipe(recipe, seed_back, index_back));
  EXPECT_EQ(seed_back, seed);
  EXPECT_EQ(index_back, index);
  EXPECT_FALSE(
      ScenarioSampler::parse_replay_recipe("oval:8,2.5", seed_back,
                                           index_back));
  EXPECT_FALSE(
      ScenarioSampler::parse_replay_recipe("frontier:", seed_back,
                                           index_back));
}

// ---------------------------------------------------------------------------
// Bisection driver (synthetic oracles)
// ---------------------------------------------------------------------------

/// Oracle failing at severity >= threshold — the search must bracket it.
ScenarioEvaluator step_oracle(double threshold) {
  return [threshold](const std::string&, const SampledScenario& scenario) {
    FrontierEvaluation eval;
    eval.failed = scenario.severity >= threshold;
    eval.divergence_episodes = eval.failed ? 1 : 0;
    return eval;
  };
}

FrontierSearchConfig tiny_config() {
  FrontierSearchConfig config;
  config.localizers = {"SynPF"};
  config.axes = {0};
  config.track_classes = {0};
  config.bisect_iterations = 5;
  return config;
}

TEST(FrontierSearch, BisectionBracketsAKnownThreshold) {
  const double threshold = 0.37;  // not on the dyadic grid on purpose
  const FrontierResult result =
      run_frontier_search(tiny_config(), step_oracle(threshold));
  ASSERT_EQ(result.points.size(), 1u);
  const FrontierPoint& point = result.points[0];
  EXPECT_FALSE(point.censored);
  EXPECT_FALSE(point.degenerate);
  // The true threshold lies inside the final bracket and the reported
  // breaking severity is its failing edge.
  EXPECT_LE(point.bracket_lo, threshold);
  EXPECT_GE(point.bracket_hi, threshold);
  EXPECT_EQ(point.breaking_severity, point.bracket_hi);
  // After B bisections of the full grid the bracket is 1024/2^B steps wide.
  const double expected_width = 1024.0 / 32.0 / kSeverityDenominator;
  EXPECT_DOUBLE_EQ(point.bracket_hi - point.bracket_lo, expected_width);
  // The defining failure's replay key re-samples to a failing scenario.
  const SampledScenario defining =
      ScenarioSampler{result.seed}.sample(point.breaking_index);
  EXPECT_GE(defining.severity, threshold);
  EXPECT_EQ(defining.severity, point.breaking_severity);
}

TEST(FrontierSearch, BracketTightensWithMoreIterations) {
  for (const int iterations : {1, 3, 8}) {
    FrontierSearchConfig config = tiny_config();
    config.bisect_iterations = iterations;
    const FrontierResult result =
        run_frontier_search(config, step_oracle(0.37));
    ASSERT_EQ(result.points.size(), 1u);
    const double width =
        result.points[0].bracket_hi - result.points[0].bracket_lo;
    const double expected =
        1024.0 / static_cast<double>(1 << iterations) / kSeverityDenominator;
    EXPECT_DOUBLE_EQ(width, expected) << "iterations=" << iterations;
  }
}

TEST(FrontierSearch, SurvivorIsCensoredAfterOneProbe) {
  const FrontierResult result =
      run_frontier_search(tiny_config(), step_oracle(2.0));
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points[0].censored);
  EXPECT_FALSE(result.points[0].degenerate);
  // Censoring needs only the severity-1.0 bracket probe.
  ASSERT_EQ(result.points[0].evaluations.size(), 1u);
  EXPECT_EQ(result.points[0].evaluations[0].severity, 1.0);
  EXPECT_EQ(result.points[0].breaking_index, 0u);
}

TEST(FrontierSearch, CleanFailureIsDegenerate) {
  const FrontierResult result =
      run_frontier_search(tiny_config(), step_oracle(0.0));
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points[0].degenerate);
  EXPECT_EQ(result.points[0].breaking_severity, 0.0);
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

/// Both entry points must refuse `config` with std::invalid_argument naming
/// `field` and `value`, before any probe runs.
void expect_rejected(const FrontierSearchConfig& config,
                     const std::string& field, int value) {
  int probes = 0;
  const ScenarioEvaluator counting = [&](const std::string&,
                                         const SampledScenario&) {
    ++probes;
    return FrontierEvaluation{};
  };
  const std::string named = field + ": " + std::to_string(value) + " ";
  for (const bool native : {false, true}) {
    try {
      if (native) {
        run_frontier_search(config);
      } else {
        run_frontier_search(config, counting);
      }
      ADD_FAILURE() << named << "accepted (native=" << native << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(named), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(probes, 0);
}

TEST(FrontierSearch, RejectsAxisIdsOutsideTheAxisTable) {
  FrontierSearchConfig config = tiny_config();
  config.axes = {0, 9};
  expect_rejected(config, "axes", 9);
  config.axes = {-1};
  expect_rejected(config, "axes", -1);
}

TEST(FrontierSearch, RejectsTrackClassIdsOutsideTheClassTable) {
  FrontierSearchConfig config = tiny_config();
  config.track_classes = {0, 3};
  expect_rejected(config, "track_classes", 3);
  config.track_classes = {-1};
  expect_rejected(config, "track_classes", -1);
}

TEST(FrontierSearch, RejectsVariantsOutsideTheirKeyBits) {
  FrontierSearchConfig config = tiny_config();
  config.variant = 1 << kVariantBits;
  expect_rejected(config, "variant", 1 << kVariantBits);
  config.variant = -1;
  expect_rejected(config, "variant", -1);
  // The widest variant that packs is accepted.
  config.variant = (1 << kVariantBits) - 1;
  EXPECT_EQ(run_frontier_search(config, step_oracle(0.37)).variant,
            config.variant);
}

// ---------------------------------------------------------------------------
// Probe scheduling across search lanes
// ---------------------------------------------------------------------------

/// Busy work whose length (0 to about 0.3 ms) is a pure function of the
/// scenario key, so lanes finish probes out of step without any sleep.
double key_cost(std::uint32_t index) {
  std::uint64_t x = (index + 1) * 0x9E3779B97F4A7C15ULL;
  const int rounds = static_cast<int>(x >> 56) * 1000;
  for (int r = 0; r < rounds; ++r) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// 2 localizers x 5 axes x 2 classes with per-combination thresholds: one
/// degenerate cell (CartoLite, axis 0, club), one censored cell (SynPF,
/// axis 4, narrow), and bisections of every other length class.
FrontierSearchConfig lanes_config() {
  FrontierSearchConfig config;
  config.localizers = {"SynPF", "CartoLite"};
  config.axes = {0, 1, 2, 3, 4};
  config.track_classes = {0, 1};
  config.bisect_iterations = 6;
  return config;
}

FrontierEvaluation threshold_oracle(const std::string& localizer,
                                    const SampledScenario& scenario) {
  const double threshold = (localizer == "SynPF" ? 0.45 : 0.0) +
                           0.13 * scenario.key.axis +
                           0.06 * scenario.key.track_class;
  FrontierEvaluation eval;
  eval.failed = scenario.severity >= threshold;
  eval.divergence_episodes = eval.failed ? 1 : 0;
  eval.lateral_mean_cm = 2.0 + 30.0 * scenario.severity;
  eval.final_pose_error_m = key_cost(scenario.index);
  return eval;
}

/// Counts the probes of each combination in flight and remembers every
/// overlap and the order in which the probes arrived.
class ProbeLog {
 public:
  ScenarioEvaluator evaluator() {
    return [this](const std::string& localizer,
                  const SampledScenario& scenario) {
      const std::size_t combo =
          (localizer == "SynPF" ? 0 : 32) +
          static_cast<std::size_t>(scenario.key.axis) * 3 +
          static_cast<std::size_t>(scenario.key.track_class);
      if (in_flight_[combo].fetch_add(1) != 0) overlaps_.fetch_add(1);
      {
        const std::lock_guard lock{mutex_};
        order_.emplace_back(localizer, scenario.index);
      }
      FrontierEvaluation eval = threshold_oracle(localizer, scenario);
      in_flight_[combo].fetch_sub(1);
      return eval;
    };
  }

  int overlaps() const { return overlaps_.load(); }
  const std::vector<std::pair<std::string, std::uint32_t>>& order() const {
    return order_;
  }

 private:
  std::array<std::atomic<int>, 64> in_flight_{};
  std::atomic<int> overlaps_{0};
  std::mutex mutex_;
  std::vector<std::pair<std::string, std::uint32_t>> order_;
};

TEST(FrontierSearch, ProbeSequenceIsDeterministicAndThreadInvariant) {
  std::string reference;
  for (const int lanes : {1, 2, 3, 4, 8}) {
    FrontierSearchConfig config = lanes_config();
    config.search_threads = lanes;
    ProbeLog log;
    FrontierDocument doc;
    doc.result = run_frontier_search(config, log.evaluator());
    EXPECT_EQ(log.overlaps(), 0)
        << "two probes of one combination overlapped at " << lanes
        << " lanes";
    const std::string bytes = frontier_to_json(doc).dump();
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "artifact differs at " << lanes
                                  << " lanes";
    }
  }
}

TEST(FrontierScheduling, OneLaneTakesTheShallowestProbeFirst) {
  FrontierSearchConfig config = lanes_config();
  config.search_threads = 1;
  ProbeLog log;
  const FrontierResult result = run_frontier_search(config, log.evaluator());
  const std::vector<FrontierPoint>& points = result.points;
  ASSERT_EQ(points.size(), 20u);
  ASSERT_TRUE(points[9].censored);     // SynPF/lidar_noise/narrow
  ASSERT_TRUE(points[10].degenerate);  // CartoLite/odom_slip_ramp/club

  // Depth-major: every combination's k-th probe, in combination order,
  // before any (k+1)-th probe.
  std::vector<std::pair<std::string, std::uint32_t>> expected;
  for (std::size_t depth = 0;; ++depth) {
    const std::size_t before = expected.size();
    for (const FrontierPoint& point : points) {
      if (depth < point.evaluations.size()) {
        expected.emplace_back(point.localizer, point.evaluations[depth].index);
      }
    }
    if (expected.size() == before) break;
  }
  ASSERT_EQ(log.order(), expected);

  // So the 1.0 brackets come first, then the 0.0 brackets of every point
  // that failed at 1.0, then the first bisection midpoints.
  std::size_t at = 0;
  for (; at < points.size(); ++at) {
    EXPECT_EQ(ScenarioKey::unpack(log.order()[at].second).sev_step, 1024);
  }
  for (const FrontierPoint& point : points) {
    if (point.censored) continue;
    EXPECT_EQ(ScenarioKey::unpack(log.order()[at++].second).sev_step, 0);
  }
  for (const FrontierPoint& point : points) {
    if (point.censored || point.degenerate) continue;
    EXPECT_EQ(ScenarioKey::unpack(log.order()[at++].second).sev_step, 512);
  }
}

TEST(FrontierScheduling, ThrowingProbeReachesTheCaller) {
  // The chosen scenario (CartoLite/odom_yaw_bias/narrow brackets, then
  // bisects through 0.5) throws at 1 and at 4 lanes. In the last case every
  // lane's first probe waits until all four lanes hold one, and then all
  // of them throw, so at least three throws come from worker lanes.
  const std::uint32_t poison = ScenarioKey{512, 2, 1, 0}.pack();
  for (const auto& [lanes, every_lane] :
       {std::pair{1, false}, std::pair{4, false}, std::pair{4, true}}) {
    FrontierSearchConfig config = lanes_config();
    config.search_threads = lanes;
    std::atomic<int> in_flight{0};
    std::atomic<int> calls{0};
    std::atomic<int> calls_at_throw{-1};
    const ScenarioEvaluator evaluator = [&](const std::string& localizer,
                                            const SampledScenario& scenario) {
      const int call = calls.fetch_add(1) + 1;
      in_flight.fetch_add(1);
      if (every_lane) {
        while (calls.load() < lanes) std::this_thread::yield();
      }
      if (every_lane ||
          (localizer == "CartoLite" && scenario.index == poison)) {
        calls_at_throw.store(call);
        in_flight.fetch_sub(1);
        throw std::runtime_error("probe failed: " + scenario.label());
      }
      in_flight.fetch_sub(1);
      return threshold_oracle(localizer, scenario);
    };
    const std::string where = std::to_string(lanes) + " lanes" +
                              (every_lane ? ", every lane throws" : "");
    try {
      run_frontier_search(config, evaluator);
      ADD_FAILURE() << "the probe's exception was lost at " << where;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      if (every_lane) {
        EXPECT_EQ(what.rfind("probe failed: ", 0), 0u) << what;
      } else {
        EXPECT_EQ(what, "probe failed: odom_yaw_bias/narrow#0@0.5") << where;
      }
    }
    // Every lane stopped before the rethrow; on one lane nothing was handed
    // out after the throw, and with every lane throwing nothing was handed
    // out after the first four.
    EXPECT_EQ(in_flight.load(), 0) << where;
    if (lanes == 1) {
      EXPECT_EQ(calls.load(), calls_at_throw.load());
    }
    if (every_lane) {
      EXPECT_EQ(calls.load(), lanes);
    }
  }
}

TEST(FrontierSearch, HeadlineComparesTheTwoLocalizers) {
  FrontierSearchConfig config = tiny_config();
  config.localizers = {"SynPF", "CartoLite"};
  const ScenarioEvaluator oracle = [](const std::string& localizer,
                                      const SampledScenario& scenario) {
    FrontierEvaluation eval;
    eval.failed = scenario.severity >= (localizer == "SynPF" ? 0.8 : 0.3);
    return eval;
  };
  const FrontierResult result = run_frontier_search(config, oracle);
  FrontierHeadline headline;
  ASSERT_TRUE(compute_frontier_headline(result, "odom_slip_ramp", "club",
                                        headline));
  EXPECT_FALSE(headline.synpf_censored);
  EXPECT_FALSE(headline.carto_censored);
  EXPECT_GT(headline.synpf_breaking, headline.carto_breaking);
  EXPECT_TRUE(headline.synpf_exceeds());
  // Unknown axis/class: no headline.
  EXPECT_FALSE(
      compute_frontier_headline(result, "no_such_axis", "club", headline));
}

// The defining-failure re-run journals its events into the boxes it dumps:
// each box holds the event its reason names.
TEST(FrontierSearch, DefiningFailureBoxesJournalTheirTrigger) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_frontier_trigger")
          .string();
  std::filesystem::remove_all(dir);

  FrontierSearchConfig config = FrontierSearchConfig::smoke();
  config.localizers = {"CartoLite"};
  config.axes = {0};  // odom_slip_ramp
  config.bisect_iterations = 1;
  config.blackbox_dir = dir;
  const FrontierResult result = run_frontier_search(config);
  ASSERT_EQ(result.points.size(), 1u);
  const FrontierPoint& point = result.points[0];
  ASSERT_FALSE(point.censored);
  ASSERT_FALSE(point.blackboxes.empty());

  const std::map<std::string, std::string> trigger{
      {"divergence", "experiment.divergence_open"},
      {"crash", "experiment.crash"}};
  for (const std::string& rel : point.blackboxes) {
    const std::optional<Blackbox> box = load_blackbox(dir + "/" + rel);
    ASSERT_TRUE(box.has_value()) << rel;
    ASSERT_EQ(trigger.count(box->reason), 1u) << rel << ": " << box->reason;
    EXPECT_GT(box->events_total, 0u) << rel;
    const std::string& code = trigger.at(box->reason);
    EXPECT_TRUE(std::any_of(
        box->events.begin(), box->events.end(),
        [&](const telemetry::Event& e) { return e.code == code; }))
        << rel << " lacks " << code;
  }
  std::filesystem::remove_all(dir);
}

TEST(FrontierSearch, CensoredSynPfStillExceedsABrokenCarto) {
  FrontierHeadline headline;
  headline.synpf_censored = true;
  headline.carto_breaking = 0.5;
  EXPECT_TRUE(headline.synpf_exceeds());
  // Both censored: the comparison is inconclusive, not a win.
  headline.carto_censored = true;
  EXPECT_FALSE(headline.synpf_exceeds());
}

}  // namespace
}  // namespace srl::frontier
