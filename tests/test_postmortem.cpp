#include "eval/postmortem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/frontier/frontier_search.hpp"
#include "eval/scenario_matrix.hpp"
#include "eval/stack.hpp"
#include "gridmap/track_generator.hpp"
#include "recovery/recovery_policy.hpp"
#include "telemetry/flight_recorder.hpp"

namespace srl {
namespace {

// ------------------------------------------------------ recorder unit tests

TEST(FlightRecorder, RingKeepsMostRecentWindow) {
  telemetry::FlightRecorderConfig cfg;
  cfg.window = 8;
  telemetry::FlightRecorder rec{cfg};
  for (int i = 0; i < 20; ++i) {
    telemetry::TickSnapshot snap;
    snap.tick = static_cast<std::uint64_t>(i);
    snap.t = 0.1 * i;
    snap.est_x = static_cast<double>(i);
    rec.record_tick(snap);
  }
  EXPECT_EQ(rec.ticks(), 20u);
  const std::vector<telemetry::TickSnapshot> window = rec.window();
  ASSERT_EQ(window.size(), 8u);
  // Chronological order, most recent 8 of the 20.
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].tick, 12u + i);
  }
}

TEST(FlightRecorder, EstimateHashIsOrderSensitive) {
  auto hash_of = [](std::initializer_list<double> xs) {
    telemetry::FlightRecorder rec;
    for (const double x : xs) {
      telemetry::TickSnapshot snap;
      snap.est_x = x;
      rec.record_tick(snap);
    }
    return rec.estimate_hash();
  };
  EXPECT_EQ(hash_of({1.0, 2.0}), hash_of({1.0, 2.0}));
  EXPECT_NE(hash_of({1.0, 2.0}), hash_of({2.0, 1.0}));
  EXPECT_NE(hash_of({1.0}), hash_of({1.0, 1.0}));
}

TEST(FlightRecorder, TickProbeEnrichesSnapshots) {
  telemetry::FlightRecorder rec;
  rec.set_tick_probe([](telemetry::TickSnapshot& snap) {
    snap.ess_fraction = 0.5;
    snap.digest = {1.0, 2.0, 3.0, 4.0};
  });
  rec.record_tick({});
  const auto window = rec.window();
  ASSERT_EQ(window.size(), 1u);
  EXPECT_DOUBLE_EQ(window[0].ess_fraction, 0.5);
  EXPECT_EQ(window[0].digest.size(), 4u);
}

TEST(FlightRecorder, DumpBudgetAndPaths) {
  telemetry::FlightRecorderConfig cfg;
  cfg.max_dumps = 2;
  cfg.dump_dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_budget").string();
  cfg.label = "budget";
  telemetry::FlightRecorder rec{cfg};
  EXPECT_TRUE(rec.can_dump());
  EXPECT_EQ(rec.next_dump_path("divergence"),
            cfg.dump_dir + "/budget-divergence-0.json");
  ASSERT_TRUE(rec.dump(rec.next_dump_path("divergence"), "divergence", 1.0,
                       json::Value::object()));
  ASSERT_TRUE(rec.dump(rec.next_dump_path("crash"), "crash", 2.0,
                       json::Value::object()));
  EXPECT_FALSE(rec.can_dump());
  EXPECT_EQ(rec.next_dump_path("crash"), "");
  EXPECT_EQ(rec.dump_paths().size(), 2u);
  std::filesystem::remove_all(cfg.dump_dir);
}

TEST(FlightRecorder, TraceSidecarPathSwapsExtension) {
  EXPECT_EQ(telemetry::FlightRecorder::trace_sidecar_path("a/b/run-0.json"),
            "a/b/run-0.srlt");
}

// ------------------------------------------- end-to-end postmortem pipeline

/// Every snapshot's `injection_prob` in a black box's window.
std::vector<double> injection_probs(const Blackbox& box) {
  std::vector<double> out;
  for (std::size_t i = 0; i < box.snapshots.size(); ++i) {
    out.push_back(box.snapshots.at(i)->find("injection_prob")->as_double());
  }
  return out;
}

// One supervised SynPF cell kidnapped mid-run: the divergence episode must
// dump a black box, and the black box must replay bitwise at 1 and 8
// filter lanes. This is the CI smoke for the whole record -> dump -> replay
// contract.
class PostmortemPipeline : public ::testing::Test {
 protected:
  static ScenarioMatrixConfig base_config() {
    ScenarioMatrixConfig config;
    config.localizers = {"SynPF+Recovery"};
    config.scenarios = {{"kidnap", 1.0}};
    config.n_particles = 400;
    config.experiment.laps = 1000000;  // kidnap cells run the clock out
    config.experiment.max_sim_time = 18.0;
    config.experiment.profile.scale = 0.5;
    config.kidnap_time = 6.0;
    config.track_name = "oval:8,2.5";
    return config;
  }
  static Track track() { return TrackGenerator::oval(8.0, 2.5); }
};

TEST_F(PostmortemPipeline, KidnapDumpsAndReplaysBitwise) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_e2e").string();
  std::filesystem::remove_all(dir);

  ScenarioMatrixConfig config = base_config();
  config.localizers.push_back("SynPF");  // the unsupervised twin
  config.blackbox_dir = dir;
  const ScenarioMatrix matrix{config};
  const std::vector<ScenarioCell> cells = matrix.run(track());
  ASSERT_EQ(cells.size(), 2u);
  const ScenarioCell& cell = cells[0];

  // The kidnap must have opened a divergence episode and dumped a box.
  EXPECT_GE(cell.result.divergence_episodes, 1);
  ASSERT_FALSE(cell.blackboxes.empty());
  EXPECT_GT(cell.events_total, 0u);
  EXPECT_GT(cell.events_error, 0u);  // experiment.divergence_open is error

  const std::optional<Blackbox> box = load_blackbox(cell.blackboxes.front());
  ASSERT_TRUE(box.has_value());
  EXPECT_EQ(box->reason, "divergence");
  ASSERT_TRUE(box->has_stack);
  EXPECT_EQ(box->stack.localizer, "SynPF+Recovery");
  EXPECT_EQ(box->stack.track, "oval:8,2.5");
  ASSERT_TRUE(box->has_trace);
  EXPECT_GT(box->ticks, 0u);
  EXPECT_FALSE(box->events.empty());

  // Injection pressure is the supervisor's AMCL fraction, which the policy
  // clamps to [min_injection_fraction, max_injection_fraction].
  const recovery::RecoveryPolicyConfig policy;
  const std::vector<double> supervised = injection_probs(*box);
  ASSERT_FALSE(supervised.empty());
  const auto [lo, hi] =
      std::minmax_element(supervised.begin(), supervised.end());
  EXPECT_GE(*lo, policy.min_injection_fraction);
  EXPECT_LE(*hi, policy.max_injection_fraction);
  // Without a supervisor the signal is not available: -1 on every tick.
  ASSERT_FALSE(cells[1].blackboxes.empty());
  const std::optional<Blackbox> bare =
      load_blackbox(cells[1].blackboxes.front());
  ASSERT_TRUE(bare.has_value());
  const std::vector<double> unsupervised = injection_probs(*bare);
  ASSERT_FALSE(unsupervised.empty());
  EXPECT_EQ(unsupervised, std::vector<double>(unsupervised.size(), -1.0));

  // The rendered timeline mentions the kidnap and the divergence.
  const std::string timeline = render_timeline(*box);
  EXPECT_NE(timeline.find("experiment.kidnap"), std::string::npos);
  EXPECT_NE(timeline.find("experiment.divergence_open"), std::string::npos);

  // Bitwise replay at the recorded lane count and at 8 lanes.
  const PostmortemReplay r1 = replay_blackbox(*box);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_TRUE(r1.bitwise_match) << r1.error;
  EXPECT_EQ(r1.ticks, box->ticks);
  EXPECT_EQ(r1.estimate_hash, box->estimate_hash);

  const PostmortemReplay r8 = replay_blackbox(*box, 8);
  ASSERT_TRUE(r8.ok) << r8.error;
  EXPECT_TRUE(r8.bitwise_match) << r8.error;

  std::filesystem::remove_all(dir);
}

TEST_F(PostmortemPipeline, RecorderOffIsBitwiseNoOp) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_noop").string();
  std::filesystem::remove_all(dir);

  ScenarioMatrixConfig on_cfg = base_config();
  on_cfg.blackbox_dir = dir;
  ScenarioMatrixConfig off_cfg = base_config();
  off_cfg.blackbox_dir.clear();

  const std::vector<ScenarioCell> on = ScenarioMatrix{on_cfg}.run(track());
  const std::vector<ScenarioCell> off = ScenarioMatrix{off_cfg}.run(track());
  ASSERT_EQ(on.size(), 1u);
  ASSERT_EQ(off.size(), 1u);

  // Recorder on vs off: every physics-derived metric identical to the bit.
  EXPECT_EQ(on[0].result.lateral_mean_cm, off[0].result.lateral_mean_cm);
  EXPECT_EQ(on[0].result.lateral_std_cm, off[0].result.lateral_std_cm);
  EXPECT_EQ(on[0].result.scan_alignment, off[0].result.scan_alignment);
  EXPECT_EQ(on[0].result.crashed, off[0].result.crashed);
  EXPECT_EQ(on[0].result.divergence_episodes,
            off[0].result.divergence_episodes);
  EXPECT_EQ(on[0].result.recoveries, off[0].result.recoveries);

  // The journal runs either way (events are sink-level, not recorder-level);
  // only the black-box artifacts require the recorder.
  EXPECT_EQ(on[0].events_total, off[0].events_total);
  EXPECT_EQ(off[0].blackboxes.size(), 0u);
  EXPECT_FALSE(on[0].blackboxes.empty());

  std::filesystem::remove_all(dir);
}

TEST(StackSpec, JsonRoundTrip) {
  PostmortemStackSpec spec;
  spec.track = "oval:8,2.5";
  spec.localizer = "SynPF+Recovery";
  spec.n_particles = 777;
  spec.threads = 4;
  spec.range = "lut";
  spec.beams = 42;
  spec.pf_seed = 99;
  spec.fault = "lidar_dropout";
  spec.severity = 0.5;
  spec.fault_seed = 0xabcdefULL;
  spec.governor = "enforce";
  spec.budget_ms = 1.25;

  PostmortemStackSpec back;
  ASSERT_TRUE(stack_spec_from_json(stack_spec_to_json(spec), back));
  EXPECT_EQ(back.track, spec.track);
  EXPECT_EQ(back.localizer, spec.localizer);
  EXPECT_EQ(back.n_particles, spec.n_particles);
  EXPECT_EQ(back.threads, spec.threads);
  EXPECT_EQ(back.range, spec.range);
  EXPECT_EQ(back.beams, spec.beams);
  EXPECT_EQ(back.pf_seed, spec.pf_seed);
  EXPECT_EQ(back.fault, spec.fault);
  EXPECT_EQ(back.severity, spec.severity);
  EXPECT_EQ(back.fault_seed, spec.fault_seed);
  EXPECT_EQ(back.governor, spec.governor);
  EXPECT_EQ(back.budget_ms, spec.budget_ms);

  // An ungoverned recipe omits both governor fields (pre-governor bytes)
  // and parses back to the ungoverned defaults.
  spec.governor.clear();
  const json::Value ungoverned = stack_spec_to_json(spec);
  EXPECT_EQ(ungoverned.find("governor"), nullptr);
  EXPECT_EQ(ungoverned.find("budget_ms"), nullptr);
  ASSERT_TRUE(stack_spec_from_json(ungoverned, back));
  EXPECT_EQ(back.governor, "");
  EXPECT_EQ(back.budget_ms, 0.0);
}

// ------------------------------------------------------------ stack builder

std::shared_ptr<const OccupancyGrid> oval_map() {
  return std::make_shared<const OccupancyGrid>(
      TrackGenerator::oval(8.0, 2.5).grid);
}

struct KindCase {
  std::string kind;
  bool synpf;
  bool supervisor;
  std::string governor;  ///< "" none, else the expected mode
};

class StackBuilderKinds : public ::testing::TestWithParam<KindCase> {};

TEST_P(StackBuilderKinds, ComposesTheLayersTheKindNames) {
  const KindCase& c = GetParam();
  PostmortemStackSpec spec;
  spec.localizer = c.kind;
  spec.n_particles = 300;
  const std::optional<StackKind> kind = parse_stack_kind(c.kind);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(kind->governor, c.governor);
  spec.governor = kind->governor;
  spec.budget_ms = 1.5;

  std::string error;
  const std::unique_ptr<LocalizerStack> stack =
      LocalizerStack::build(spec, oval_map(), LidarConfig{}, error);
  ASSERT_NE(stack, nullptr) << error;
  EXPECT_EQ(stack->synpf() != nullptr, c.synpf);
  EXPECT_EQ(stack->supervisor() != nullptr, c.supervisor);
  ASSERT_EQ(stack->governor() != nullptr, !c.governor.empty());

  // The outermost layer is what a harness races.
  Localizer* outermost = stack->governor();
  if (outermost == nullptr) outermost = stack->supervisor();
  if (outermost != nullptr) {
    EXPECT_EQ(&stack->top(), outermost);
  }
  if (const governor::GovernedLocalizer* gov = stack->governor()) {
    const bool shed = c.governor == "govern";
    EXPECT_EQ(gov->config().shed, shed);
    EXPECT_EQ(gov->config().adaptive, shed);
    EXPECT_EQ(gov->config().budget_ms, 1.5);
    EXPECT_EQ(gov->config().nominal_cost_units,
              governor::kCartoNominalCostUnits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmokeGrammar, StackBuilderKinds,
    ::testing::Values(KindCase{"SynPF", true, false, ""},
                      KindCase{"CartoLite", false, false, ""},
                      KindCase{"SynPF+Recovery", true, true, ""},
                      KindCase{"SynPF+Governor", true, false, "govern"},
                      KindCase{"SynPF+Budget", true, false, "enforce"},
                      KindCase{"CartoLite+Budget", false, false, "enforce"}),
    [](const ::testing::TestParamInfo<KindCase>& info) {
      std::string name = info.param.kind;
      for (char& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name;
    });

std::string build_error(const PostmortemStackSpec& spec) {
  std::string error;
  const std::unique_ptr<LocalizerStack> stack =
      LocalizerStack::build(spec, oval_map(), LidarConfig{}, error);
  EXPECT_EQ(stack, nullptr);
  return error;
}

TEST(StackBuilder, RejectsUnknownKind) {
  PostmortemStackSpec spec;
  spec.localizer = "SynPf+Recovery";
  EXPECT_EQ(build_error(spec), "unknown localizer kind: SynPf+Recovery");
}

TEST(StackBuilder, RejectsUnknownRange) {
  PostmortemStackSpec spec;
  spec.range = "raymarching";
  EXPECT_EQ(build_error(spec), "unknown range backend: raymarching");
}

TEST(StackBuilder, RejectsUnknownFault) {
  PostmortemStackSpec spec;
  spec.fault = "lidar_dropuot";
  spec.severity = 0.5;
  EXPECT_EQ(build_error(spec), "unknown fault: lidar_dropuot");
}

// A count out of range fails the build naming the field; above the caps an
// edited recipe would otherwise abort in the allocator. The caps build.
TEST(StackBuilder, RejectsParticleOrBeamCountsOutOfRange) {
  PostmortemStackSpec spec;
  spec.n_particles = 0;
  EXPECT_EQ(build_error(spec), "n_particles must be at least 1");
  spec.n_particles = 2000000000;
  EXPECT_EQ(build_error(spec), "n_particles must be at most 100000");
  spec.n_particles = kMaxStackParticles;
  spec.beams = 0;
  EXPECT_EQ(build_error(spec), "beams must be at least 1");
  spec.beams = LidarConfig{}.n_beams + 1;
  EXPECT_EQ(build_error(spec), "beams must be at most the LiDAR's 1081");
  spec.beams = LidarConfig{}.n_beams;
  std::string error;
  EXPECT_NE(LocalizerStack::build(spec, oval_map(), LidarConfig{}, error),
            nullptr)
      << error;
}

TEST(StackBuilder, RejectsUnknownOrContradictedGovernor) {
  PostmortemStackSpec spec;
  spec.governor = "shed";
  EXPECT_EQ(build_error(spec), "unknown governor mode: shed");
  spec.localizer = "SynPF+Governor";
  spec.governor = "enforce";
  EXPECT_FALSE(build_error(spec).empty());
}

TEST(StackBuilder, MatrixZeroesAMisspelledFaultCell) {
  ScenarioMatrixConfig config;
  config.localizers = {"SynPF"};
  config.scenarios = {{"lidar_dropuot", 0.5}};
  const std::vector<ScenarioCell> cells =
      ScenarioMatrix{config}.run(TrackGenerator::oval(8.0, 2.5));
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].result.sim_time, 0.0);
  EXPECT_TRUE(cells[0].result.lap_times.empty());
  EXPECT_EQ(cells[0].events_total, 0u);
}

TEST(StackBuilder, FrontierFailsEveryProbeOfAnUnknownKind) {
  auto config = frontier::FrontierSearchConfig::smoke();
  config.localizers = {"SynPF+Typo"};
  config.axes = {0};
  config.search_threads = 1;
  const auto result = frontier::run_frontier_search(config);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points[0].degenerate);
  for (const auto& eval : result.points[0].evaluations) {
    EXPECT_TRUE(eval.failed);
    EXPECT_EQ(eval.lateral_mean_cm, 0.0);
  }
}

// A governed CartoLite has no filter to bind, so its budget is the pinned
// nominal cost. Every black box the compute-pressure frontier dumps for it
// must replay bitwise at the recorded lane count and at 8 lanes.
TEST(StackBuilder, CartoComputePressureFrontierBoxesReplayBitwise) {
  const std::string dir =
      (std::filesystem::path{::testing::TempDir()} / "srl_bb_carto_cp")
          .string();
  std::filesystem::remove_all(dir);

  auto config = frontier::FrontierSearchConfig::smoke();
  config.localizers = {"CartoLite"};
  config.axes = {8};  // compute_pressure
  config.bisect_iterations = 1;
  config.blackbox_dir = dir;
  const auto result = frontier::run_frontier_search(config);
  ASSERT_EQ(result.points.size(), 1u);
  const frontier::FrontierPoint& point = result.points[0];
  ASSERT_FALSE(point.censored);
  ASSERT_FALSE(point.blackboxes.empty());

  for (const std::string& rel : point.blackboxes) {
    const std::optional<Blackbox> box = load_blackbox(dir + "/" + rel);
    ASSERT_TRUE(box.has_value()) << rel;
    EXPECT_EQ(box->stack.governor, "enforce");
    const PostmortemReplay recorded = replay_blackbox(*box);
    ASSERT_TRUE(recorded.ok) << recorded.error;
    EXPECT_TRUE(recorded.bitwise_match) << rel << ": " << recorded.error;
    const PostmortemReplay lanes8 = replay_blackbox(*box, 8);
    ASSERT_TRUE(lanes8.ok) << lanes8.error;
    EXPECT_TRUE(lanes8.bitwise_match) << rel << ": " << lanes8.error;
  }
  std::filesystem::remove_all(dir);
}

// An edited oval recipe out of (0, kMaxOvalRecipeM] fails the replay as an
// unknown track recipe, before any track is built: an infinite or huge
// size once aborted in the allocator, and one that overflows the
// generator's int cell count is undefined behaviour (the san preset traps
// it). KidnapDumpsAndReplaysBitwise replays an in-range "oval:8,2.5" box.
class OvalRecipeOutOfRange : public ::testing::TestWithParam<const char*> {};

TEST_P(OvalRecipeOutOfRange, FailsTheReplayNamingTheRecipe) {
  Blackbox box;
  box.has_stack = true;
  box.has_trace = true;
  box.stack.track = GetParam();
  const PostmortemReplay replay = replay_blackbox(box);
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.error, std::string{"unknown track recipe: "} + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Blackbox, OvalRecipeOutOfRange,
                         ::testing::Values("oval:inf,2.5", "oval:1e7,2.5",
                                           "oval:8,1e300", "oval:8,inf"));

TEST(Blackbox, LoadRejectsWrongSchemaAndMissingFile) {
  EXPECT_FALSE(load_blackbox("/nonexistent/srl/box.json").has_value());
  const std::string path =
      (std::filesystem::path{::testing::TempDir()} / "srl_bad_schema.json")
          .string();
  json::Value v = json::Value::object();
  v.set("schema", json::Value::string("srl.other/9"));
  ASSERT_TRUE(v.save(path));
  std::string error;
  EXPECT_FALSE(load_blackbox(path, &error).has_value());
  EXPECT_EQ(error, "schema is not srl.blackbox/1");
  std::remove(path.c_str());
}

// ---------------------------------------------------------- untrusted boxes

// The untrusted-box cases write their scratch files into the working
// directory, like TraceFuzz: each build tree runs its tests in its own.
constexpr const char* kScratchBox = "blackbox_fuzz_tmp.json";

/// A small black box as the flight recorder writes it: the default stack
/// recipe, a sim seed, two snapshots and one event, no trace sidecar.
std::string small_box_text() {
  telemetry::EventLog events;
  events.emit(0.5, telemetry::EventSeverity::kWarn,
              telemetry::EventCategory::kExperiment, "experiment.kidnap",
              json::Value::object());
  telemetry::FlightRecorderConfig cfg;
  cfg.dump_dir = ".";
  cfg.label = "blackbox_fuzz_small";
  telemetry::FlightRecorder recorder{cfg, &events};
  json::Value provenance = json::Value::object();
  provenance.set("stack", stack_spec_to_json(PostmortemStackSpec{}));
  recorder.set_provenance(provenance);
  for (int i = 0; i < 2; ++i) {
    telemetry::TickSnapshot snap;
    snap.tick = static_cast<std::uint64_t>(i);
    snap.t = 0.025 * i;
    snap.est_x = 1.0 + i;
    recorder.record_tick(snap);
  }
  json::Value extra = json::Value::object();
  extra.set("sim_seed", json::Value::number(1234.0));
  const std::string path = recorder.next_dump_path("test");
  EXPECT_TRUE(recorder.dump(path, "test", 0.05, extra));
  std::ifstream in{path, std::ios::binary};
  std::string text{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  std::remove(path.c_str());
  return text;
}

/// Load `text` as a black-box file; `error` receives the loader's reason.
std::optional<Blackbox> load_box_text(const std::string& text,
                                      std::string* error = nullptr) {
  {
    std::ofstream out{kScratchBox, std::ios::binary | std::ios::trunc};
    out << text;
  }
  return load_blackbox(kScratchBox, error);
}

/// `text` with the value of its one member named `key` replaced by
/// `value` (a JSON literal).
std::string with_value(std::string text, const std::string& key,
                       const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = text.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  EXPECT_EQ(text.find(tag, at + 1), std::string::npos) << key;
  const std::size_t begin = at + tag.size();
  text.replace(begin, text.find_first_of(",\n}", begin) - begin, value);
  return text;
}

// A count or seed that its field cannot hold fails the load and names the
// field: casting such a double to an integer is undefined behaviour.
TEST(Blackbox, LoadRejectsCountsAndSeedsOutOfRange) {
  const std::string text = small_box_text();
  ASSERT_TRUE(load_box_text(text).has_value());

  const std::vector<std::pair<std::string, std::string>> fields{
      {"n_particles", "provenance.stack.n_particles"},
      {"threads", "provenance.stack.threads"},
      {"beams", "provenance.stack.beams"},
      {"pf_seed", "provenance.stack.pf_seed"},
      {"fault_seed", "provenance.stack.fault_seed"},
      {"ticks", "ticks"},
      {"sim_seed", "sim_seed"},
      {"events_total", "events_total"},
      {"events_dropped", "events_dropped"},
      {"seq", "events[0].seq"}};
  for (const auto& [key, name] : fields) {
    for (const char* bad : {"-1", "0.5", "1e30", "18446744073709551616"}) {
      std::string error;
      EXPECT_FALSE(
          load_box_text(with_value(text, key, bad), &error).has_value())
          << name << " = " << bad;
      EXPECT_EQ(error, name + ": not a whole number in range");
    }
  }
  // An int field also rejects what fits 64 bits but not an int.
  std::string error;
  EXPECT_FALSE(load_box_text(with_value(text, "n_particles", "3e9"), &error)
                   .has_value());
  EXPECT_EQ(error, "provenance.stack.n_particles: not a whole number in range");
  std::remove(kScratchBox);
}

/// The loader's damaged-file corpus (as TraceFuzz is for traces): a small
/// dumped box, truncated at every byte offset and with every single-bit
/// flip, must load as std::nullopt or as a box and never crash (the san
/// preset runs it under ASan and UBSan, float-cast-overflow included).
TEST(BlackboxFuzz, TruncatedAndBitFlippedBoxesNeverCrashTheLoader) {
  const std::string text = small_box_text();
  const std::optional<Blackbox> whole = load_box_text(text);
  ASSERT_TRUE(whole.has_value());
  EXPECT_TRUE(whole->has_stack);
  EXPECT_EQ(whole->ticks, 2U);
  EXPECT_EQ(whole->events.size(), 1U);

  // Every truncation short of the trailing newline cuts off the closing
  // brace, so none of them parses.
  ASSERT_EQ(text.back(), '\n');
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    EXPECT_FALSE(load_box_text(text.substr(0, len)).has_value())
        << "truncated at " << len;
  }

  std::size_t loaded = 0;
  for (std::size_t byte = 0; byte < text.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      const std::optional<Blackbox> box = load_box_text(flipped);
      if (!box.has_value()) continue;
      ++loaded;
      EXPECT_FALSE(render_timeline(*box).empty());
    }
  }
  // Flips inside values and whitespace still load; flips in the schema,
  // the braces and the counts' digits into non-digits are rejected.
  EXPECT_GT(loaded, 0U);
  EXPECT_LT(loaded, text.size() * 8);
  std::remove(kScratchBox);
}

}  // namespace
}  // namespace srl
