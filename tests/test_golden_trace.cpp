/// Golden-trace regression wall for the single-threaded SynPF path.
///
/// A short oval lap was recorded once (DeadReckoning driver, so the sensor
/// stream is independent of any filter) and committed under tests/data/
/// together with the hexfloat-exact pose estimates SynPF produced on it.
/// This test replays the committed trace and demands *bitwise* identical
/// estimates and accuracy metrics: any numeric drift in the motion model,
/// beam model, raycaster, resampler, RNG stream schedule, or reduction
/// order fails loudly here instead of silently shifting benchmark tables.
///
/// Regenerating (only after an *intentional* numeric change):
///
///     SRL_REGEN_GOLDEN=1 ./build/tests/test_golden_trace
///
/// then commit the rewritten files with a note on what moved and why.
///
/// Portability: the golden bits pin one platform family. mt19937_64 output
/// is standard-specified, but libstdc++'s distributions and libm's
/// transcendentals are implementation-defined, so a different stdlib may
/// legitimately produce different bits — regenerate there rather than
/// loosening the comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv1a.hpp"
#include "core/synpf.hpp"
#include "eval/benchmark_json.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/experiment.hpp"
#include "eval/frontier/frontier_json.hpp"
#include "eval/frontier/frontier_search.hpp"
#include "eval/scenario_matrix.hpp"
#include "eval/stack.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"
#include "range/range_method.hpp"
#include "slam/pure_localization.hpp"

#ifndef SRL_TEST_DATA_DIR
#define SRL_TEST_DATA_DIR "tests/data"
#endif

namespace srl {
namespace {

const char* kTracePath = SRL_TEST_DATA_DIR "/golden_oval.srlt";
const char* kEstimatesPath = SRL_TEST_DATA_DIR "/golden_oval_estimates.txt";
const char* kCartoEstimatesPath =
    SRL_TEST_DATA_DIR "/golden_oval_carto_estimates.txt";
const char* kClosedLoopPath = SRL_TEST_DATA_DIR "/golden_oval_closed_loop.txt";
const char* kMatrixRowsPath = SRL_TEST_DATA_DIR "/golden_matrix_rows.txt";
const char* kFrontierPath = SRL_TEST_DATA_DIR "/golden_frontier.txt";

/// The pinned scenario. Every knob that feeds the numeric path is spelled
/// out here; changing any of them is a golden regeneration event.
Track golden_track() { return TrackGenerator::oval(8.0, 2.5); }

SynPfConfig golden_config() {
  SynPfConfig cfg;
  cfg.filter.n_particles = 400;
  cfg.filter.n_threads = 1;  // the golden path is the exact serial path
  return cfg;
}

SensorTrace record_golden_trace() {
  ExperimentConfig cfg;
  cfg.laps = 1;
  cfg.max_sim_time = 6.0;  // ~240 scans: enough updates to cover several
                           // resample events, small enough to commit
  cfg.profile.scale = 0.5;
  const Track track = golden_track();
  ExperimentRunner runner{track, cfg};
  DeadReckoning driver;
  SensorTrace trace;
  runner.run(driver, &trace);
  return trace;
}

bool regen_requested() {
  const char* env = std::getenv("SRL_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Hexfloat serialization round-trips doubles exactly (%a / strtod are
/// bit-faithful), which keeps the golden file human-diffable yet bitwise.
void write_estimates(const SensorTrace::ReplayResult& r, const char* path) {
  std::ofstream os{path};
  ASSERT_TRUE(os.good()) << "cannot write " << path;
  os << "golden-trace v1 " << r.estimates.size() << "\n" << std::hexfloat;
  for (const Pose2& p : r.estimates) {
    os << p.x << ' ' << p.y << ' ' << p.theta << "\n";
  }
  os << "rmse " << r.pose_rmse_m << ' ' << r.heading_rmse_rad << "\n";
  ASSERT_TRUE(os.good());
}

double parse_hex_double(std::istream& is) {
  std::string token;
  is >> token;
  EXPECT_FALSE(token.empty()) << "truncated golden estimates file";
  return std::strtod(token.c_str(), nullptr);
}

struct GoldenEstimates {
  std::vector<Pose2> estimates;
  double pose_rmse_m{0.0};
  double heading_rmse_rad{0.0};
};

GoldenEstimates read_estimates(const char* path) {
  GoldenEstimates g;
  std::ifstream is{path};
  EXPECT_TRUE(is.good()) << "missing " << path
                         << " — regenerate with SRL_REGEN_GOLDEN=1";
  std::string word;
  std::size_t count = 0;
  is >> word;  // "golden-trace"
  is >> word;  // "v1"
  EXPECT_EQ(word, "v1");
  is >> count;
  g.estimates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Pose2 p;
    p.x = parse_hex_double(is);
    p.y = parse_hex_double(is);
    p.theta = parse_hex_double(is);
    g.estimates.push_back(p);
  }
  is >> word;  // "rmse"
  EXPECT_EQ(word, "rmse");
  g.pose_rmse_m = parse_hex_double(is);
  g.heading_rmse_rad = parse_hex_double(is);
  return g;
}

std::string read_bytes(const char* path) {
  std::ifstream is{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{is}, std::istreambuf_iterator<char>{}};
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(GoldenTrace, SingleThreadedReplayMatchesCommittedBits) {
  if (regen_requested()) {
    const SensorTrace trace = record_golden_trace();
    ASSERT_FALSE(trace.scans().empty());
    ASSERT_TRUE(trace.save(kTracePath)) << "cannot write " << kTracePath;
    const Track track = golden_track();
    auto map = std::make_shared<const OccupancyGrid>(track.grid);
    SynPf pf{golden_config(), map, LidarConfig{}};
    const auto result = trace.replay(pf);
    write_estimates(result, kEstimatesPath);
    std::printf("regenerated %s and %s (%zu estimates, rmse %.4f m)\n",
                kTracePath, kEstimatesPath, result.estimates.size(),
                result.pose_rmse_m);
    return;
  }

  const auto trace = SensorTrace::load(kTracePath);
  ASSERT_TRUE(trace.has_value())
      << "missing/corrupt " << kTracePath
      << " — regenerate with SRL_REGEN_GOLDEN=1";
  ASSERT_FALSE(trace->scans().empty());
  const GoldenEstimates golden = read_estimates(kEstimatesPath);
  ASSERT_EQ(golden.estimates.size(), trace->scans().size());

  const Track track = golden_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  SynPf pf{golden_config(), map, LidarConfig{}};
  const auto result = trace->replay(pf);

  ASSERT_EQ(result.estimates.size(), golden.estimates.size());
  for (std::size_t i = 0; i < golden.estimates.size(); ++i) {
    const Pose2& got = result.estimates[i];
    const Pose2& want = golden.estimates[i];
    ASSERT_TRUE(bits_equal(got.x, want.x) && bits_equal(got.y, want.y) &&
                bits_equal(got.theta, want.theta))
        << "estimate " << i << " drifted: got (" << std::hexfloat << got.x
        << ", " << got.y << ", " << got.theta << ") want (" << want.x << ", "
        << want.y << ", " << want.theta << ")";
  }
  EXPECT_TRUE(bits_equal(result.pose_rmse_m, golden.pose_rmse_m))
      << std::hexfloat << result.pose_rmse_m << " vs " << golden.pose_rmse_m;
  EXPECT_TRUE(bits_equal(result.heading_rmse_rad, golden.heading_rmse_rad))
      << std::hexfloat << result.heading_rmse_rad << " vs "
      << golden.heading_rmse_rad;
}

/// Same wall for the scan-matching path: CartoLite (pure localization) on
/// the *same* committed oval trace. SynPF's wall cannot see drift in the
/// probability-grid interpolation, the Ceres-free Gauss-Newton matcher, or
/// the submap machinery — this one does. Regenerates alongside the SynPF
/// fixture under SRL_REGEN_GOLDEN=1 (the shared trace is only rewritten by
/// the SynPF test, so both fixtures always describe one stream).
TEST(GoldenTrace, CartoLiteReplayMatchesCommittedBits) {
  const auto trace = SensorTrace::load(kTracePath);
  ASSERT_TRUE(trace.has_value())
      << "missing/corrupt " << kTracePath
      << " — regenerate with SRL_REGEN_GOLDEN=1";
  ASSERT_FALSE(trace->scans().empty());
  const Track track = golden_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);

  CartoLocalizer carto{PureLocalizationOptions{}, map, LidarConfig{}};
  const auto result = trace->replay(carto);

  if (regen_requested()) {
    write_estimates(result, kCartoEstimatesPath);
    std::printf("regenerated %s (%zu estimates, rmse %.4f m)\n",
                kCartoEstimatesPath, result.estimates.size(),
                result.pose_rmse_m);
    return;
  }

  const GoldenEstimates golden = read_estimates(kCartoEstimatesPath);
  ASSERT_EQ(result.estimates.size(), golden.estimates.size());
  for (std::size_t i = 0; i < golden.estimates.size(); ++i) {
    const Pose2& got = result.estimates[i];
    const Pose2& want = golden.estimates[i];
    ASSERT_TRUE(bits_equal(got.x, want.x) && bits_equal(got.y, want.y) &&
                bits_equal(got.theta, want.theta))
        << "estimate " << i << " drifted: got (" << std::hexfloat << got.x
        << ", " << got.y << ", " << got.theta << ") want (" << want.x << ", "
        << want.y << ", " << want.theta << ")";
  }
  EXPECT_TRUE(bits_equal(result.pose_rmse_m, golden.pose_rmse_m))
      << std::hexfloat << result.pose_rmse_m << " vs " << golden.pose_rmse_m;
  EXPECT_TRUE(bits_equal(result.heading_rmse_rad, golden.heading_rmse_rad))
      << std::hexfloat << result.heading_rmse_rad << " vs "
      << golden.heading_rmse_rad;
}

/// Feed the trace into several localizers in lockstep: each odometry
/// increment to every localizer in turn, then each scan. Returns the
/// estimates per localizer.
std::vector<std::vector<Pose2>> replay_interleaved(
    const SensorTrace& trace, const std::vector<Localizer*>& users) {
  std::vector<std::vector<Pose2>> estimates(users.size());
  for (Localizer* l : users) l->initialize(trace.scans().front().truth);
  std::size_t oi = 0;
  for (const SensorTrace::ScanRecord& rec : trace.scans()) {
    for (; oi < trace.odometry().size() &&
           trace.odometry()[oi].t <= rec.scan.t;
         ++oi) {
      for (Localizer* l : users) l->on_odometry(trace.odometry()[oi].odom);
    }
    for (std::size_t u = 0; u < users.size(); ++u) {
      estimates[u].push_back(users[u]->on_scan(rec.scan));
    }
  }
  return estimates;
}

void expect_bits_equal(const std::vector<Pose2>& got,
                       const std::vector<Pose2>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(bits_equal(got[i].x, want[i].x) &&
                bits_equal(got[i].y, want[i].y) &&
                bits_equal(got[i].theta, want[i].theta))
        << what << ": estimate " << i << " differs from the lone replay";
  }
}

/// Two users of one shared table, stepped alternately through the golden
/// lap, land on the bits of a lone instance: SynPF pairs on the LUT and on
/// CDDT (one range backend each, from MapAssets) and a CartoLite pair (one
/// likelihood field). The lone replay runs first and dies with its table,
/// so the pair's table is a fresh build.
TEST(GoldenTrace, InterleavedUsersOfOneTableMatchALoneReplay) {
  if (regen_requested()) GTEST_SKIP() << "regeneration run";
  const auto trace = SensorTrace::load(kTracePath);
  ASSERT_TRUE(trace.has_value()) << "missing/corrupt " << kTracePath;
  const Track track = golden_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  const LidarConfig lidar;

  for (const RangeMethodKind kind :
       {RangeMethodKind::kLut, RangeMethodKind::kCddt}) {
    SynPfConfig cfg = golden_config();
    cfg.range = kind;
    const std::vector<Pose2> lone = [&] {
      SynPf pf{cfg, map, lidar};
      return trace->replay(pf).estimates;
    }();
    SynPf first{cfg, map, lidar};
    SynPf second{cfg, std::make_shared<const OccupancyGrid>(track.grid),
                 lidar};
    RangeMethodOptions options = cfg.range_options;
    options.max_range = lidar.max_range;
    // The two filters and this request hold the one table.
    EXPECT_EQ(shared_range_method(kind, map, options).use_count(), 3)
        << to_string(kind);
    const auto both = replay_interleaved(*trace, {&first, &second});
    expect_bits_equal(both[0], lone, to_string(kind).c_str());
    expect_bits_equal(both[1], lone, to_string(kind).c_str());
  }

  const std::vector<Pose2> lone = [&] {
    CartoLocalizer carto{PureLocalizationOptions{}, map, lidar};
    return trace->replay(carto).estimates;
  }();
  CartoLocalizer first{PureLocalizationOptions{}, map, lidar};
  CartoLocalizer second{PureLocalizationOptions{}, map, lidar};
  EXPECT_EQ(&first.field(), &second.field());
  const auto both = replay_interleaved(*trace, {&first, &second});
  expect_bits_equal(both[0], lone, "cartolite");
  expect_bits_equal(both[1], lone, "cartolite");
}

/// The simulator's own bits: recording the golden lap again must write the
/// committed file byte for byte. The replay tests above read that file, so
/// without this one nothing fails when the truth cast, the vehicle model or
/// the sensor noise stream moves.
TEST(GoldenTrace, RecordingReproducesCommittedTrace) {
  if (regen_requested()) GTEST_SKIP() << "regeneration run";
  const std::string path =
      ::testing::TempDir() + "golden_oval_rerecorded.srlt";
  ASSERT_TRUE(record_golden_trace().save(path)) << "cannot write " << path;
  const std::string recorded = read_bytes(path.c_str());
  std::remove(path.c_str());
  const std::string committed = read_bytes(kTracePath);
  ASSERT_FALSE(committed.empty()) << "missing " << kTracePath;
  ASSERT_EQ(recorded.size(), committed.size());
  const auto diverge = std::mismatch(recorded.begin(), recorded.end(),
                                     committed.begin());
  EXPECT_TRUE(diverge.first == recorded.end())
      << "re-recorded trace differs from " << kTracePath << " at byte "
      << (diverge.first - recorded.begin());
}

/// Every deterministic field of a closed-loop result (the set the e2e
/// fingerprint folds), the dumped box count, and the flight recorder's tick
/// count and estimate hash: one named line each, doubles in hexfloat.
std::vector<std::string> closed_loop_lines(
    const ExperimentResult& r, const telemetry::FlightRecorder& recorder) {
  std::ostringstream os;
  os << "golden-closed-loop v1\n" << std::hexfloat;
  const auto list = [&](const char* name, const std::vector<double>& values) {
    os << name << ' ' << values.size();
    for (const double v : values) os << ' ' << v;
    os << '\n';
  };
  list("lap_times", r.lap_times);
  list("lap_lateral_mean_cm", r.lap_lateral_mean_cm);
  list("time_to_relocalize_s", r.time_to_relocalize_s);
  const std::pair<const char*, double> scalars[] = {
      {"lap_time_mean", r.lap_time_mean},
      {"lap_time_std", r.lap_time_std},
      {"lateral_mean_cm", r.lateral_mean_cm},
      {"lateral_std_cm", r.lateral_std_cm},
      {"scan_alignment", r.scan_alignment},
      {"pose_rmse_m", r.pose_rmse_m},
      {"pose_lat_rmse_m", r.pose_lat_rmse_m},
      {"pose_long_rmse_m", r.pose_long_rmse_m},
      {"heading_rmse_rad", r.heading_rmse_rad},
      {"mean_abs_slip", r.mean_abs_slip},
      {"odom_drift_m_per_lap", r.odom_drift_m_per_lap},
      {"sim_time", r.sim_time},
      {"time_to_relocalize_mean_s", r.time_to_relocalize_mean_s},
      {"time_to_relocalize_max_s", r.time_to_relocalize_max_s},
      {"post_divergence_lateral_cm", r.post_divergence_lateral_cm},
      {"post_recovery_lateral_cm", r.post_recovery_lateral_cm},
      {"final_pose_error_m", r.final_pose_error_m}};
  for (const auto& [name, value] : scalars) os << name << ' ' << value << '\n';
  os << "crashed " << r.crashed << "\ncompleted " << r.completed
     << "\nrecovered " << r.recovered << "\nkidnaps_applied "
     << r.kidnaps_applied << "\ndivergence_episodes " << r.divergence_episodes
     << "\nrecoveries " << r.recoveries << "\nblackboxes "
     << recorder.dump_paths().size() << "\nrecorder_ticks "
     << recorder.ticks() << "\nrecorder_estimate_hash " << std::hex
     << recorder.estimate_hash() << '\n';
  std::vector<std::string> lines;
  std::istringstream is{os.str()};
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// A short SynPF+Recovery race on the golden oval, built by the stack
/// builder, kidnapped at 8 s, with an event log and a flight recorder
/// attached: the estimate steers the car, so every layer of the tick feeds
/// the next lap's bits.
std::vector<std::string> race_closed_loop(int threads) {
  const Track track = golden_track();
  PostmortemStackSpec spec;
  spec.track = "oval:8,2.5";
  spec.localizer = "SynPF+Recovery";
  spec.n_particles = 800;
  spec.threads = threads;
  std::string error;
  const std::unique_ptr<LocalizerStack> stack = LocalizerStack::build(
      spec, std::make_shared<const OccupancyGrid>(track.grid), LidarConfig{},
      error);
  if (stack == nullptr) {
    ADD_FAILURE() << error;
    return {};
  }
  ExperimentConfig cfg;
  cfg.laps = 1000000;  // run the clock out, as the matrix's kidnap cells do
  cfg.max_sim_time = 25.0;
  cfg.profile.scale = 0.5;
  cfg.kidnaps.push_back({8.0, 0.25, 0.0, 0.0});

  const std::string dir =
      ::testing::TempDir() + "srl_golden_closed_loop_" + std::to_string(threads);
  std::filesystem::remove_all(dir);
  telemetry::EventLog events;
  const auto recorder = stack->make_recorder({dir, "golden"}, &events);
  telemetry::Sink sink;
  sink.events = &events;
  sink.recorder = recorder.get();
  const ExperimentResult result =
      ExperimentRunner{track, cfg}.run(stack->top(), nullptr, sink);
  std::filesystem::remove_all(dir);
  return closed_loop_lines(result, *recorder);
}

/// The closed loop's own bits. The replay walls above drive a fixed stream
/// and the recording wall drives a dead reckoner, so neither sees a change
/// that moves the estimate the controller steers from. This one races the
/// full tick (vehicle, crash check, kidnap, odometry, truth scan, localize,
/// scoring, control, lap timing) at 1 and 4 filter lanes against one file.
TEST(GoldenTrace, ClosedLoopResultMatchesCommittedBits) {
  if (regen_requested()) {
    const std::vector<std::string> lines = race_closed_loop(1);
    std::ofstream os{kClosedLoopPath};
    ASSERT_TRUE(os.good()) << "cannot write " << kClosedLoopPath;
    for (const std::string& line : lines) os << line << '\n';
    std::printf("regenerated %s\n", kClosedLoopPath);
    return;
  }
  std::vector<std::string> golden;
  std::ifstream is{kClosedLoopPath};
  for (std::string line; std::getline(is, line);) golden.push_back(line);
  ASSERT_FALSE(golden.empty()) << "missing " << kClosedLoopPath
                               << " — regenerate with SRL_REGEN_GOLDEN=1";
  for (const int threads : {1, 4}) {
    const std::vector<std::string> got = race_closed_loop(threads);
    ASSERT_EQ(got.size(), golden.size()) << threads << " lanes";
    for (std::size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(got[i], golden[i]) << threads << " lanes";
    }
  }
}

/// Under SRL_REGEN_GOLDEN=1 writes `lines` to `path`; otherwise demands
/// they equal the committed file line for line.
void expect_lines_match(const char* path, const std::vector<std::string>& lines) {
  if (regen_requested()) {
    std::ofstream os{path};
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    for (const std::string& line : lines) os << line << '\n';
    std::printf("regenerated %s\n", path);
    return;
  }
  std::vector<std::string> golden;
  std::ifstream is{path};
  for (std::string line; std::getline(is, line);) golden.push_back(line);
  ASSERT_FALSE(golden.empty()) << "missing " << path
                               << " — regenerate with SRL_REGEN_GOLDEN=1";
  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "line " << i + 1 << " of " << path;
  }
}

/// "<prefix> <path> <fnv1a>" for every file under `dir`, sorted by path
/// relative to `dir`: the black boxes and their trace sidecars, byte for
/// byte.
void append_file_hashes(const std::string& prefix, const std::string& dir,
                        std::vector<std::string>& lines) {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator{dir}) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().lexically_relative(dir).string());
    }
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string bytes = read_bytes((dir + "/" + name).c_str());
    std::ostringstream os;
    os << prefix << ' ' << name << ' ' << std::hex
       << fnv1a_bytes(kFnv1aOffset, bytes.data(), bytes.size());
    lines.push_back(os.str());
  }
}

/// Strip `dir`'s prefix from each path: the pins must not depend on where
/// the temporary dump directory lives.
void make_relative(const std::string& dir, std::vector<std::string>& paths) {
  for (std::string& path : paths) {
    if (path.rfind(dir + "/", 0) == 0) path.erase(0, dir.size() + 1);
  }
}

/// A short recorded matrix on the golden oval: the five localizer kinds of
/// the smoke grid under the clean baseline and one fault of each family
/// (odometry, kidnap, sensor blackout, compute pressure), at full severity.
std::vector<std::string> matrix_rows_lines() {
  const std::string dir = ::testing::TempDir() + "srl_golden_matrix_rows";
  std::filesystem::remove_all(dir);
  ScenarioMatrixConfig config;
  config.localizers = {"SynPF", "CartoLite", "SynPF+Recovery",
                       "SynPF+Governor", "SynPF+Budget"};
  config.scenarios = {{"none", 0.0},
                      {"odom_slip_ramp", 1.0},
                      {"kidnap", 1.0},
                      {"blackout", 1.0},
                      {"compute_pressure", 1.0}};
  config.experiment.laps = 1;
  config.experiment.max_sim_time = 10.0;
  config.experiment.profile.scale = 0.5;
  config.n_particles = 300;
  config.kidnap_time = 4.0;
  config.blackbox_dir = dir;
  config.track_name = "oval:8,2.5";
  std::vector<std::string> lines{"golden-matrix-rows v1"};
  for (ScenarioCell cell : ScenarioMatrix{config}.run(golden_track())) {
    make_relative(dir, cell.blackboxes);
    const json::Value full = cell_to_json(cell);
    json::Value row = json::Value::object();
    for (const auto& [name, value] : full.members()) {
      if (name != "timing") row.set(name, value);  // wall clock
    }
    lines.push_back("row " + row.dump(0));
  }
  append_file_hashes("box", dir, lines);
  std::filesystem::remove_all(dir);
  return lines;
}

/// Every matrix row's deterministic fields and every dumped black box and
/// sidecar, byte for byte: the matrix's own bits, beyond the comparisons
/// between its runs at different lane counts.
TEST(GoldenTrace, MatrixRowsMatchCommittedBits) {
  expect_lines_match(kMatrixRowsPath, matrix_rows_lines());
}

/// A real closed-loop frontier search with black boxes: SynPF and CartoLite
/// on the club class along the slip and compute-pressure axes, one
/// bisection, short runs.
std::vector<std::string> frontier_lines() {
  const std::string dir = ::testing::TempDir() + "srl_golden_frontier";
  std::filesystem::remove_all(dir);
  frontier::FrontierSearchConfig config;
  config.localizers = {"SynPF", "CartoLite"};
  config.axes = {0, 8};  // odom_slip_ramp, compute_pressure
  config.track_classes = {0};
  config.bisect_iterations = 1;
  config.n_particles = 300;
  config.experiment.laps = 1;
  config.experiment.max_sim_time = 10.0;
  config.blackbox_dir = dir;
  frontier::FrontierDocument doc;
  doc.result = frontier::run_frontier_search(config);
  std::vector<std::string> lines{"golden-frontier v1",
                                 "artifact " + frontier_to_json(doc).dump(0)};
  append_file_hashes("box", dir, lines);
  std::filesystem::remove_all(dir);
  return lines;
}

TEST(GoldenTrace, FrontierSearchMatchesCommittedBits) {
  expect_lines_match(kFrontierPath, frontier_lines());
}

/// The committed trace itself must stay parseable and internally coherent —
/// catches container-format regressions independently of the filter.
TEST(GoldenTrace, CommittedTraceIsWellFormed) {
  if (regen_requested()) GTEST_SKIP() << "regeneration run";
  const auto trace = SensorTrace::load(kTracePath);
  ASSERT_TRUE(trace.has_value());
  EXPECT_GT(trace->scans().size(), 10U);
  EXPECT_GT(trace->odometry().size(), trace->scans().size());
  EXPECT_GT(trace->duration(), 1.0);
  for (const auto& rec : trace->scans()) {
    EXPECT_FALSE(rec.scan.ranges.empty());
  }
}

}  // namespace
}  // namespace srl
