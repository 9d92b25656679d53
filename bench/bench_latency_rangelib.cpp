/// \file bench_latency_rangelib.cpp
/// \brief Reproduces the paper's latency evaluation (the 1.25 ms sensor-
/// update claim, Sec. I/IV) and the rangelibc method comparison (Sec. II):
///
///  - single-ray range queries per backend (Bresenham / RayMarching /
///    CDDT / LUT) on the Table-I test track;
///  - one full SynPF measurement update (predict + correct, 60 beams per
///    particle) per backend — the number the paper reports as "scan
///    matching computation time" on the GPU-less NUC;
///  - one moving 1081-beam truth scan of the simulated LiDAR per SIMD
///    backend (the closed loop's truth cast);
///  - the CDDT batch alone over a clustered particle cloud, and the
///    sampler's raw, uniform and Gaussian draws, per SIMD backend;
///  - acceleration-structure build time (the LUT's precompute trade-off);
///  - circuit rasterization (test track and hairpin), the gridmap layer's
///    share of every set-up;
///  - CartoLite's three scan-update stages (correlative search, Gauss-Newton
///    refinement, submap insertion) on a submap and scan from a recorded
///    test-track lap, per SIMD backend.
///
/// Run via google-benchmark; absolute numbers are machine-dependent, the
/// *ordering* (LUT/CDDT are query-fast, Bresenham is exact but slow) is the
/// reproduced result.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/particle_filter.hpp"
#include "core/synpf.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/experiment.hpp"
#include "eval/table.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"
#include "motion/tum_model.hpp"
#include "range/lookup_table.hpp"
#include "range/range_method.hpp"
#include "range/ray_marching.hpp"
#include "sensor/lidar_sim.hpp"
#include "sensor/scanline_layout.hpp"
#include "slam/pure_localization.hpp"
#include "slam/scan_matching.hpp"
#include "slam/submap.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace srl;

const Track& track() {
  static const Track t = TrackGenerator::test_track();
  return t;
}

std::shared_ptr<const OccupancyGrid> map_ptr() {
  static auto map = std::make_shared<const OccupancyGrid>(track().grid);
  return map;
}

const std::unique_ptr<RangeMethod>& method(RangeMethodKind kind) {
  static std::unique_ptr<RangeMethod> methods[4];
  auto& slot = methods[static_cast<int>(kind)];
  if (!slot) slot = make_range_method(kind, map_ptr(), RangeMethodOptions{});
  return slot;
}

/// Pre-generated query poses on the corridor.
const std::vector<Pose2>& query_poses() {
  static const std::vector<Pose2> poses = [] {
    std::vector<Pose2> out;
    Rng rng{7};
    const auto& cl = track().centerline;
    while (out.size() < 4096) {
      const Vec2 base = cl[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cl.size()) - 1))];
      const Pose2 p{base.x + rng.gaussian(0.3), base.y + rng.gaussian(0.3),
                    rng.uniform(-kPi, kPi)};
      const GridIndex g = map_ptr()->world_to_grid({p.x, p.y});
      if (map_ptr()->in_bounds(g.ix, g.iy) &&
          !map_ptr()->blocks_ray(g.ix, g.iy)) {
        out.push_back(p);
      }
    }
    return out;
  }();
  return poses;
}

void BM_RangeQuery(benchmark::State& state) {
  const auto kind = static_cast<RangeMethodKind>(state.range(0));
  const RangeMethod& m = *method(kind);
  const auto& poses = query_poses();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.range(poses[i]));
    i = (i + 1) % poses.size();
  }
  state.SetLabel(m.name());
}
BENCHMARK(BM_RangeQuery)
    ->Arg(static_cast<int>(RangeMethodKind::kBresenham))
    ->Arg(static_cast<int>(RangeMethodKind::kRayMarching))
    ->Arg(static_cast<int>(RangeMethodKind::kCddt))
    ->Arg(static_cast<int>(RangeMethodKind::kLut));

/// One full SynPF measurement update: the paper's latency metric.
void BM_SensorUpdate(benchmark::State& state) {
  const auto kind = static_cast<RangeMethodKind>(state.range(0));
  const LidarConfig lidar;

  ParticleFilterConfig cfg;
  cfg.n_particles = static_cast<int>(state.range(1));
  std::shared_ptr<const RangeMethod> caster =
      make_range_method(kind, map_ptr(), RangeMethodOptions{});
  ParticleFilter pf{cfg,
                    caster,
                    std::make_shared<TumMotionModel>(),
                    BeamModel{},
                    lidar,
                    boxed_layout(lidar, 60, 3.0),
                    99};

  // A scan from the start pose.
  const auto& cl = track().centerline;
  const Pose2 start{cl[0].x, cl[0].y, 0.0};
  auto truth_caster =
      std::make_shared<RayMarching>(map_ptr(), lidar.max_range);
  LidarSim sim{lidar, truth_caster, LidarNoise{}};
  Rng rng{3};
  const LaserScan scan = sim.scan(start, 0.0, rng);
  pf.init_pose(start);

  OdometryDelta odom;
  odom.delta = Pose2{0.02, 0.0, 0.0};
  odom.v = 1.0;
  odom.dt = 0.02;
  for (auto _ : state) {
    pf.predict(odom);
    pf.correct(scan);
  }
  state.SetLabel(to_string(kind) + "/" +
                 std::to_string(cfg.n_particles) + "p");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.n_particles) * 60);
}
BENCHMARK(BM_SensorUpdate)
    ->Args({static_cast<int>(RangeMethodKind::kBresenham), 1500})
    ->Args({static_cast<int>(RangeMethodKind::kRayMarching), 1500})
    ->Args({static_cast<int>(RangeMethodKind::kCddt), 1500})
    ->Args({static_cast<int>(RangeMethodKind::kLut), 1500})
    ->Unit(benchmark::kMillisecond);

/// One simulated LiDAR revolution while the car moves: the truth cast of
/// every closed-loop tick (1081 beams through the ray-marching batch, each
/// from the pose the sensor held when it fired), per SIMD backend.
void BM_TruthScan(benchmark::State& state) {
  const auto backend = static_cast<simd::Backend>(state.range(0));
  if (backend == simd::Backend::kAvx2 && !simd::cpu_has_avx2()) {
    state.SkipWithError("host CPU lacks AVX2");
    return;
  }
  const LidarConfig lidar;
  const LidarSim sim{lidar,
                     std::make_shared<RayMarching>(map_ptr(), lidar.max_range),
                     LidarNoise{}};
  const auto& cl = track().centerline;
  const Vec2 ahead = cl[1] - cl[0];
  const Pose2 body{cl[0].x, cl[0].y, std::atan2(ahead.y, ahead.x)};
  const Twist2 twist{7.0, 0.1, 0.4};
  Rng rng{3};
  simd::force(backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.scan(body, twist, 0.0, rng));
  }
  simd::reset();
  state.SetLabel(simd::name(backend));
  state.SetItemsProcessed(state.iterations() * lidar.n_beams);
}
BENCHMARK(BM_TruthScan)
    ->Arg(static_cast<int>(simd::Backend::kScalar))
    ->Arg(static_cast<int>(simd::Backend::kAvx2))
    ->Unit(benchmark::kMicrosecond);

/// The CDDT batch alone: `ranges_from` for every particle of a filter-like
/// cloud (eight clusters of 200 particles on the centerline, 0.3 m and 0.1
/// rad spread) over SynPF's boxed layout of 60 beams, which de-duplicates
/// to 37, per SIMD backend.
void BM_CddtBatch(benchmark::State& state) {
  const auto backend = static_cast<simd::Backend>(state.range(0));
  if (backend == simd::Backend::kAvx2 && !simd::cpu_has_avx2()) {
    state.SkipWithError("host CPU lacks AVX2");
    return;
  }
  const LidarConfig lidar;
  const std::vector<double> angles =
      layout_angles(lidar, boxed_layout(lidar, 60, 3.0));
  const auto& cl = track().centerline;
  std::vector<Pose2> cloud;
  Rng rng{5};
  for (std::size_t c = 0; c < 8; ++c) {
    const std::size_t at = c * cl.size() / 8;
    const Vec2 ahead = cl[(at + 1) % cl.size()] - cl[at];
    const double heading = std::atan2(ahead.y, ahead.x);
    for (int i = 0; i < 200; ++i) {
      cloud.push_back({cl[at].x + rng.gaussian(0.3),
                       cl[at].y + rng.gaussian(0.3),
                       heading + rng.gaussian(0.1)});
    }
  }
  const RangeMethod& cddt = *method(RangeMethodKind::kCddt);
  std::vector<float> out(cloud.size() * angles.size());
  simd::force(backend);
  for (auto _ : state) {
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      cddt.ranges_from(cloud[i], angles,
                       std::span<float>{out}.subspan(i * angles.size(),
                                                     angles.size()));
    }
    benchmark::DoNotOptimize(out.data());
  }
  simd::reset();
  state.SetLabel(std::string{simd::name(backend)} + "/" +
                 std::to_string(angles.size()) + " beams");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_CddtBatch)
    ->Arg(static_cast<int>(simd::Backend::kScalar))
    ->Arg(static_cast<int>(simd::Backend::kAvx2))
    ->Unit(benchmark::kMicrosecond);

/// The sampler's draws, per SIMD backend (the engine's twist dispatches):
/// a raw engine word (arg 0), `uniform()` (1) and `gaussian(1)` (2).
void BM_RngDraw(benchmark::State& state) {
  const auto kind = state.range(0);
  const auto backend = static_cast<simd::Backend>(state.range(1));
  if (backend == simd::Backend::kAvx2 && !simd::cpu_has_avx2()) {
    state.SkipWithError("host CPU lacks AVX2");
    return;
  }
  Rng rng{0x5eed5eedULL};
  simd::force(backend);
  if (kind == 0) {
    for (auto _ : state) benchmark::DoNotOptimize(rng.next_seed());
  } else if (kind == 1) {
    for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(rng.gaussian(1.0));
  }
  simd::reset();
  const char* names[] = {"raw", "uniform", "gaussian"};
  state.SetLabel(std::string{names[kind]} + "/" + simd::name(backend));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraw)
    ->ArgsProduct({{0, 1, 2},
                   {static_cast<int>(simd::Backend::kScalar),
                    static_cast<int>(simd::Backend::kAvx2)}});

/// Acceleration-structure construction cost (the LUT's trade-off), at the
/// race configuration (the default options: LUT stride 1, 120 bins).
void BM_Build(benchmark::State& state) {
  const auto kind = static_cast<RangeMethodKind>(state.range(0));
  const RangeMethodOptions opt;
  std::unique_ptr<RangeMethod> m;
  for (auto _ : state) {
    m = make_range_method(kind, map_ptr(), opt);
    benchmark::DoNotOptimize(m);
  }
  if (const auto* lut = dynamic_cast<const RangeLut*>(m.get())) {
    state.counters["memory_bytes"] =
        static_cast<double>(lut->memory_bytes());
  }
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_Build)
    ->Arg(static_cast<int>(RangeMethodKind::kRayMarching))
    ->Arg(static_cast<int>(RangeMethodKind::kCddt))
    ->Arg(static_cast<int>(RangeMethodKind::kLut))
    ->Unit(benchmark::kMillisecond);

/// Circuit rasterization, the gridmap layer's share of every set-up: arg 0
/// is the Table-I test track, arg 1 the hairpin.
void BM_TrackRasterize(benchmark::State& state) {
  const bool hairpin = state.range(0) == 1;
  for (auto _ : state) {
    Track t =
        hairpin ? TrackGenerator::hairpin() : TrackGenerator::test_track();
    benchmark::DoNotOptimize(t.grid.data().data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(hairpin ? "hairpin" : "test_track");
}
BENCHMARK(BM_TrackRasterize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// CartoLite's inputs, taken from a recorded test-track lap: the live
/// submap after a full span of scans (inserted at their true poses, every
/// beam), the next scan's matching cloud (every `points_stride`-th beam)
/// and insertion cloud, and the prior map's likelihood field. The seeds sit
/// a few centimetres and a degree off the scan's true pose, as odometry
/// leaves them.
struct CartoInputs {
  PureLocalizationOptions options;
  ProbabilityGrid field;
  Submap submap{Pose2{}, options.submap_resolution, options.submap_extent};
  std::vector<Vec2> points;
  std::vector<Vec2> dense;
  Pose2 seed_world;
  Pose2 seed_local;
};

const CartoInputs& carto_inputs() {
  static const CartoInputs inputs = [] {
    CartoInputs in;
    in.field = ProbabilityGrid::likelihood_field(
        *map_ptr(), in.options.likelihood_sigma);
    ExperimentConfig cfg;
    cfg.laps = 1;
    cfg.max_sim_time = 5.0;
    ExperimentRunner runner{track(), cfg};
    DeadReckoning driver;
    SensorTrace lap;
    runner.run(driver, &lap);
    const auto& scans = lap.scans();
    const auto span = static_cast<std::size_t>(in.options.scans_per_submap);
    const std::size_t first = scans.size() - span - 1;
    const LidarConfig lidar;
    in.submap = Submap{scans[first].truth, in.options.submap_resolution,
                       in.options.submap_extent};
    for (std::size_t i = first; i < first + span; ++i) {
      in.submap.insert(scans[i].truth, scan_to_points(scans[i].scan, lidar));
    }
    const auto& probe = scans.back();
    in.points = scan_to_points(probe.scan, lidar, in.options.points_stride);
    in.dense = scan_to_points(probe.scan, lidar);
    in.seed_world = Pose2{probe.truth.x + 0.03, probe.truth.y - 0.02,
                          probe.truth.theta + 0.015};
    in.seed_local = in.submap.to_local(in.seed_world);
    return in;
  }();
  return inputs;
}

bool pin_backend(benchmark::State& state, simd::Backend backend) {
  if (backend == simd::Backend::kAvx2 && !simd::cpu_has_avx2()) {
    state.SkipWithError("host CPU lacks AVX2");
    return false;
  }
  simd::force(backend);
  return true;
}

/// One correlative search: the local window on the live submap (arg 0) or
/// the global constraint window on the likelihood field (arg 1).
void BM_CorrelativeMatch(benchmark::State& state) {
  const CartoInputs& in = carto_inputs();
  const bool global = state.range(0) == 1;
  const auto backend = static_cast<simd::Backend>(state.range(1));
  const CorrelativeScanMatcher csm{global ? in.options.global_csm
                                          : in.options.local_csm};
  const ProbabilityGrid& grid = global ? in.field : in.submap.grid();
  const Pose2& seed = global ? in.seed_world : in.seed_local;
  if (!pin_backend(state, backend)) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(csm.match(grid, seed, in.points));
  }
  simd::reset();
  state.SetLabel(std::string{global ? "global/" : "local/"} +
                 simd::name(backend) + "/" +
                 std::to_string(in.points.size()) + "pts");
}
BENCHMARK(BM_CorrelativeMatch)
    ->ArgsProduct({{0, 1},
                   {static_cast<int>(simd::Backend::kScalar),
                    static_cast<int>(simd::Backend::kAvx2)}})
    ->Unit(benchmark::kMicrosecond);

/// The local Gauss-Newton refinement on the live submap, started from the
/// seed itself (the iteration runs until it converges or hits its cap).
void BM_GaussNewtonRefine(benchmark::State& state) {
  const CartoInputs& in = carto_inputs();
  const auto backend = static_cast<simd::Backend>(state.range(0));
  const GaussNewtonMatcher gn{in.options.gn};
  if (!pin_backend(state, backend)) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gn.refine(in.submap.grid(), in.seed_local, in.points));
  }
  simd::reset();
  state.SetLabel(simd::name(backend));
}
BENCHMARK(BM_GaussNewtonRefine)
    ->Arg(static_cast<int>(simd::Backend::kScalar))
    ->Arg(static_cast<int>(simd::Backend::kAvx2))
    ->Unit(benchmark::kMicrosecond);

/// One dense scan inserted into the live submap. Every iteration inserts
/// the same scan into the same copy, so it touches the same cells with the
/// same number of updates.
void BM_SubmapInsert(benchmark::State& state) {
  const CartoInputs& in = carto_inputs();
  Submap submap = in.submap;
  for (auto _ : state) {
    submap.insert(in.seed_world, in.dense);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.dense.size()));
}
BENCHMARK(BM_SubmapInsert)->Unit(benchmark::kMicrosecond);

/// Percentile study: run repeated full sensor updates per backend with a
/// metrics registry attached and print the per-stage latency distribution
/// (predict / raycast / weight / resample + total) — the paper's 1.25 ms
/// claim as a p50/p95/p99 table instead of a single mean.
void run_percentile_study(int updates) {
  const LidarConfig lidar;
  const auto& cl = track().centerline;
  const Pose2 start{cl[0].x, cl[0].y, 0.0};
  auto truth_caster =
      std::make_shared<RayMarching>(map_ptr(), lidar.max_range);
  LidarSim sim{lidar, truth_caster, LidarNoise{}};

  std::cout << "Per-stage sensor-update latency, " << updates
            << " updates x 1500 particles x 60 beams per backend:\n";
  TextTable table{{"Backend", "Stage", "n", "mean [ms]", "p50 [ms]",
                   "p95 [ms]", "p99 [ms]", "max [ms]"}};
  for (const RangeMethodKind kind :
       {RangeMethodKind::kBresenham, RangeMethodKind::kRayMarching,
        RangeMethodKind::kCddt, RangeMethodKind::kLut}) {
    ParticleFilterConfig cfg;
    cfg.n_particles = 1500;
    std::shared_ptr<const RangeMethod> caster =
        make_range_method(kind, map_ptr(), RangeMethodOptions{});
    ParticleFilter pf{cfg,
                      caster,
                      std::make_shared<TumMotionModel>(),
                      BeamModel{},
                      lidar,
                      boxed_layout(lidar, 60, 3.0),
                      99};
    telemetry::MetricsRegistry metrics;
    pf.set_telemetry(telemetry::Sink{&metrics, nullptr});
    telemetry::Histogram& total = metrics.histogram("pf.update_ms");

    Rng rng{3};
    const LaserScan scan = sim.scan(start, 0.0, rng);
    pf.init_pose(start);
    OdometryDelta odom;
    odom.delta = Pose2{0.02, 0.0, 0.0};
    odom.v = 1.0;
    odom.dt = 0.02;
    for (int i = 0; i < updates; ++i) {
      Stopwatch watch;
      pf.predict(odom);
      pf.correct(scan);
      total.record(watch.elapsed_ms());
    }

    for (const char* stage : {"pf.predict_ms", "pf.raycast_ms",
                              "pf.weight_ms", "pf.resample_ms",
                              "pf.update_ms"}) {
      const telemetry::Histogram* h = metrics.find_histogram(stage);
      if (h == nullptr || h->count() == 0) continue;
      const telemetry::Histogram::Snapshot s = h->snapshot();
      table.add_row({to_string(kind), stage, std::to_string(s.count),
                     TextTable::num(s.mean, 3), TextTable::num(s.p50, 3),
                     TextTable::num(s.p95, 3), TextTable::num(s.p99, 3),
                     TextTable::num(s.max, 3)});
    }
  }
  std::cout << table.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  run_percentile_study(static_cast<int>(benchutil::knob_uint(
      "SRL_PCTL_UPDATES", 100, 0, std::numeric_limits<int>::max())));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
