#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "closed_loop.hpp"
#include "common/parallel.hpp"
#include "core/synpf.hpp"
#include "eval/experiment.hpp"
#include "eval/frontier/frontier_search.hpp"
#include "eval/scenario_matrix.hpp"
#include "eval/trace.hpp"
#include "fault/injector.hpp"
#include "gridmap/track_generator.hpp"
#include "layers.hpp"
#include "slam/pure_localization.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "telemetry/telemetry.hpp"
#include "track/raceline.hpp"
#include "util.hpp"

namespace e2e {

using namespace srl;
using Clock = std::chrono::steady_clock;

namespace {

// Grip of the paper's pull test: 26 N (HQ) and 19 N taped tires (LQ).
constexpr double kMuHq = 0.76;
constexpr double kMuLq = 0.55;
/// Filter lanes of the on-car replay, and lanes of the batch-job pools.
/// Fixed here so the numbers never depend on SRL_THREADS or the host.
constexpr int kReplayFilterLanes = 4;
constexpr int kJobLanes = 4;
/// Open-loop scan period of the replay: 5x the LiDAR's 40 Hz, which keeps
/// the 4-lane filter (p99 service ~3.4 ms on the reference host) from
/// queueing on every tail update while still packing ~3000 updates into a
/// 15 s run.
constexpr double kReplayPeriodS = 0.005;
/// Sampler seed of the frontier circuits. The circuits are the frontier's
/// fixed map set; --seed varies the simulation and fault draws on them.
constexpr std::uint64_t kFrontierSamplerSeed = 0xF407;
/// Untraced wall of one unit of work on the reference host, used to turn
/// --seconds into a fixed amount of work (README.md, "Run length").
constexpr double kTable1LapRoundS = 3.5;  ///< one lap of all four cells
constexpr double kMatrixJobS = 16.0;
constexpr double kFrontierJobS = 15.0;
/// Set-up repetitions per run (the median is reported). The cheap set-ups
/// of the batch jobs take tens of milliseconds, so they repeat more often.
constexpr int kSetupRepsHeavy = 5;
constexpr int kSetupRepsLight = 12;

/// Whole units of work that fit in `seconds`, at least one.
int units_for(double seconds, double unit_s) {
  return std::max(1, static_cast<int>(std::floor(seconds / unit_s)));
}

double median_of(const std::vector<double>& v) {
  return percentiles(v).p50;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Pins the calling thread to one CPU of the process's affinity mask at a
/// time and restores the whole mask when destroyed. On the shared reference
/// host one or two vCPUs at a time run about 1.6x slower than the others,
/// so single-threaded work that stays on one core is bimodal from run to
/// run; pinning successive pieces of it to successive cores makes every run
/// sample all of them. Only single-threaded work may be pinned: threads
/// started while pinned inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof mask_, &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Run the calling thread on the k-th CPU (mod the mask's size).
  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
};

/// Set up `reps` times from scratch and keep the last instance; the
/// benchmark reports the median set-up time. Single-threaded set-ups rotate
/// over the CPUs (CpuRotation); the multi-threaded LUT build must not.
template <typename T, typename Make>
std::unique_ptr<T> repeated_setup(int reps, bool rotate_cpus,
                                  std::vector<double>& times,
                                  const Make& make) {
  std::optional<CpuRotation> rotation;
  if (rotate_cpus) rotation.emplace();
  std::unique_ptr<T> instance;
  for (int i = 0; i < reps; ++i) {
    instance.reset();
    if (rotation) rotation->pin(static_cast<std::size_t>(i));
    const double t0 = now_s();
    instance = make();
    times.push_back(now_s() - t0);
  }
  return instance;
}

json::Value op_record(const std::string& label, double wall_s,
                      const Tracer& t) {
  json::Value rec = json::Value::object();
  rec.set("op", json::Value::string(label));
  rec.set("wall_s", json::Value::number(wall_s));
  rec.set("unattributed_s", json::Value::number(wall_s - t.top_level_s()));
  json::Value self = json::Value::object();
  for (int i = 0; i < kSpanCount; ++i) {
    const SpanStats& s = t.stats(static_cast<Span>(i));
    if (s.calls > 0) {
      self.set(span_name(static_cast<Span>(i)), json::Value::number(s.self_s));
    }
  }
  rec.set("self_s", std::move(self));
  return rec;
}

void add_latency(Report& rep, const std::string& prefix,
                 const std::vector<double>& samples_s, bool require_tail) {
  const Percentiles p = percentiles(samples_s);
  rep.metric(prefix + "_p50_ms", p.p50 * 1e3, "ms");
  rep.metric(prefix + "_p99_ms", p.p99 * 1e3, "ms");
  rep.notes.push_back(prefix + ": n=" + std::to_string(p.n) +
                      " beyond_p99=" + std::to_string(p.beyond_p99) +
                      " (exact nearest-rank)");
  if (require_tail) {
    rep.check(prefix + "_p99_has_10_beyond", p.beyond_p99 >= 10);
  }
}

/// Metrics every workload reports: the end-to-end list of BENCHMARK.json,
/// the process CPU time of the measured work and the failed share. Call it
/// once `rep.attempted` and `rep.failed` are final.
void add_common(Report& rep, const std::vector<double>& setup_times,
                double wall_s, double cpu_s) {
  rep.metric("setup_s", median_of(setup_times), "s");
  rep.metric("wall_s", wall_s, "s");
  rep.metric("cpu_s", cpu_s, "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.metric("failed_frac",
             static_cast<double>(rep.failed) /
                 static_cast<double>(std::max<long>(rep.attempted, 1)),
             "fraction");
}

// ---------------------------------------------------------------------------
// replay_lut: open-loop replay of a recorded trace into the on-car SynPF.

struct ReplaySetup {
  Track track;
  std::shared_ptr<const OccupancyGrid> map;
  std::unique_ptr<SynPf> synpf;
  SensorTrace trace;
  bool recorded_lap{false};  ///< the recording car finished its lap
};

std::unique_ptr<ReplaySetup> make_replay_setup(const Options& o,
                                               Tracer* tracer) {
  auto s = std::make_unique<ReplaySetup>();
  {
    Scope span{tracer, Span::kSetupTrack};
    s->track = TrackGenerator::test_track();
    s->map = std::make_shared<const OccupancyGrid>(s->track.grid);
  }
  const LidarConfig lidar{};
  {
    // The paper's on-car configuration: LUT, 1500 particles, 60 boxed beams.
    Scope span{tracer, Span::kSetupSynpfCtor};
    SynPfConfig cfg;
    cfg.range = RangeMethodKind::kLut;
    cfg.filter.n_particles = 1500;
    cfg.filter.n_threads = kReplayFilterLanes;
    s->synpf = std::make_unique<SynPf>(cfg, s->map, lidar);
  }
  // The trace is one closed-loop lap (after the out-lap) at nominal grip.
  // The recording car drives on a single-lane CDDT SynPF with the matrix's
  // 800 particles: the open-loop replay only needs a real lap, and this
  // driver keeps set-up cheap enough to repeat.
  std::unique_ptr<SynPf> driver;
  {
    Scope span{tracer, Span::kSetupSynpfCtor};
    SynPfConfig cfg;
    cfg.range = RangeMethodKind::kCddt;
    cfg.filter.n_particles = 800;
    cfg.filter.n_threads = 1;
    driver = std::make_unique<SynPf>(cfg, s->map, lidar);
  }
  ExperimentConfig rc;
  rc.mu = kMuHq;
  rc.laps = 1;
  rc.seed = o.seed;
  std::unique_ptr<ExperimentRunner> runner;
  {
    Scope span{tracer, Span::kSetupRunnerCtor};
    runner = std::make_unique<ExperimentRunner>(s->track, rc);
  }
  {
    Scope span{tracer, Span::kSetupTraceRecord};
    s->recorded_lap = runner->run(*driver, &s->trace).completed;
  }
  return s;
}

struct PassResult {
  std::vector<Pose2> estimates;
  std::vector<double> latency_s;  ///< from each scan's due time
  std::vector<double> lag_s;      ///< how late the update started
  long misses{0};                 ///< finished after the next scan was due
  long failed{0};
  double busy_s{0.0};
  double wall_s{0.0};
};

/// One paced pass over the trace. Odometry is delivered ahead of each scan
/// (it arrives between scans on the car); each scan is released at its due
/// time, or at once when an earlier update overran.
PassResult replay_pass(const SensorTrace& trace, Localizer& localizer,
                       Tracer* tracer) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kReplayPeriodS));
  const auto& scans = trace.scans();
  const auto& odometry = trace.odometry();
  PassResult r;
  r.estimates.reserve(scans.size());
  r.latency_s.reserve(scans.size());
  r.lag_s.reserve(scans.size());

  const Clock::time_point pass_start = Clock::now();
  localizer.initialize(scans.front().truth);
  const Clock::time_point t0 = Clock::now() + period;
  std::size_t oi = 0;
  Clock::time_point end = t0;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    const SensorTrace::ScanRecord& rec = scans[i];
    while (oi < odometry.size() && odometry[oi].t <= rec.scan.t) {
      localizer.on_odometry(odometry[oi].odom);
      ++oi;
    }
    const Clock::time_point due = t0 + period * static_cast<long>(i);
    {
      Scope span{tracer, Span::kGenWait};
      std::this_thread::sleep_until(due);
    }
    const Clock::time_point start = Clock::now();
    Pose2 est{NAN, NAN, NAN};  // stays NaN, and counts as failed, on a throw
    try {
      est = localizer.on_scan(rec.scan);
    } catch (const std::exception&) {
    }
    end = Clock::now();
    if (!finite(est)) ++r.failed;
    r.estimates.push_back(est);
    r.latency_s.push_back(std::chrono::duration<double>(end - due).count());
    r.lag_s.push_back(std::chrono::duration<double>(start - due).count());
    if (end > due + period) ++r.misses;
    r.busy_s += std::chrono::duration<double>(end - start).count();
  }
  r.wall_s = std::chrono::duration<double>(end - pass_start).count();
  return r;
}

Report replay_lut(const Options& o) {
  Report rep;
  std::vector<double> setup_times;
  auto setup = repeated_setup<ReplaySetup>(
      o.smoke ? 1 : kSetupRepsHeavy, false, setup_times,
      [&] { return make_replay_setup(o, nullptr); });
  const SensorTrace& trace = setup->trace;
  const double pass_s =
      static_cast<double>(trace.scans().size()) * kReplayPeriodS;
  const int passes = o.smoke ? 1 : units_for(o.seconds, pass_s);

  const double cpu0 = process_cpu_s();
  std::vector<PassResult> untraced;
  for (int p = 0; p < passes; ++p) {
    untraced.push_back(replay_pass(trace, *setup->synpf, nullptr));
  }
  const double cpu_s = process_cpu_s() - cpu0;

  std::vector<double> latency;
  std::vector<double> lag;
  long misses = 0;
  double wall = 0.0;
  double busy = 0.0;
  double err_sq = 0.0;
  Fnv fp;
  for (const PassResult& r : untraced) {
    latency.insert(latency.end(), r.latency_s.begin(), r.latency_s.end());
    lag.insert(lag.end(), r.lag_s.begin(), r.lag_s.end());
    misses += r.misses;
    wall += r.wall_s;
    busy += r.busy_s;
    rep.failed += r.failed;
    for (std::size_t i = 0; i < r.estimates.size(); ++i) {
      const Pose2& e = r.estimates[i];
      const Pose2& truth = trace.scans()[i].truth;
      err_sq += (e.x - truth.x) * (e.x - truth.x) +
                (e.y - truth.y) * (e.y - truth.y);
      fp.add(e);
    }
  }
  rep.attempted = static_cast<long>(latency.size());
  const double sim_s = passes * trace.duration();
  const double rmse_m = std::sqrt(err_sq / static_cast<double>(latency.size()));

  add_common(rep, setup_times, wall, cpu_s);
  rep.metric("sim_rate", sim_s / wall, "s/s");
  rep.metric("cpu_s_per_sim_s", cpu_s / sim_s, "s/s");
  add_latency(rep, "synpf_update", latency, !o.smoke);
  rep.metric("synpf_miss_frac",
             static_cast<double>(misses) / static_cast<double>(rep.attempted),
             "fraction");
  rep.metric("gen_lag_p99_us", percentiles(lag).p99 * 1e6, "us");
  rep.metric("error_cm", rmse_m * 100.0, "cm");
  rep.fingerprint = hex(fp.value());
  rep.notes.push_back("replay: " + std::to_string(passes) + " passes x " +
                      std::to_string(trace.scans().size()) + " scans, " +
                      std::to_string(kReplayFilterLanes) + " filter lanes");
  rep.check("trace_is_a_full_lap", setup->recorded_lap);
  rep.check("estimates_finite", rep.failed == 0);
  rep.check("replay_tracks_truth", rmse_m < 0.5);

  if (o.trace) {
    Tracer setup_tracer;
    // No metrics sink here: it would also attach the LUT's per-particle
    // batch timer and shared query counter, which the four lanes contend
    // on (README.md, "Sinks in the traced run").
    auto fresh = make_replay_setup(o, &setup_tracer);
    Tracer work;
    json::Value ops = json::Value::array();
    double ops_total = 0.0;
    double traced_busy = 0.0;
    std::vector<double> traced_lag;
    bool same = true;
    for (int p = 0; p < passes; ++p) {
      Tracer op;
      Shim shim{*fresh->synpf, &op, Span::kCoreOnScan, Span::kCoreOnOdometry};
      const PassResult r = replay_pass(fresh->trace, shim, &op);
      for (std::size_t i = 0; i < r.estimates.size(); ++i) {
        const Pose2& a = r.estimates[i];
        const Pose2& b = untraced[static_cast<std::size_t>(p)].estimates[i];
        same = same && a.x == b.x && a.y == b.y && a.theta == b.theta;
      }
      traced_lag.insert(traced_lag.end(), r.lag_s.begin(), r.lag_s.end());
      ops_total += r.wall_s;
      traced_busy += r.busy_s;
      ops.push_back(op_record("pass" + std::to_string(p), r.wall_s, op));
      work.merge(op);
    }
    rep.check("traced_equals_untraced", same);
    LayerInputs in;
    in.setup = &setup_tracer;
    in.work = &work;
    in.ops_total_s = ops_total;
    // The pacing fixes the wall time; the job is the updates themselves.
    in.traced_job_s = traced_busy;
    in.untraced_job_s = busy;
    in.lane_busy_s = {traced_busy};
    in.gen_lag_p99_us = percentiles(traced_lag).p99 * 1e6;
    add_per_layer(in, rep);
    rep.trace_doc.set("ops", std::move(ops));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// table1: the paper's Table I, closed loop, one cell after another.

struct Table1Cell {
  bool synpf{false};
  double mu{kMuHq};
  ExperimentConfig config{};
  std::unique_ptr<Localizer> localizer;
  std::unique_ptr<ExperimentRunner> runner;  ///< untraced
  std::unique_ptr<MirroredRunner> mirror;    ///< traced
  std::string label() const {
    return std::string{synpf ? "SynPF" : "CartoLite"} + "/" +
           (mu == kMuHq ? "HQ" : "LQ");
  }
};

struct Table1Setup {
  Track track;
  std::vector<Table1Cell> cells;
};

int table1_laps(const Options& o) {
  return o.smoke ? 1 : units_for(o.seconds, kTable1LapRoundS);
}

std::unique_ptr<Table1Setup> make_table1_setup(const Options& o, bool mirrored,
                                               Tracer* tracer) {
  auto s = std::make_unique<Table1Setup>();
  std::shared_ptr<const OccupancyGrid> map;
  {
    Scope span{tracer, Span::kSetupTrack};
    s->track = TrackGenerator::test_track();
    map = std::make_shared<const OccupancyGrid>(s->track.grid);
  }
  const LidarConfig lidar{};
  // Cell order and seeds follow bench/bench_table1.cpp.
  for (const bool synpf : {false, true}) {
    for (const double mu : {kMuHq, kMuLq}) {
      Table1Cell cell;
      cell.synpf = synpf;
      cell.mu = mu;
      cell.config.laps = table1_laps(o);
      cell.config.mu = mu;
      cell.config.seed = o.seed + (mu == kMuHq ? 0 : 1);
      {
        Scope span{tracer, Span::kSetupRunnerCtor};
        if (mirrored) {
          cell.mirror = std::make_unique<MirroredRunner>(s->track, cell.config);
        } else {
          cell.runner =
              std::make_unique<ExperimentRunner>(s->track, cell.config);
        }
      }
      if (synpf) {
        Scope span{tracer, Span::kSetupSynpfCtor};
        SynPfConfig cfg;  // LUT, 1500 particles, 60 boxed beams
        cfg.filter.n_threads = 1;
        cell.localizer = std::make_unique<SynPf>(cfg, map, lidar);
      } else {
        Scope span{tracer, Span::kSetupCartoCtor};
        cell.localizer = std::make_unique<CartoLocalizer>(
            PureLocalizationOptions{}, map, lidar);
      }
      s->cells.push_back(std::move(cell));
    }
  }
  return s;
}

Report table1(const Options& o) {
  Report rep;
  std::vector<double> setup_times;
  auto setup = repeated_setup<Table1Setup>(
      o.smoke ? 1 : kSetupRepsHeavy, false, setup_times,
      [&] { return make_table1_setup(o, false, nullptr); });

  std::vector<double> synpf_latency;
  std::vector<double> carto_latency;
  std::vector<ExperimentResult> results;
  std::vector<double> cell_walls;
  std::vector<long> cell_updates;
  const double cpu0 = process_cpu_s();
  {
    // Every cell is single-threaded; cell k runs on CPU k (CpuRotation).
    CpuRotation rotation;
    for (std::size_t i = 0; i < setup->cells.size(); ++i) {
      Table1Cell& cell = setup->cells[i];
      rotation.pin(i);
      std::vector<double>& latency =
          cell.synpf ? synpf_latency : carto_latency;
      const std::size_t n0 = latency.size();
      Shim probe{*cell.localizer, nullptr, Span::kCoreOnScan,
                 Span::kCoreOnOdometry, &latency};
      const double t0 = now_s();
      results.push_back(cell.runner->run(probe));
      cell_walls.push_back(now_s() - t0);
      cell_updates.push_back(static_cast<long>(latency.size() - n0));
    }
  }
  const double cpu_s = process_cpu_s() - cpu0;

  double wall = 0.0;
  double sim_s = 0.0;
  double lateral_sum = 0.0;
  int survivors = 0;
  int crashed = 0;
  bool laps_ok = true;
  Fnv fp;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    wall += cell_walls[i];
    sim_s += r.sim_time;
    hash_result(fp, r);
    // A cell whose result is not finite fails every update it made.
    if (!finite_result(r)) rep.failed += cell_updates[i];
    if (r.crashed) {
      ++crashed;
    } else {
      lateral_sum += r.lateral_mean_cm;
      ++survivors;
      laps_ok = laps_ok && r.completed;
    }
    rep.notes.push_back(
        setup->cells[i].label() + ": lap " + json::format_number(r.lap_time_mean) +
        " s, lateral " + json::format_number(r.lateral_mean_cm) +
        " cm, alignment " + json::format_number(r.scan_alignment) + " %" +
        (r.crashed ? ", CRASHED" : ""));
  }
  rep.attempted = static_cast<long>(synpf_latency.size() + carto_latency.size());

  add_common(rep, setup_times, wall, cpu_s);
  rep.metric("sim_rate", sim_s / wall, "s/s");
  rep.metric("cpu_s_per_sim_s", cpu_s / sim_s, "s/s");
  add_latency(rep, "synpf_update", synpf_latency, !o.smoke);
  add_latency(rep, "carto_update", carto_latency, !o.smoke);
  rep.metric("error_cm", survivors > 0 ? lateral_sum / survivors : 0.0, "cm");
  rep.metric("crash_frac", crashed / static_cast<double>(results.size()),
             "fraction");
  rep.fingerprint = hex(fp.value());
  rep.check("results_finite", rep.failed == 0);
  rep.check("surviving_cells_complete_laps", laps_ok);

  if (o.trace) {
    Tracer setup_tracer;
    auto fresh = make_table1_setup(o, true, &setup_tracer);
    Tracer work;
    LayerCounters counters;
    json::Value ops = json::Value::array();
    double ops_total = 0.0;
    bool same = true;
    CpuRotation rotation;
    for (std::size_t i = 0; i < fresh->cells.size(); ++i) {
      Table1Cell& cell = fresh->cells[i];
      rotation.pin(i);
      Tracer op;
      // CartoLite's stage timers cost a few clock reads per scan, so its
      // cells report stage sums; SynPF cells run without a sink, like the
      // untraced race (README.md, "Sinks in the traced run").
      telemetry::MetricsRegistry registry;
      const telemetry::Sink sink = cell.synpf
                                       ? telemetry::Sink{}
                                       : telemetry::Sink{&registry, nullptr};
      Shim shim{*cell.localizer, &op,
                cell.synpf ? Span::kCoreOnScan : Span::kSlamOnScan,
                cell.synpf ? Span::kCoreOnOdometry : Span::kSlamOnOdometry};
      const double t0 = now_s();
      const ExperimentResult r = cell.mirror->run(shim, sink, &op);
      const double cell_wall = now_s() - t0;
      same = same && result_fingerprint(r) == result_fingerprint(results[i]);
      counters.add(registry, nullptr);
      ops_total += cell_wall;
      ops.push_back(op_record(cell.label(), cell_wall, op));
      work.merge(op);
    }
    rep.check("traced_equals_untraced", same);
    LayerInputs in;
    in.setup = &setup_tracer;
    in.work = &work;
    in.counters = counters;
    in.ops_total_s = ops_total;
    in.traced_job_s = ops_total;
    in.untraced_job_s = wall;
    in.lane_busy_s = {ops_total};
    add_per_layer(in, rep);
    rep.trace_doc.set("ops", std::move(ops));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// matrix_smoke: the scenario-matrix batch job.

/// The counters a matrix cell reports besides its closed-loop result.
struct CellCounters {
  std::uint64_t misses{0};
  std::uint64_t shed_beam{0};
  std::uint64_t shed_particle{0};
  std::uint64_t skipped_resamples{0};
  std::uint64_t resizes{0};
  std::uint64_t reinjections{0};
  std::uint64_t global_relocs{0};
  std::uint64_t resamples{0};
  std::uint64_t events{0};
};

std::uint64_t cell_fingerprint(const ExperimentResult& r,
                               const CellCounters& c) {
  Fnv f;
  hash_result(f, r);
  for (const std::uint64_t v :
       {c.misses, c.shed_beam, c.shed_particle, c.skipped_resamples, c.resizes,
        c.reinjections, c.global_relocs, c.resamples, c.events}) {
    f.add_u64(v);
  }
  return f.value();
}

struct MatrixSetup {
  Track track;
  ScenarioMatrixConfig config;
};

std::unique_ptr<MatrixSetup> make_matrix_setup(const Options& o,
                                               Tracer* tracer) {
  auto s = std::make_unique<MatrixSetup>();
  {
    Scope span{tracer, Span::kSetupTrack};
    s->track = TrackGenerator::test_track();
  }
  ScenarioMatrixConfig& c = s->config;
  c = ScenarioMatrix::smoke_config();
  if (o.smoke) {
    c.localizers = {"SynPF+Recovery+Governor", "CartoLite"};
    c.scenarios = {{"none", 0.0}, {"kidnap", 1.0}, {"compute_pressure", 1.0}};
  }
  c.seed = o.seed;
  c.fault_seed = derived_fault_seed(o.seed);
  c.matrix_threads = kJobLanes;
  c.cell_threads = 1;
  c.blackbox_dir.clear();  // recorder off
  c.budget_ms = 2.0;
  return s;
}

/// One matrix cell composed and raced by the benchmark, with spans: the
/// cell body of ScenarioMatrix::run with shims between the layers.
struct TracedCell {
  Tracer tracer;
  LayerCounters counters;
  std::uint64_t fingerprint{0};
  double wall_s{0.0};
};

void run_traced_cell(const MatrixSetup& s,
                     const std::shared_ptr<const OccupancyGrid>& map,
                     const ScenarioCell& cell, TracedCell& out) {
  const ScenarioMatrixConfig& config = s.config;
  ExperimentConfig experiment = config.experiment;
  experiment.seed = config.seed;
  StackSpec spec;
  spec.kind = cell.localizer;
  spec.n_particles = config.n_particles;
  spec.filter_threads = config.cell_threads;
  spec.budget_ms = config.budget_ms;
  spec.fault_seed = config.fault_seed;
  Stack stack{spec, map, experiment.lidar, &out.tracer};
  if (cell.scenario.fault == "kidnap") {
    ExperimentConfig::KidnapSpec kidnap;
    kidnap.t = config.kidnap_time;
    kidnap.advance_frac = config.kidnap_advance * cell.scenario.severity;
    experiment.kidnaps.push_back(kidnap);
    experiment.laps = 1000000;
  } else if (cell.scenario.fault != "none" || cell.scenario.severity != 0.0) {
    stack.pipeline().add(cell.scenario.fault, cell.scenario.severity);
  }
  telemetry::Telemetry telemetry;
  telemetry::Sink sink = telemetry.sink();
  std::unique_ptr<MirroredRunner> runner;
  {
    Scope span{&out.tracer, Span::kSetupRunnerCtor};
    runner = std::make_unique<MirroredRunner>(s.track, experiment);
  }
  const ExperimentResult r = runner->run(stack.top(), sink, &out.tracer);

  const telemetry::MetricsRegistry& m = telemetry.metrics;
  CellCounters c;
  if (const governor::GovernedLocalizer* g = stack.governed()) {
    c.misses = g->deadline_misses();
    c.shed_beam = g->shed_beam_updates();
    c.shed_particle = g->shed_particle_updates();
    c.skipped_resamples = g->skipped_resamples();
    c.resizes = g->resizes();
  }
  c.reinjections = counter(m, "recovery.injections");
  c.global_relocs = counter(m, "recovery.global_relocs");
  c.resamples = counter(m, "pf.resamples");
  c.events = telemetry.events.total();
  out.fingerprint = cell_fingerprint(r, c);
  out.counters.add(m, stack.governed());
}

Report matrix_smoke(const Options& o) {
  Report rep;
  std::vector<double> setup_times;
  auto setup = repeated_setup<MatrixSetup>(
      o.smoke ? 1 : kSetupRepsLight, true, setup_times,
      [&] { return make_matrix_setup(o, nullptr); });
  const int repeats = o.smoke ? 1 : units_for(o.seconds, kMatrixJobS);

  std::vector<ScenarioCell> cells;
  std::vector<double> job_walls;
  bool repeats_identical = true;
  const double cpu0 = process_cpu_s();
  for (int i = 0; i < repeats; ++i) {
    const double t0 = now_s();
    std::vector<ScenarioCell> run = ScenarioMatrix{setup->config}.run(setup->track);
    job_walls.push_back(now_s() - t0);
    if (i > 0) {
      for (std::size_t k = 0; k < run.size(); ++k) {
        repeats_identical = repeats_identical &&
                            result_fingerprint(run[k].result) ==
                                result_fingerprint(cells[k].result);
      }
    }
    cells = std::move(run);
  }
  const double cpu_s = process_cpu_s() - cpu0;

  double wall = 0.0;
  for (const double w : job_walls) wall += w;
  double sim_s = 0.0;
  double lateral_sum = 0.0;
  int survivors = 0;
  int crashed = 0;
  Fnv fp;
  std::vector<std::uint64_t> cell_fps;
  for (const ScenarioCell& cell : cells) {
    const ExperimentResult& r = cell.result;
    sim_s += r.sim_time;
    if (!finite_result(r)) ++rep.failed;
    if (r.crashed) {
      ++crashed;
    } else {
      lateral_sum += r.lateral_mean_cm;
      ++survivors;
    }
    CellCounters c;
    c.misses = cell.deadline_misses;
    c.shed_beam = cell.shed_beam_updates;
    c.shed_particle = cell.shed_particle_updates;
    c.skipped_resamples = cell.skipped_resamples;
    c.resizes = cell.governor_resizes;
    c.reinjections = cell.reinjections;
    c.global_relocs = cell.global_relocs;
    c.resamples = cell.resamples;
    c.events = cell.events_total;
    cell_fps.push_back(cell_fingerprint(r, c));
    fp.add_u64(cell_fps.back());
  }
  sim_s *= repeats;
  rep.attempted = static_cast<long>(cells.size()) * repeats;
  rep.failed *= repeats;

  add_common(rep, setup_times, wall, cpu_s);
  rep.metric("sim_rate", sim_s / wall, "s/s");
  rep.metric("cpu_s_per_sim_s", cpu_s / sim_s, "s/s");
  rep.metric("job_wall_s", median_of(job_walls), "s");
  rep.metric("error_cm", survivors > 0 ? lateral_sum / survivors : 0.0, "cm");
  rep.metric("crash_frac",
             crashed / static_cast<double>(std::max<std::size_t>(cells.size(), 1)),
             "fraction");
  rep.fingerprint = hex(fp.value());
  rep.notes.push_back("matrix: " + std::to_string(cells.size()) + " cells x " +
                      std::to_string(repeats) + " jobs, " +
                      std::to_string(kJobLanes) + " cell lanes");
  rep.check("cell_count", cells.size() == setup->config.localizers.size() *
                                             setup->config.scenarios.size());
  rep.check("results_finite", rep.failed == 0);
  rep.check("repeats_identical", repeats_identical);

  if (o.trace) {
    Tracer setup_tracer;
    auto fresh = make_matrix_setup(o, &setup_tracer);
    const auto map = std::make_shared<const OccupancyGrid>(fresh->track.grid);
    std::vector<TracedCell> traced(cells.size());
    std::vector<double> lane_busy(kJobLanes, 0.0);
    const double job0 = now_s();
    {
      // Same static chunking as ScenarioMatrix::run, so every cell runs on
      // the lane it runs on in the library.
      ThreadPool pool{kJobLanes};
      pool.parallel_for(cells.size(), [&](int lane, std::size_t begin,
                                          std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double t0 = now_s();
          run_traced_cell(*fresh, map, cells[i], traced[i]);
          traced[i].wall_s = now_s() - t0;
          lane_busy[static_cast<std::size_t>(lane)] += traced[i].wall_s;
        }
      });
    }
    const double job_wall = now_s() - job0;
    Tracer work;
    LayerCounters counters;
    json::Value ops = json::Value::array();
    double ops_total = 0.0;
    bool same = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      same = same && traced[i].fingerprint == cell_fps[i];
      work.merge(traced[i].tracer);
      counters.merge(traced[i].counters);
      ops_total += traced[i].wall_s;
      ops.push_back(op_record(cells[i].localizer + "/" + cells[i].scenario.label(),
                              traced[i].wall_s, traced[i].tracer));
    }
    rep.check("traced_equals_untraced", same);
    LayerInputs in;
    in.setup = &setup_tracer;
    in.work = &work;
    in.counters = counters;
    in.ops_total_s = ops_total;
    in.traced_job_s = job_wall;
    in.untraced_job_s = median_of(job_walls);
    in.lane_busy_s = lane_busy;
    add_per_layer(in, rep);
    rep.trace_doc.set("ops", std::move(ops));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// frontier_smoke: the severity-bisection batch job.

struct FrontierClass {
  int id{0};
  Track track;
  std::shared_ptr<const OccupancyGrid> map;
  double length_m{0.0};
};

struct FrontierSetup {
  frontier::FrontierSearchConfig config;
  std::vector<FrontierClass> classes;

  const FrontierClass& of(int track_class) const {
    for (const FrontierClass& c : classes) {
      if (c.id == track_class) return c;
    }
    throw std::out_of_range("frontier: track class not set up");
  }
};

std::unique_ptr<FrontierSetup> make_frontier_setup(const Options& o,
                                                   Tracer* tracer) {
  auto s = std::make_unique<FrontierSetup>();
  frontier::FrontierSearchConfig& c = s->config;
  c = frontier::FrontierSearchConfig::smoke();
  c.track_classes = {0, 1};  // club and narrow
  if (o.smoke) {
    c.axes = {8};  // compute_pressure: exercises the governor layer
    c.track_classes = {0};
    c.bisect_iterations = 1;
  }
  c.seed = kFrontierSamplerSeed;
  c.fault_seed = derived_fault_seed(o.seed);
  c.experiment.seed = o.seed;
  c.search_threads = kJobLanes;
  c.cell_threads = 1;
  c.blackbox_dir.clear();  // recorder off
  // The circuits the search races, rasterized the way run_frontier_search
  // builds them: the traced evaluator races them, and the untraced result
  // must report their lengths.
  const frontier::ScenarioSampler sampler{c.seed};
  for (const int tc : c.track_classes) {
    Scope span{tracer, Span::kSetupTrack};
    frontier::ScenarioKey key;
    key.track_class = tc;
    key.variant = c.variant;
    FrontierClass fc;
    fc.id = tc;
    fc.track = sampler.build_track(sampler.sample(key.pack()));
    fc.map = std::make_shared<const OccupancyGrid>(fc.track.grid);
    fc.length_m = Raceline{fc.track.centerline}.length();
    s->classes.push_back(std::move(fc));
  }
  return s;
}

std::uint64_t frontier_fingerprint(const frontier::FrontierResult& result) {
  Fnv f;
  for (const frontier::FrontierPoint& p : result.points) {
    f.add_u64((p.censored ? 1U : 0U) | (p.degenerate ? 2U : 0U));
    f.add(p.breaking_severity);
    f.add(p.bracket_lo);
    f.add(p.bracket_hi);
    f.add_u64(p.breaking_index);
    f.add_u64(p.evaluations.size());
    for (const frontier::FrontierEvaluation& e : p.evaluations) {
      f.add_u64(e.index);
      f.add(e.severity);
      f.add_u64((e.failed ? 1U : 0U) | (e.crashed ? 2U : 0U));
      f.add_u64(static_cast<std::uint64_t>(e.divergence_episodes));
      f.add_u64(static_cast<std::uint64_t>(e.recoveries));
      f.add(e.lateral_mean_cm);
      f.add(e.final_pose_error_m);
    }
  }
  return f.value();
}

Report frontier_smoke(const Options& o) {
  Report rep;
  std::vector<double> setup_times;
  auto setup = repeated_setup<FrontierSetup>(
      o.smoke ? 1 : kSetupRepsLight, true, setup_times,
      [&] { return make_frontier_setup(o, nullptr); });
  const frontier::FrontierSearchConfig& config = setup->config;
  const int repeats = o.smoke ? 1 : units_for(o.seconds, kFrontierJobS);

  frontier::FrontierResult result;
  std::vector<double> job_walls;
  bool repeats_identical = true;
  const double cpu0 = process_cpu_s();
  for (int i = 0; i < repeats; ++i) {
    const double t0 = now_s();
    frontier::FrontierResult run = frontier::run_frontier_search(config);
    job_walls.push_back(now_s() - t0);
    if (i > 0) {
      repeats_identical = repeats_identical &&
                          frontier_fingerprint(run) == frontier_fingerprint(result);
    }
    result = std::move(run);
  }
  const double cpu_s = process_cpu_s() - cpu0;
  double wall = 0.0;
  for (const double w : job_walls) wall += w;

  long probes = 0;
  int crashed = 0;
  int survivors = 0;
  double lateral_sum = 0.0;
  double severity_sum = 0.0;
  bool brackets_ok = true;
  bool lengths_ok = true;
  for (const frontier::FrontierPoint& p : result.points) {
    severity_sum += p.censored ? 1.0 : p.breaking_severity;
    brackets_ok = brackets_ok && !p.evaluations.empty() &&
                  (p.censored || p.degenerate || p.bracket_lo < p.bracket_hi);
    const int tc = static_cast<int>(std::distance(
        frontier::frontier_track_classes().begin(),
        std::find(frontier::frontier_track_classes().begin(),
                  frontier::frontier_track_classes().end(), p.track_class)));
    lengths_ok = lengths_ok && p.track_length_m == setup->of(tc).length_m;
    for (const frontier::FrontierEvaluation& e : p.evaluations) {
      ++probes;
      if (!std::isfinite(e.lateral_mean_cm) ||
          !std::isfinite(e.final_pose_error_m)) {
        ++rep.failed;
      }
      if (e.crashed) {
        ++crashed;
      } else {
        lateral_sum += e.lateral_mean_cm;
        ++survivors;
      }
    }
  }
  rep.attempted = probes * repeats;
  rep.failed *= repeats;

  add_common(rep, setup_times, wall, cpu_s);
  rep.metric("job_wall_s", median_of(job_walls), "s");
  rep.metric("error_cm", survivors > 0 ? lateral_sum / survivors : 0.0, "cm");
  rep.metric("crash_frac",
             crashed / static_cast<double>(std::max<long>(probes, 1)),
             "fraction");
  rep.metric("frontier_mean_sev",
             severity_sum /
                 static_cast<double>(std::max<std::size_t>(result.points.size(), 1)),
             "severity");
  const std::uint64_t result_fp = frontier_fingerprint(result);
  rep.fingerprint = hex(result_fp);
  rep.notes.push_back("frontier: " + std::to_string(result.points.size()) +
                      " combinations, " + std::to_string(probes) +
                      " probes x " + std::to_string(repeats) + " jobs, " +
                      std::to_string(kJobLanes) + " search lanes");
  rep.check("point_count",
            result.points.size() == config.localizers.size() *
                                        config.axes.size() *
                                        config.track_classes.size());
  rep.check("brackets_consistent", brackets_ok);
  rep.check("track_metadata_matches", lengths_ok);
  rep.check("results_finite", rep.failed == 0);
  rep.check("repeats_identical", repeats_identical);

  if (o.trace) {
    Tracer setup_tracer;
    auto fresh = make_frontier_setup(o, &setup_tracer);
    std::mutex mutex;  // guards everything below until the search returns
    Tracer work;
    LayerCounters counters;
    json::Value ops = json::Value::array();
    double ops_total = 0.0;
    std::vector<std::uint32_t> lane_threads{
        telemetry::TraceBuffer::this_thread_id()};
    std::vector<double> lane_busy(1, 0.0);

    const auto evaluate = [&](const std::string& kind,
                              const frontier::SampledScenario& scenario) {
      const double t0 = now_s();
      Tracer tracer;
      ExperimentConfig experiment = config.experiment;
      StackSpec spec;
      spec.kind = kind;
      spec.n_particles = config.n_particles;
      spec.filter_threads = config.cell_threads;
      spec.budget_ms = config.budget_ms;
      spec.enforce_budget = scenario.axis == "compute_pressure";
      spec.fault_seed = config.fault_seed;
      const FrontierClass& fc = fresh->of(scenario.key.track_class);
      Stack stack{spec, fc.map, experiment.lidar, &tracer};
      if (scenario.severity > 0.0) {
        stack.pipeline().add(fault::make_injector(scenario.axis, scenario.profile));
      }
      std::unique_ptr<MirroredRunner> runner;
      {
        Scope span{&tracer, Span::kSetupRunnerCtor};
        runner = std::make_unique<MirroredRunner>(fc.track, experiment);
      }
      // Like table1: stage sums from CartoLite probes only.
      telemetry::MetricsRegistry registry;
      const telemetry::Sink sink = stack.synpf() != nullptr
                                       ? telemetry::Sink{}
                                       : telemetry::Sink{&registry, nullptr};
      const ExperimentResult r = runner->run(stack.top(), sink, &tracer);
      frontier::FrontierEvaluation eval;
      eval.crashed = r.crashed;
      eval.divergence_episodes = r.divergence_episodes;
      eval.recoveries = r.recoveries;
      eval.lateral_mean_cm = r.lateral_mean_cm;
      eval.final_pose_error_m = r.final_pose_error_m;
      eval.failed = r.crashed || !r.recovered;
      LayerCounters c;
      c.add(registry, stack.governed());
      const double wall_s = now_s() - t0;

      const std::uint32_t tid = telemetry::TraceBuffer::this_thread_id();
      std::lock_guard lock{mutex};
      std::size_t lane = 0;
      while (lane < lane_threads.size() && lane_threads[lane] != tid) ++lane;
      if (lane == lane_threads.size()) {
        lane_threads.push_back(tid);
        lane_busy.push_back(0.0);
      }
      lane_busy[lane] += wall_s;
      work.merge(tracer);
      counters.merge(c);
      ops_total += wall_s;
      ops.push_back(op_record(kind + "/" + scenario.label(), wall_s, tracer));
      return eval;
    };
    const double job0 = now_s();
    const frontier::FrontierResult traced =
        frontier::run_frontier_search(config, evaluate);
    const double job_wall = now_s() - job0;
    rep.check("traced_equals_untraced", frontier_fingerprint(traced) == result_fp);
    LayerInputs in;
    in.setup = &setup_tracer;
    in.work = &work;
    in.counters = counters;
    in.ops_total_s = ops_total;
    in.traced_job_s = job_wall;
    in.untraced_job_s = median_of(job_walls);
    in.lane_busy_s = lane_busy;
    add_per_layer(in, rep);
    rep.trace_doc.set("ops", std::move(ops));
  }
  return rep;
}

}  // namespace

std::uint64_t derived_fault_seed(std::uint64_t seed) {
  return 0x7a017ULL + (seed - 1234U);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"replay_lut", "table1",
                                              "matrix_smoke", "frontier_smoke"};
  return names;
}

Report run_workload(const Options& options) {
  if (options.workload == "replay_lut") return replay_lut(options);
  if (options.workload == "table1") return table1(options);
  if (options.workload == "matrix_smoke") return matrix_smoke(options);
  if (options.workload == "frontier_smoke") return frontier_smoke(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace e2e
