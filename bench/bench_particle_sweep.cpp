/// \file bench_particle_sweep.cpp
/// \brief Particle-count ablation (DESIGN.md experiment A3): localization
/// accuracy and per-scan latency of SynPF as the particle count grows —
/// the accuracy/latency trade-off behind the paper's 1.25 ms operating
/// point. Runs under low-quality odometry (mu = 0.55), where the filter
/// must actually spend its particles on absorbing slip.
///
/// A second table sweeps the worker-lane count (DESIGN.md §9): one trace is
/// recorded once and replayed open-loop per (particles x threads) cell, so
/// every cell scores byte-identical sensor data and the speedup column
/// isolates the pool. Estimates are bitwise thread-count-invariant, so the
/// table only moves in the latency columns.
///
/// A third table measures per-stage sensor-update throughput
/// (beams*particles/sec for predict / raycast / weight / update) per SIMD
/// backend and lane count on the paper's default LUT pipeline, emitted as
/// a `srl.bench_throughput/2` JSON document (eval/throughput_json.hpp) —
/// the artifact the CI perf-smoke job gates against a committed baseline.
/// Every replay is fingerprinted (FNV over the estimate bits) and the run
/// hard-fails if any backend or lane count moves a bit: the throughput
/// table doubles as a scalar-vs-AVX2 determinism witness.
///
/// Usage: bench_particle_sweep [throughput.json]
///   SRL_THROUGHPUT_ONLY=1 skips the A3 + thread-scaling tables (CI).

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/fnv1a.hpp"
#include "common/simd.hpp"
#include "eval/artifact.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/table.hpp"
#include "eval/throughput_json.hpp"
#include "eval/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace {

double hist_mean(const srl::telemetry::MetricsRegistry& reg,
                 const char* name) {
  const srl::telemetry::Histogram* h = reg.find_histogram(name);
  return h != nullptr ? h->mean() : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace srl;
  using namespace srl::benchutil;

  const bool throughput_only = knob_uint("SRL_THROUGHPUT_ONLY", 0, 0, 1) != 0;
  const int laps = bench_laps(2);
  const Track track = TrackGenerator::test_track();
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  const LidarConfig lidar{};

  if (!throughput_only) {
    std::vector<int> counts = {250, 500, 1000, 2000, 4000};
    if (fast_mode()) counts = {500, 2000};

    std::cout << "bench_particle_sweep (" << laps
              << " laps per cell, mu = 0.55)\n";

    TextTable table{{"particles", "Err mu [cm]", "PoseRMSE [cm]",
                     "update [ms]", "load [%]", "crashed"}};

    for (const int n : counts) {
      CellRecipe recipe = cell_recipe("SynPF", 0.55, laps);
      recipe.stack.n_particles = n;
      std::cout << "  n=" << n << " ..." << std::flush;
      const ExperimentResult r = run_cell(recipe, track, map).result;
      std::cout << " done\n";
      table.add_row({std::to_string(n), TextTable::num(r.lateral_mean_cm, 2),
                     TextTable::num(r.pose_rmse_m * 100.0, 2),
                     TextTable::num(r.mean_update_ms, 2),
                     TextTable::num(r.load_percent, 2),
                     r.crashed ? "yes" : "no"});
    }
    std::cout << "\n" << table.render();
    std::cout << "\nexpected shape: accuracy saturates while latency grows "
                 "linearly — the paper operates at the knee (~1-2 ms)\n";
  }

  // One recorded trace feeds both the thread-scaling table and the
  // throughput table: every cell replays byte-identical sensor data.
  SensorTrace scaling_trace;
  std::uint64_t trace_seed = 0;
  {
    ExperimentConfig tcfg;
    tcfg.mu = 0.55;
    tcfg.laps = 1;
    tcfg.max_sim_time = fast_mode() ? 10.0 : 20.0;
    trace_seed = tcfg.seed;
    ExperimentRunner runner{track, tcfg};
    DeadReckoning driver;
    runner.run(driver, &scaling_trace);
  }

  // ---- Thread-scaling sweep (open-loop replay of one recorded trace) ----
  if (!throughput_only) {
    std::vector<int> scale_counts = {500, 1500, 4000};
    std::vector<int> thread_counts = {1, 2, 4, 8};
    if (fast_mode()) {
      scale_counts = {1500};
      thread_counts = {1, 4};
    }

    std::cout << "\nbench thread scaling (" << scaling_trace.scans().size()
              << "-scan replay per cell, one untimed warm-up pass each; "
                 "estimates are bitwise identical across the threads column "
                 "by construction)\n";

    TextTable scale_table{{"particles", "threads", "update p50 [ms]",
                           "predict [ms]", "raycast [ms]", "weight [ms]",
                           "speedup"}};

    for (const int n : scale_counts) {
      double p50_serial = 0.0;
      for (const int threads : thread_counts) {
        SynPfConfig cfg;
        cfg.range = RangeMethodKind::kCddt;
        cfg.filter.n_particles = n;
        cfg.filter.n_threads = threads;
        SynPf pf{cfg, map, lidar};
        telemetry::MetricsRegistry metrics;  // stage means only, no spans
        const SensorTrace::ReplayResult r =
            replay_warmed(scaling_trace, pf, telemetry::Sink{&metrics});
        if (threads == thread_counts.front()) p50_serial = r.p50_update_ms;
        const double speedup =
            r.p50_update_ms > 0.0 ? p50_serial / r.p50_update_ms : 0.0;
        scale_table.add_row(
            {std::to_string(n), std::to_string(threads),
             TextTable::num(r.p50_update_ms, 3),
             TextTable::num(hist_mean(metrics, "pf.predict_ms"), 3),
             TextTable::num(hist_mean(metrics, "pf.raycast_ms"), 3),
             TextTable::num(hist_mean(metrics, "pf.weight_ms"), 3),
             TextTable::num(speedup, 2)});
      }
    }
    std::cout << "\n" << scale_table.render();
    std::cout << "\nexpected shape: raycast/weight shrink ~linearly with "
                 "threads until chunks get cache-small; predict follows; "
                 "resample (serial by design) bounds the asymptote\n";
  }

  // ---- Per-stage throughput per SIMD backend (srl.bench_throughput/2) ----
  // The paper-default pipeline (LUT range method, 60 scored beams): replay
  // the recorded trace per (backend x particles x threads) cell with one
  // untimed warm-up, read the per-stage histograms, and fingerprint the
  // estimates. All cells of one particle count must hash identically —
  // the SoA kernels promise bitwise-equal lanes on every backend and lane
  // count, and this run enforces it before any rate is reported.
  std::vector<int> tp_counts = {1500, 4000};
  std::vector<int> tp_threads = {1, 4, 8};
  if (fast_mode()) {
    tp_counts = {1500};
    tp_threads = {1, 4};
  }
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::cpu_has_avx2()) backends.push_back(simd::Backend::kAvx2);

  ThroughputDocument doc;
  json::Value& prov = doc.provenance;
  prov = artifact_provenance(fast_mode());
  prov.set("seed", json::Value::number(static_cast<double>(trace_seed)));
  prov.set("laps", json::Value::number(1));
  prov.set("hardware_threads",
           json::Value::number(std::thread::hardware_concurrency()));
  doc.simd_active = simd::name(simd::active());
  doc.avx2_available = simd::cpu_has_avx2();
  doc.n_scans = static_cast<int>(scaling_trace.scans().size());

  std::cout << "\nbench sensor-update throughput ("
            << scaling_trace.scans().size()
            << "-scan LUT replay per cell, backends:";
  for (const simd::Backend b : backends) std::cout << " " << simd::name(b);
  std::cout << ")\n";

  TextTable tp_table{{"simd", "particles", "threads", "stage", "mean [ms]",
                      "items/s"}};
  std::uint64_t doc_hash = kFnv1aOffset;
  bool hashes_ok = true;

  for (const int n : tp_counts) {
    std::uint64_t reference_hash = 0;
    bool have_reference = false;
    for (const simd::Backend backend : backends) {
      for (const int threads : tp_threads) {
        simd::force(backend);
        SynPfConfig cfg;  // paper defaults: kLut range method, 60 beams
        cfg.filter.n_particles = n;
        cfg.filter.n_threads = threads;
        SynPf pf{cfg, map, lidar};
        telemetry::MetricsRegistry metrics;  // stage means only, no spans
        const SensorTrace::ReplayResult r =
            replay_warmed(scaling_trace, pf, telemetry::Sink{&metrics});
        simd::reset();

        const std::uint64_t hash = estimates_hash(r.estimates);
        if (!have_reference) {
          reference_hash = hash;
          have_reference = true;
        } else if (hash != reference_hash) {
          std::fprintf(stderr,
                       "FAIL simd=%s n=%d t=%d: estimate hash %016llx "
                       "diverges from the cell's reference %016llx — "
                       "backends/lane counts are not bitwise identical\n",
                       simd::name(backend), n, threads,
                       static_cast<unsigned long long>(hash),
                       static_cast<unsigned long long>(reference_hash));
          hashes_ok = false;
        }
        doc_hash = fnv1a(doc_hash, hash);

        const double items =
            static_cast<double>(cfg.beams) * static_cast<double>(n);
        const auto add_stage = [&](const char* stage, double mean_ms) {
          ThroughputCell cell;
          cell.stage = stage;
          cell.simd = simd::name(backend);
          cell.particles = n;
          cell.threads = threads;
          cell.beams = cfg.beams;
          cell.mean_ms = mean_ms;
          cell.items_per_sec =
              mean_ms > 0.0 ? items / (mean_ms / 1000.0) : 0.0;
          cell.hash = hash;
          tp_table.add_row({cell.simd, std::to_string(n),
                            std::to_string(threads), stage,
                            TextTable::num(mean_ms, 4),
                            TextTable::num(cell.items_per_sec, 0)});
          doc.cells.push_back(std::move(cell));
        };
        add_stage("predict", hist_mean(metrics, "pf.predict_ms"));
        add_stage("raycast", hist_mean(metrics, "pf.raycast_ms"));
        add_stage("weight", hist_mean(metrics, "pf.weight_ms"));
        add_stage("update", hist_mean(metrics, "synpf.update_ms"));
      }
    }
  }
  doc.determinism_hash = doc_hash;
  std::cout << "\n" << tp_table.render();

  // Headline: whole-update speedup of the vector backend, per cell pair.
  for (const int n : tp_counts) {
    for (const int threads : tp_threads) {
      double scalar_ms = 0.0;
      double avx2_ms = 0.0;
      for (const ThroughputCell& cell : doc.cells) {
        if (cell.stage != "update" || cell.particles != n ||
            cell.threads != threads) {
          continue;
        }
        (cell.simd == "scalar" ? scalar_ms : avx2_ms) = cell.mean_ms;
      }
      if (scalar_ms > 0.0 && avx2_ms > 0.0) {
        std::printf("  update speedup avx2/scalar n=%d t=%d: %.2fx "
                    "(%.4f ms -> %.4f ms)\n",
                    n, threads, scalar_ms / avx2_ms, scalar_ms, avx2_ms);
      }
    }
  }

  const std::string json_path =
      argc > 1 ? argv[1] : out_path("BENCH_throughput.json");
  if (!throughput_to_json(doc).save(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::cout << "wrote " << json_path << " (" << kBenchThroughputSchema
            << ", determinism hash "
            << json::format_hex64(doc.determinism_hash) << ")\n";

  if (!hashes_ok) {
    std::fprintf(stderr, "throughput determinism check FAILED — see above\n");
    return 1;
  }
  return 0;
}
