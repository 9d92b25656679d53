#include "eval/bench_compare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "eval/artifact.hpp"
#include "eval/benchmark_json.hpp"
#include "eval/frontier/frontier_json.hpp"
#include "eval/throughput_json.hpp"

namespace srl {
namespace {

CompareReport compare(const json::Value& baseline, const json::Value& candidate,
                      GateMode mode = GateMode::kBaseline) {
  std::string error;
  const std::optional<CompareReport> report =
      compare_artifacts(baseline, candidate, mode, error);
  EXPECT_TRUE(report.has_value()) << error;
  return report.value_or(CompareReport{});
}

bool any_note_has(const CompareReport& report, const std::string& text) {
  for (const std::string& note : report.notes) {
    if (note.find(text) != std::string::npos) return true;
  }
  return false;
}

/// Write to disk and load back: what the gate reads is what CI reads.
json::Value through_disk(const json::Value& doc, const char* name) {
  const std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(doc.save(path));
  std::optional<json::Value> back = json::Value::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(back.has_value());
  return back.value_or(json::Value{});
}

// ---------------------------------------------------------------------------
// Robustness artifact (`srl.bench_robustness`)
// ---------------------------------------------------------------------------

BenchDocument make_doc() {
  BenchDocument doc;
  doc.provenance = artifact_provenance(true);

  FaultTraceFingerprint fp;
  fp.fault = "odom_slip_ramp";
  fp.severity = 1.0;
  fp.trace_hash = 0xfeedfacecafebeefULL;  // exercises the full 64-bit width
  fp.n_scans = 400;
  fp.n_odometry = 1000;
  doc.fault_traces.push_back(fp);

  auto cell = [](const char* localizer, const char* fault, double severity,
                 double lateral_cm, double p99_ms, bool crashed) {
    ScenarioCell c;
    c.localizer = localizer;
    c.scenario.fault = fault;
    c.scenario.severity = severity;
    c.result.lateral_mean_cm = lateral_cm;
    c.result.update_p99_ms = p99_ms;
    c.result.crashed = crashed;
    c.result.recovered = !crashed;
    c.ess_fraction_p50 = 0.31;
    return c;
  };
  doc.cells.push_back(cell("SynPF", "none", 0.0, 4.5, 6.0, false));
  doc.cells.push_back(cell("SynPF", "odom_slip_ramp", 1.0, 5.0, 6.5, false));
  doc.cells.push_back(cell("CartoLite", "none", 0.0, 8.0, 9.0, false));
  doc.cells.push_back(cell("CartoLite", "odom_slip_ramp", 1.0, 0.0, 9.0, true));

  ScenarioCell kidnap = cell("SynPF+Recovery", "kidnap", 1.0, 5.2, 6.8, false);
  kidnap.result.kidnaps_applied = 1;
  kidnap.result.divergence_episodes = 1;
  kidnap.result.recoveries = 1;
  kidnap.result.time_to_relocalize_mean_s = 0.5;
  kidnap.result.time_to_relocalize_max_s = 0.5;
  kidnap.result.post_divergence_lateral_cm = 5.0;
  kidnap.reinjections = 1;
  kidnap.global_relocs = 1;
  kidnap.recovery_transitions = 4;
  doc.cells.push_back(kidnap);

  ScenarioCell governed =
      cell("SynPF+Governor", "compute_pressure", 1.0, 5.0, 3.0, false);
  governed.governed = true;
  governed.governor_shed = true;
  governed.budget_ms = 2.0;
  governed.governor_updates = 1000;
  governed.shed_beam_updates = 40;
  governed.governor_cost_p50 = 50000.0;
  governed.governor_cost_p99 = 60000.0;
  doc.cells.push_back(governed);

  doc.headline.emplace();
  doc.headline->fault = "odom_slip_ramp";
  doc.headline->severity = 1.0;
  doc.headline->synpf_baseline_cm = 4.5;
  doc.headline->synpf_faulted_cm = 5.0;
  doc.headline->synpf_degradation = 5.0 / 4.5;
  doc.headline->carto_baseline_cm = 8.0;
  doc.headline->carto_crashed = true;
  doc.headline->carto_degradation = HeadlineComparison::kCrashDegradation;

  doc.governor_headline.emplace();
  doc.governor_headline->severity = 1.0;
  doc.governor_headline->budget_ms = 2.0;
  doc.governor_headline->governed_shed_updates = 40;
  doc.governor_headline->enforcer_misses = 253;
  return doc;
}

constexpr int kBenchRows = 6 + 1 + 1;  // cells, fault traces, governor headline

CompareReport compare(const BenchDocument& baseline,
                      const BenchDocument& candidate,
                      GateMode mode = GateMode::kBaseline) {
  return compare(bench_to_json(baseline), bench_to_json(candidate), mode);
}

TEST(BenchJson, WriterEmitsWhatTheGateReads) {
  const json::Value doc =
      through_disk(bench_to_json(make_doc()), "bench_roundtrip.json");
  EXPECT_EQ(doc.find("schema")->as_string(), kBenchRobustnessSchema);
  // 64-bit fingerprints travel as hex strings: a double would lose bits.
  const json::Value* traces = doc.find("fault_traces");
  ASSERT_EQ(traces->size(), 1u);
  EXPECT_EQ(traces->at(0)->find("trace_hash")->as_string(),
            "0xfeedfacecafebeef");
  const json::Value* cells = doc.find("cells");
  ASSERT_EQ(cells->size(), 6u);
  EXPECT_EQ(cells->at(1)->find("lateral_mean_cm")->as_double(), 5.0);
  EXPECT_TRUE(cells->at(3)->find("crashed")->as_bool());
  EXPECT_TRUE(cells->at(4)->find("recovery_success")->as_bool());
  EXPECT_EQ(cells->at(4)->find("time_to_reloc_mean_s")->as_double(), 0.5);
  // Only governed cells carry the governor block.
  EXPECT_EQ(cells->at(0)->find("governor"), nullptr);
  EXPECT_EQ(cells->at(5)->find("governor")->find("cost_units_p99")->as_double(),
            60000.0);
  EXPECT_TRUE(doc.find("headline")->find("synpf_flat")->as_bool());
  EXPECT_TRUE(doc.find("governor_headline")->find("graceful")->as_bool());

  const CompareReport report = compare(doc, doc, GateMode::kRerun);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows_compared, kBenchRows);
}

TEST(BenchCompare, SelfCompareIsCleanInBothModes) {
  const BenchDocument doc = make_doc();
  for (GateMode mode : {GateMode::kBaseline, GateMode::kRerun}) {
    const CompareReport report = compare(doc, doc, mode);
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.notes.empty());
    EXPECT_EQ(report.rows_compared, kBenchRows);
  }
}

TEST(BenchCompare, PerturbationBeyondThresholdNamesTheMetric) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  // 4.5 -> 20 cm: past the 50 % + 5 cm allowance (limit 11.75).
  candidate.cells[0].result.lateral_mean_cm = 20.0;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF/none@0");
  EXPECT_EQ(report.failures[0].metric, "lateral_mean_cm");
  EXPECT_EQ(report.failures[0].candidate.as_double(), 20.0);
  EXPECT_EQ(report.failures[0].expected, "<= 11.75");
  EXPECT_NE(report.failures[0].describe().find("lateral_mean_cm"),
            std::string::npos);
}

TEST(BenchCompare, WithinThresholdPasses) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[0].result.lateral_mean_cm = 11.0;  // < 4.5 * 1.5 + 5
  candidate.cells[0].result.update_p99_ms = 49.0;    // < 6.0 * 5 + 20
  EXPECT_TRUE(compare(baseline, candidate).ok());

  candidate.cells[0].result.update_p99_ms = 51.0;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "timing.update_p99_ms");
}

TEST(BenchCompare, MissingCellIsARegression) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells.erase(candidate.cells.begin() + 2);
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "CartoLite/none@0");
  EXPECT_EQ(report.failures[0].metric, "row");
}

TEST(BenchCompare, NewUngovernedCrashFailsOnlyTheRerun) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[1].result.crashed = true;
  const CompareReport report = compare(baseline, candidate, GateMode::kRerun);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF/odom_slip_ramp@1");
  EXPECT_EQ(report.failures[0].metric, "crashed");
  // Cross-machine FP drift may flip a marginal ungoverned cell.
  EXPECT_TRUE(compare(baseline, candidate).ok());
}

TEST(BenchCompare, LostRecoveryIsARegression) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[4].result.recovered = false;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF+Recovery/kidnap@1");
  EXPECT_EQ(report.failures[0].metric, "recovery_success");
}

TEST(BenchCompare, CrashedCandidateAlsoLosesRecovery) {
  // A crash in a recovery cell is both a crash and a lost recovery: the
  // recovery rule must not be masked by the crash.
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[4].result.crashed = true;
  candidate.cells[4].result.recovered = false;
  const CompareReport report = compare(baseline, candidate);
  bool saw_recovery = false;
  for (const CompareFailure& f : report.failures) {
    if (f.metric == "recovery_success") saw_recovery = true;
  }
  EXPECT_TRUE(saw_recovery);
  EXPECT_FALSE(report.ok());
}

TEST(BenchCompare, TimeToRelocalizeGateBindsPastTolerance) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  // Limit: 0.5 * (1 + 0.5) + 0.5 = 1.25 s.
  candidate.cells[4].result.time_to_relocalize_mean_s = 1.2;
  EXPECT_TRUE(compare(baseline, candidate).ok());

  candidate.cells[4].result.time_to_relocalize_mean_s = 2.0;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "time_to_reloc_mean_s");
  EXPECT_EQ(report.failures[0].expected, "<= 1.25");
}

TEST(BenchCompare, CellWithoutRecoveryBlockSkipsRecoveryRules) {
  // A schema-v1 baseline cell has no recovery block, so the candidate's
  // recovery state has nothing to regress from.
  json::Value baseline = bench_to_json(make_doc());
  baseline.set("schema", json::Value::string("srl.bench_robustness/1"));
  const json::Value* cells = baseline.find("cells");
  json::Value stripped_cells = json::Value::array();
  for (std::size_t i = 0; i < cells->size(); ++i) {
    json::Value stripped = json::Value::object();
    for (const auto& [key, value] : cells->at(i)->members()) {
      if (key != "recovery_success" && key != "recoveries" &&
          key != "time_to_reloc_mean_s") {
        stripped.set(key, value);
      }
    }
    stripped_cells.push_back(stripped);
  }
  baseline.set("cells", stripped_cells);

  BenchDocument candidate = make_doc();
  candidate.cells[4].result.recovered = false;
  candidate.cells[4].result.time_to_relocalize_mean_s = 99.0;
  EXPECT_TRUE(compare(baseline, bench_to_json(candidate)).ok());
}

TEST(BenchCompare, RenamedFieldFailsInsteadOfGoingUngated) {
  // A writer that renames a gated field must not silently stop gating it.
  const json::Value baseline = bench_to_json(make_doc());
  json::Value candidate = baseline;
  const json::Value* cells = candidate.find("cells");
  json::Value renamed_cells = json::Value::array();
  for (std::size_t i = 0; i < cells->size(); ++i) {
    json::Value renamed = json::Value::object();
    for (const auto& [key, value] : cells->at(i)->members()) {
      renamed.set(key == "lateral_mean_cm" ? "lateral_cm" : key, value);
    }
    renamed_cells.push_back(renamed);
  }
  candidate.set("cells", renamed_cells);
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 6u);  // one per cell
  EXPECT_EQ(report.failures[0].metric, "lateral_mean_cm");
  EXPECT_EQ(report.failures[0].expected, "in the candidate");
}

TEST(BenchCompare, HashMismatchFailsOnlyOnRerun) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.fault_traces[0].trace_hash ^= 1;  // one bit: still a regression
  EXPECT_TRUE(compare(baseline, candidate).ok());

  const CompareReport report = compare(baseline, candidate, GateMode::kRerun);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "trace_hash");
  EXPECT_EQ(report.failures[0].cell, "fault_traces/odom_slip_ramp@1");
}

TEST(BenchCompare, RerunIgnoresWallClockAndNamesTheDifferingLeaf) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[0].result.update_p99_ms = 600.0;
  candidate.cells[0].result.update_p50_ms = 300.0;
  candidate.cells[0].result.load_percent = 99.0;
  candidate.cells[0].stage_p99_ms = 42.0;
  EXPECT_TRUE(compare(baseline, candidate, GateMode::kRerun).ok());

  candidate = make_doc();
  candidate.cells[0].result.lateral_mean_cm += 1e-12;
  candidate.cells[5].governor_cost_p99 += 1.0;
  const CompareReport report = compare(baseline, candidate, GateMode::kRerun);
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].metric, "lateral_mean_cm");
  EXPECT_EQ(report.failures[1].metric, "governor.cost_units_p99");
  EXPECT_EQ(report.failures[1].cell, "SynPF+Governor/compute_pressure@1");
  // Both stay far inside the gate-mode tolerances.
  EXPECT_TRUE(compare(baseline, candidate).ok());
}

TEST(BenchCompare, ExtraRowFailsOnlyOnRerun) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells.push_back(candidate.cells[0]);
  candidate.cells.back().scenario.fault = "lidar_dropout";
  EXPECT_TRUE(compare(baseline, candidate).ok());  // coverage may grow

  const CompareReport report = compare(baseline, candidate, GateMode::kRerun);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF/lidar_dropout@0");
  EXPECT_EQ(report.failures[0].metric, "row");
}

// ---------------------------------------------------------------------------
// The governor tradeoff plane (governed cells: accuracy vs virtual cost)
// ---------------------------------------------------------------------------

TEST(Tradeoff, DoubledCostPassesWithATenPercentErrorGain) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[5].governor_cost_p99 = 120000.0;  // x2; limit 68000
  candidate.cells[5].result.lateral_mean_cm = 4.5;  // -10 %
  const CompareReport report = compare(baseline, candidate);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(any_note_has(report, "traded for a lateral_mean_cm gain"));
}

TEST(Tradeoff, DoubledCostAloneFails) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[5].governor_cost_p99 = 120000.0;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF+Governor/compute_pressure@1");
  EXPECT_EQ(report.failures[0].metric, "governor.cost_units_p99");
  EXPECT_EQ(report.failures[0].expected, "<= 68000");

  // An error gain short of 5 % buys nothing.
  candidate.cells[5].result.lateral_mean_cm = 4.8;  // -4 %
  EXPECT_FALSE(compare(baseline, candidate).ok());
}

TEST(Tradeoff, AccuracyKeepsItsBoundWhateverComputeItSaves) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[5].result.lateral_mean_cm = 13.0;  // limit 12.5
  candidate.cells[5].governor_cost_p99 = 30000.0;    // half the cost
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "lateral_mean_cm");
}

TEST(Tradeoff, NewlyCrashedGovernedCellFails) {
  // A crash is not a tradeoff, whatever the cost columns say.
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.cells[5].result.crashed = true;
  candidate.cells[5].governor_cost_p99 = 1000.0;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF+Governor/compute_pressure@1");
  EXPECT_EQ(report.failures[0].metric, "crashed");
}

TEST(Tradeoff, MissingOrNonGracefulHeadlineFails) {
  const BenchDocument baseline = make_doc();
  BenchDocument candidate = make_doc();
  candidate.governor_headline->governed_misses = 3;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "governor_headline");
  EXPECT_EQ(report.failures[0].metric, "graceful");

  candidate.governor_headline.reset();
  const CompareReport missing = compare(baseline, candidate);
  ASSERT_EQ(missing.failures.size(), 1u);
  EXPECT_EQ(missing.failures[0].cell, "governor_headline");
  EXPECT_EQ(missing.failures[0].metric, "row");
}

// ---------------------------------------------------------------------------
// Frontier artifact (`srl.frontier`)
// ---------------------------------------------------------------------------

frontier::FrontierDocument make_frontier_doc() {
  frontier::FrontierDocument doc;
  doc.provenance = artifact_provenance(true);
  doc.result.seed = 0xF407;
  doc.result.fault_seed = 0x7a017ULL;
  doc.result.bisect_iterations = 5;
  doc.result.n_particles = 800;

  auto point = [](const char* localizer, const char* axis, double lo,
                  double hi, bool censored) {
    frontier::FrontierPoint p;
    p.localizer = localizer;
    p.axis = axis;
    p.track_class = "club";
    p.censored = censored;
    p.bracket_lo = lo;
    p.bracket_hi = hi;
    p.breaking_severity = censored ? 0.0 : hi;
    p.breaking_index = censored ? 0u : 0x1234u;
    p.track_length_m = 42.5;
    p.track_max_abs_curvature = 0.385;
    frontier::FrontierEvaluation eval;
    eval.index = 0x1234u;
    eval.severity = hi;
    eval.failed = !censored;
    eval.lateral_mean_cm = 7.25;
    eval.final_pose_error_m = 1.5;
    p.evaluations.push_back(eval);
    if (!censored) p.blackboxes.push_back("blackbox/frontier_0.json");
    return p;
  };
  doc.result.points.push_back(
      point("SynPF", "odom_slip_ramp", 0.875, 0.90625, false));
  doc.result.points.push_back(
      point("CartoLite", "odom_slip_ramp", 0.25, 0.28125, false));
  doc.result.points.push_back(point("SynPF", "lidar_dropout", 1.0, 1.0, true));

  doc.headline.emplace();
  doc.headline->axis = "odom_slip_ramp";
  doc.headline->track_class = "club";
  doc.headline->synpf_breaking = 0.90625;
  doc.headline->synpf_bracket_width = 0.03125;
  doc.headline->carto_breaking = 0.28125;
  doc.headline->carto_bracket_width = 0.03125;
  return doc;
}

CompareReport compare(const frontier::FrontierDocument& baseline,
                      const frontier::FrontierDocument& candidate,
                      GateMode mode = GateMode::kBaseline) {
  return compare(frontier::frontier_to_json(baseline),
                 frontier::frontier_to_json(candidate), mode);
}

TEST(FrontierJson, WriterKeepsDyadicSeveritiesExact) {
  const json::Value doc = through_disk(
      frontier::frontier_to_json(make_frontier_doc()), "frontier_rt.json");
  const json::Value* points = doc.find("points");
  ASSERT_EQ(points->size(), 3u);
  // Dyadic severities survive the writer bit-for-bit — the determinism
  // self-compare depends on this.
  const json::Value& p0 = *points->at(0);
  EXPECT_EQ(p0.find("bracket_lo")->as_double(), 0.875);
  EXPECT_EQ(p0.find("bracket_hi")->as_double(), 0.90625);
  EXPECT_EQ(p0.find("breaking_index")->as_double(), 0x1234);
  EXPECT_EQ(
      p0.find("evaluations")->at(0)->find("lateral_mean_cm")->as_double(),
      7.25);
  EXPECT_TRUE(points->at(2)->find("censored")->as_bool());
  EXPECT_EQ(doc.find("provenance")->find("scenario_seed")->as_string(),
            "0x000000000000f407");
  EXPECT_EQ(doc.find("headline")->find("synpf_breaking")->as_double(),
            0.90625);

  const CompareReport report = compare(doc, doc, GateMode::kRerun);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows_compared, 3);
}

TEST(FrontierCompare, GateFiresWhenTheFrontierRecedes) {
  // The synthetic regression the CI gate must catch: SynPF's slip frontier
  // dropping from 0.90625 to 0.5 means the stack now breaks at a severity
  // it used to survive.
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[0].breaking_severity = 0.5;
  candidate.result.points[0].bracket_hi = 0.5;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF/odom_slip_ramp/club#0");
  EXPECT_EQ(report.failures[0].metric, "breaking_severity");
  EXPECT_EQ(report.failures[0].candidate.as_double(), 0.5);
}

TEST(FrontierCompare, LosingACensoredPointIsARegression) {
  // Censored compares as severity 2.0: a candidate that now fails inside
  // the range regressed from "never breaks" to "breaks at 0.9".
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[2].censored = false;
  candidate.result.points[2].breaking_severity = 0.9;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "SynPF/lidar_dropout/club#0");
  EXPECT_EQ(report.failures[0].metric, "breaking_severity");
  EXPECT_EQ(report.failures[0].baseline.as_double(), 2.0);
  EXPECT_EQ(report.failures[0].expected, ">= 2");
}

TEST(FrontierCompare, ImprovementIsNotARegression) {
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[1].breaking_severity = 0.75;
  candidate.result.points[1].bracket_hi = 0.75;
  // Newly censored: the frontier moved beyond the range.
  candidate.result.points[0].censored = true;
  EXPECT_TRUE(compare(baseline, candidate).ok());
}

TEST(FrontierCompare, MissingPointIsARegression) {
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points.pop_back();
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "row");
}

TEST(FrontierCompare, RerunCatchesProbeSequenceDrift) {
  // Same frontier, different path: baseline mode passes, the determinism
  // self-compare must not.
  const frontier::FrontierDocument baseline = make_frontier_doc();
  frontier::FrontierDocument candidate = make_frontier_doc();
  candidate.result.points[0].evaluations[0].lateral_mean_cm += 1e-9;
  EXPECT_TRUE(compare(baseline, candidate).ok());

  const CompareReport report = compare(baseline, candidate, GateMode::kRerun);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "evaluations[0].lateral_mean_cm");
}

// ---------------------------------------------------------------------------
// Throughput artifact (`srl.bench_throughput`)
// ---------------------------------------------------------------------------

ThroughputDocument make_throughput_doc() {
  ThroughputDocument doc;
  doc.provenance = artifact_provenance(true);
  doc.provenance.set("hardware_threads", json::Value::number(4));
  doc.simd_active = "avx2";
  doc.avx2_available = true;
  doc.n_scans = 40;
  doc.determinism_hash = 0x94a6b6be30b22475ULL;

  auto cell = [](const char* stage, const char* simd, int threads,
                 double mean_ms, double rate) {
    ThroughputCell c;
    c.stage = stage;
    c.simd = simd;
    c.particles = 1500;
    c.threads = threads;
    c.beams = 60;
    c.mean_ms = mean_ms;
    c.items_per_sec = rate;
    c.hash = 0xfeedfacecafebeefULL;  // exercises the full 64-bit width
    return c;
  };
  doc.cells.push_back(cell("weight", "scalar", 1, 0.10, 9.0e8));
  doc.cells.push_back(cell("weight", "avx2", 1, 0.05, 1.8e9));
  doc.cells.push_back(cell("update", "scalar", 1, 3.0, 3.0e7));
  doc.cells.push_back(cell("update", "avx2", 4, 2.5, 3.6e7));
  return doc;
}

CompareReport compare(const ThroughputDocument& baseline,
                      const ThroughputDocument& candidate,
                      GateMode mode = GateMode::kBaseline) {
  return compare(throughput_to_json(baseline), throughput_to_json(candidate),
                 mode);
}

TEST(ThroughputJson, WriterEmitsWhatTheGateReads) {
  const json::Value doc =
      through_disk(throughput_to_json(make_throughput_doc()), "tp_rt.json");
  EXPECT_EQ(doc.find("simd_active")->as_string(), "avx2");
  EXPECT_TRUE(doc.find("avx2_available")->as_bool());
  // Hashes travel as hex strings precisely so the full 64 bits survive the
  // double-typed JSON number path.
  EXPECT_EQ(doc.find("determinism_hash")->as_string(), "0x94a6b6be30b22475");
  const json::Value* cells = doc.find("cells");
  ASSERT_EQ(cells->size(), 4u);
  EXPECT_EQ(cells->at(1)->find("hash")->as_string(), "0xfeedfacecafebeef");
  EXPECT_EQ(
      cells->at(1)->find("timing")->find("items_per_sec")->as_double(), 1.8e9);

  const CompareReport report = compare(doc, doc, GateMode::kRerun);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows_compared, 4);
}

TEST(ThroughputCompare, RerunIgnoresRatesButNotFingerprints) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells[0].items_per_sec = 1.0;  // wall clock: free on a rerun
  candidate.cells[0].mean_ms = 1e6;
  const CompareReport clean = compare(baseline, candidate, GateMode::kRerun);
  EXPECT_TRUE(clean.ok());
  EXPECT_TRUE(clean.notes.empty());

  candidate = make_throughput_doc();
  candidate.cells[1].hash ^= 1;  // one bit: a determinism break
  EXPECT_TRUE(compare(baseline, candidate).ok());  // per build, not gated
  const CompareReport report = compare(baseline, candidate, GateMode::kRerun);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "hash");
  EXPECT_EQ(report.failures[0].cell, "weight simd=avx2 n=1500 t=1");
}

TEST(ThroughputCompare, RateCollapseFailsPastTolerance) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  // 1.8e9 -> 3e8: below the floor 1.8e9 * (1 - 0.8) = 3.6e8.
  candidate.cells[1].items_per_sec = 3.0e8;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "weight simd=avx2 n=1500 t=1");
  EXPECT_EQ(report.failures[0].metric, "timing.items_per_sec");

  // A drop that stays above the floor passes.
  candidate.cells[1].items_per_sec = 4.0e8;
  EXPECT_TRUE(compare(baseline, candidate).ok());
}

TEST(ThroughputCompare, ImprovementIsANoteNeverAFailure) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells[0].items_per_sec = 9.0e9;  // 10x: past the 1.5x note bar
  const CompareReport report = compare(baseline, candidate);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("weight simd=scalar n=1500 t=1"),
            std::string::npos);
  EXPECT_NE(report.notes[0].find("refreshing the baseline"),
            std::string::npos);
}

TEST(ThroughputCompare, MissingCellIsARegression) {
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells.erase(candidate.cells.begin());  // drop a *scalar* cell
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "row");
  EXPECT_EQ(report.failures[0].cell, "weight simd=scalar n=1500 t=1");
}

TEST(ThroughputCompare, ScalarOnlyHostSkipsAvx2CellsWithANote) {
  // A baseline recorded on an AVX2 box gated against a scalar-only runner:
  // the avx2 rows are skipped loudly, the scalar rows still gate.
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.avx2_available = false;
  candidate.simd_active = "scalar";
  std::vector<ThroughputCell> scalar_cells;
  for (const ThroughputCell& c : candidate.cells) {
    if (c.simd != "avx2") scalar_cells.push_back(c);
  }
  candidate.cells = scalar_cells;
  const CompareReport report = compare(baseline, candidate);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows_compared, 2);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("lacks AVX2"), std::string::npos);

  // But a host that *claims* AVX2 and still lacks the rows regressed.
  candidate.avx2_available = true;
  EXPECT_FALSE(compare(baseline, candidate).ok());
}

TEST(ThroughputCompare, BeamsMismatchIsStructural) {
  // Rates over different work units are not comparable: a beams change is
  // a grid change, caught even when the rate happens to look fine.
  const ThroughputDocument baseline = make_throughput_doc();
  ThroughputDocument candidate = make_throughput_doc();
  candidate.cells[2].beams = 30;
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "beams");
}

/// The fixture plus an avx2 `update` row at 1 lane beside its 4-lane row,
/// from a host with `hardware_threads`: the lane-scaling rule's pair.
ThroughputDocument lane_scaling_doc(double t1_ms, double t4_ms,
                                    int hardware_threads) {
  ThroughputDocument doc = make_throughput_doc();
  doc.provenance.set("hardware_threads", json::Value::number(hardware_threads));
  ThroughputCell one = doc.cells[3];
  one.threads = 1;
  one.mean_ms = t1_ms;
  doc.cells.push_back(one);
  doc.cells[3].mean_ms = t4_ms;
  return doc;
}

TEST(ThroughputCompare, LaneScalingBreachFails) {
  // The pre-fix baseline's shape: 4 lanes 4.8x slower than 1.
  const ThroughputDocument candidate = lane_scaling_doc(0.73, 3.47, 4);
  const CompareReport report =
      compare(lane_scaling_doc(0.73, 0.5, 4), candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cell, "update simd=avx2 n=1500 t=4");
  EXPECT_EQ(report.failures[0].metric, "timing.mean_ms");
  EXPECT_EQ(report.failures[0].baseline.as_double(), 0.73);
  EXPECT_EQ(report.failures[0].candidate.as_double(), 3.47);
  // Wall clock within one run: a rerun never judges it.
  EXPECT_TRUE(compare(candidate, candidate, GateMode::kRerun).ok());
}

TEST(ThroughputCompare, LaneScalingWithinBoundPasses) {
  const ThroughputDocument baseline = lane_scaling_doc(0.73, 0.5, 4);
  // 0.80 / 0.73 = 1.096 <= 1.1; a slower 4-lane row than the baseline's is
  // no concern of this rule.
  const CompareReport report =
      compare(baseline, lane_scaling_doc(0.73, 0.80, 4));
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.notes.empty());
  EXPECT_FALSE(compare(baseline, lane_scaling_doc(0.73, 0.81, 4)).ok());
}

TEST(ThroughputCompare, LaneScalingSkipsSmallHostsWithANote) {
  // Two hardware threads cannot run four lanes at speed: no verdict.
  const CompareReport report =
      compare(lane_scaling_doc(0.73, 0.5, 4), lane_scaling_doc(0.73, 3.47, 2));
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("lane scaling not judged"), std::string::npos);
  EXPECT_NE(report.notes[0].find("2 hardware threads"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Document-level rules and malformed input: exit 2 or a named failure,
// never a crash and never a silent pass
// ---------------------------------------------------------------------------

/// `doc` with member `field` of row `index` of `table` set to `value`, or
/// erased when `value` is null.
json::Value with_row_field(json::Value doc, const char* table,
                           std::size_t index, const std::string& field,
                           const json::Value* value) {
  const json::Value* old = doc.find(table);
  json::Value rows = json::Value::array();
  for (std::size_t i = 0; i < old->size(); ++i) {
    if (i != index) {
      rows.push_back(*old->at(i));
      continue;
    }
    json::Value row = json::Value::object();
    for (const auto& [name, v] : old->at(i)->members()) {
      if (name != field) {
        row.set(name, v);
      } else if (value != nullptr) {
        row.set(name, *value);
      }
    }
    rows.push_back(std::move(row));
  }
  doc.set(table, std::move(rows));
  return doc;
}

bool any_failure(const CompareReport& report, const std::string& cell,
                 const std::string& metric) {
  for (const CompareFailure& f : report.failures) {
    if (f.cell == cell && f.metric == metric) return true;
  }
  return false;
}

TEST(Gate, UnknownSchemaIsAUsageError) {
  json::Value foreign = json::Value::object();
  foreign.set("schema", json::Value::string("someone/elses/2"));
  foreign.set("cells", json::Value::array());
  std::string error;
  for (GateMode mode : {GateMode::kBaseline, GateMode::kRerun}) {
    EXPECT_FALSE(compare_artifacts(foreign, foreign, mode, error).has_value());
    EXPECT_NE(error.find("someone/elses/2"), std::string::npos);
  }
  // Not even a document: no schema to pick a policy by.
  EXPECT_FALSE(compare_artifacts(json::Value::array(), json::Value::number(1),
                                 GateMode::kBaseline, error)
                   .has_value());
}

TEST(Gate, DifferingFamiliesAreAUsageError) {
  const json::Value bench = bench_to_json(make_doc());
  const json::Value frontier_doc =
      frontier::frontier_to_json(make_frontier_doc());
  std::string error;
  EXPECT_FALSE(compare_artifacts(bench, frontier_doc, GateMode::kRerun, error)
                   .has_value());
  EXPECT_NE(error.find("srl.frontier/1"), std::string::npos);
  // Versions of one family compare: the rules name fields, not versions.
  json::Value older = bench;
  older.set("schema", json::Value::string("srl.bench_robustness/3"));
  EXPECT_TRUE(compare(older, bench).ok());
  const CompareReport rerun = compare(older, bench, GateMode::kRerun);
  ASSERT_EQ(rerun.failures.size(), 1u);
  EXPECT_EQ(rerun.failures[0].metric, "schema");
}

TEST(Gate, TableThatIsNotAnArrayFails) {
  const json::Value baseline = bench_to_json(make_doc());
  json::Value candidate = baseline;
  candidate.set("cells", json::Value::object());
  for (GateMode mode : {GateMode::kBaseline, GateMode::kRerun}) {
    const CompareReport report = compare(baseline, candidate, mode);
    EXPECT_TRUE(any_failure(report, "candidate cells", "table"));
    EXPECT_TRUE(any_failure(report, "SynPF/none@0", "row"));
  }
  json::Value scalar_rows = baseline;
  json::Value rows = json::Value::array();
  rows.push_back(json::Value::number(1.0));
  scalar_rows.set("cells", std::move(rows));
  EXPECT_TRUE(any_failure(compare(baseline, scalar_rows), "candidate cells[0]",
                          "row"));
}

TEST(Gate, MissingOrMistypedKeyFieldFails) {
  const json::Value baseline = bench_to_json(make_doc());
  const json::Value missing =
      with_row_field(baseline, "cells", 0, "severity", nullptr);
  const json::Value text = json::Value::string("0");
  const json::Value mistyped =
      with_row_field(baseline, "cells", 0, "severity", &text);
  for (GateMode mode : {GateMode::kBaseline, GateMode::kRerun}) {
    const CompareReport report = compare(baseline, missing, mode);
    EXPECT_TRUE(any_failure(report, "candidate cells[0]", "severity"));
    EXPECT_TRUE(any_failure(report, "SynPF/none@0", "row"));
    // "0" reads like 0 but is not the baseline's key: the row is missing.
    EXPECT_TRUE(any_failure(compare(baseline, mistyped, mode), "SynPF/none@0",
                            "row"));
  }
}

TEST(Gate, StringWhereANumberIsGatedFails) {
  const json::Value baseline = bench_to_json(make_doc());
  const json::Value text = json::Value::string("4.5");
  const json::Value candidate =
      with_row_field(baseline, "cells", 0, "lateral_mean_cm", &text);
  const CompareReport report = compare(baseline, candidate);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].metric, "lateral_mean_cm");
  EXPECT_EQ(report.failures[0].expected, "a number");
  EXPECT_TRUE(any_failure(compare(baseline, candidate, GateMode::kRerun),
                          "SynPF/none@0", "lateral_mean_cm"));
  // Flags are typed too: 1 is not `true`.
  const json::Value one = json::Value::number(1.0);
  const CompareReport flag = compare(
      baseline, with_row_field(baseline, "cells", 4, "recovery_success", &one));
  ASSERT_EQ(flag.failures.size(), 1u);
  EXPECT_EQ(flag.failures[0].expected, "a boolean");
}

TEST(Gate, ComparingNothingFails) {
  ThroughputDocument empty = make_throughput_doc();
  empty.cells.clear();
  for (GateMode mode : {GateMode::kBaseline, GateMode::kRerun}) {
    const CompareReport report = compare(empty, empty, mode);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].cell, "document");
  }
}

// ---------------------------------------------------------------------------
// The committed baselines
// ---------------------------------------------------------------------------

// A rule whose field the baseline lacks is not judged, so a baseline left at
// an older schema would let through any regression in a field that moved.
TEST(Baselines, EachCarriesItsWritersSchema) {
  const std::pair<const char*, const char*> baselines[] = {
      {"BENCH_robustness.baseline.json", kBenchRobustnessSchema},
      {"BENCH_frontier.baseline.json", frontier::kFrontierSchema},
      {"BENCH_throughput.baseline.json", kBenchThroughputSchema},
  };
  for (const auto& [file, schema] : baselines) {
    const std::optional<json::Value> doc =
        json::Value::load(std::string(SRL_BASELINE_DIR) + "/" + file);
    ASSERT_TRUE(doc.has_value()) << file;
    EXPECT_EQ(json::str_field(*doc, "schema"), schema) << file;
  }
}

// ---------------------------------------------------------------------------
// Field coverage: a rerun names every field a writer emits, so a metric
// added later cannot slip past the determinism gate
// ---------------------------------------------------------------------------

/// Copy of `v` with its n-th leaf (depth first) changed; leaves are scalars
/// and empty containers. `n` counts down past the changed leaf, whose path
/// ("cells[5].governor.mode") lands in `path`.
json::Value change_leaf(const json::Value& v, const std::string& here, int& n,
                        std::string& path) {
  if (v.is_object() && v.size() > 0) {
    json::Value out = json::Value::object();
    for (const auto& [name, member] : v.members()) {
      out.set(name,
              change_leaf(member, here.empty() ? name : here + "." + name, n,
                          path));
    }
    return out;
  }
  if (v.is_array() && v.size() > 0) {
    json::Value out = json::Value::array();
    for (std::size_t i = 0; i < v.size(); ++i) {
      out.push_back(change_leaf(*v.at(i), here + "[" + std::to_string(i) + "]",
                                n, path));
    }
    return out;
  }
  if (n-- != 0) return v;
  path = here;
  if (v.is_bool()) return json::Value::boolean(!v.as_bool());
  if (v.is_number()) return json::Value::number(v.as_double() + 1.0);
  if (v.is_string()) return json::Value::string(v.as_string() + "x");
  return json::Value::number(1.0);  // an empty array or object
}

bool in(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Change each leaf of `doc` outside `provenance`, one at a time: a rerun
/// must pass exactly when the leaf is in a row's `timing`, and otherwise
/// name it (a changed key field renames its row, so names the row).
void expect_rerun_names_every_field(const json::Value& doc,
                                    const std::vector<std::string>& keys) {
  int changed = 0;
  for (int index = 0;; ++index) {
    int n = index;
    std::string path;
    const json::Value candidate = change_leaf(doc, "", n, path);
    if (path.empty()) break;  // past the last leaf
    if (path.starts_with("provenance.")) continue;
    ++changed;
    const std::string field = path.substr(path.find_last_of(".]") + 1);
    const CompareReport report = compare(doc, candidate, GateMode::kRerun);
    if (path.find("].timing.") != std::string::npos) {
      EXPECT_TRUE(report.ok()) << path << " is wall clock";
      continue;
    }
    bool named = false;
    for (const CompareFailure& f : report.failures) {
      named = named || f.metric == path || path.ends_with("." + f.metric) ||
              (f.metric == "row" && in(keys, field));
    }
    EXPECT_TRUE(named) << path << " changed, but the rerun did not name it";
  }
  EXPECT_GT(changed, 20);
}

TEST(FieldCoverage, RerunNamesEveryRobustnessField) {
  expect_rerun_names_every_field(bench_to_json(make_doc()),
                                 {"localizer", "fault", "severity"});
}

TEST(FieldCoverage, RerunNamesEveryFrontierField) {
  expect_rerun_names_every_field(
      frontier::frontier_to_json(make_frontier_doc()),
      {"localizer", "axis", "track_class", "variant"});
}

TEST(FieldCoverage, RerunNamesEveryThroughputField) {
  expect_rerun_names_every_field(throughput_to_json(make_throughput_doc()),
                                 {"stage", "simd", "particles", "threads"});
}

}  // namespace
}  // namespace srl
