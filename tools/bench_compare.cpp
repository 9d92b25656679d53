/// \file bench_compare.cpp
/// \brief CI gate over two benchmark artifacts of one family:
/// `srl.bench_robustness` (bench_robustness_matrix), `srl.frontier`
/// (bench_frontier) or `srl.bench_throughput` (bench_particle_sweep). The
/// family comes from each document's schema; the rules come from the policy
/// table in eval/bench_compare.cpp.
///
/// Usage:
///   bench_compare <baseline.json> <candidate.json>
///       baseline mode: the candidate against a committed baseline, each
///       gated field within its policy tolerance
///   bench_compare --rerun <run.json> <rerun.json>
///       rerun mode: same rows, and every field outside `provenance` and
///       each row's `timing` equal (the envelope of eval/artifact.hpp)
///
/// Exit codes:
///   0  every rule held
///   1  at least one regression (each printed as `FAIL <cell>: <metric>
///      <baseline> -> <candidate>, expected <bound>`)
///   2  usage error, unreadable JSON, or documents of no common family

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/json.hpp"
#include "eval/bench_compare.hpp"

int main(int argc, char** argv) {
  using namespace srl;

  GateMode mode = GateMode::kBaseline;
  const char* paths[2] = {nullptr, nullptr};
  int n_paths = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rerun") == 0) {
      mode = GateMode::kRerun;
    } else if (argv[i][0] != '-' && n_paths < 2) {
      paths[n_paths++] = argv[i];
    } else {
      n_paths = -1;
      break;
    }
  }
  if (n_paths != 2) {
    std::fprintf(stderr,
                 "usage: %s [--rerun] <baseline.json> <candidate.json>\n",
                 argv[0]);
    return 2;
  }

  const std::optional<json::Value> baseline = json::Value::load(paths[0]);
  const std::optional<json::Value> candidate = json::Value::load(paths[1]);
  if (!baseline || !candidate) {
    std::fprintf(stderr, "%s: unreadable or malformed JSON\n",
                 baseline ? paths[1] : paths[0]);
    return 2;
  }
  std::string error;
  const std::optional<CompareReport> report =
      compare_artifacts(*baseline, *candidate, mode, error);
  if (!report) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  for (const std::string& note : report->notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const CompareFailure& failure : report->failures) {
    std::fprintf(stderr, "FAIL %s\n", failure.describe().c_str());
  }
  std::printf("bench_compare%s %s: %d rows compared — %s\n",
              mode == GateMode::kRerun ? " --rerun" : "",
              baseline->find("schema")->as_string().c_str(),
              report->rows_compared,
              report->ok() ? "PASS"
                           : ("FAIL (" +
                              std::to_string(report->failures.size()) +
                              " regressions)")
                                 .c_str());
  return report->ok() ? 0 : 1;
}
