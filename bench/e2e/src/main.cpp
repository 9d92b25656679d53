/// \file main.cpp
/// \brief e2e_bench: one workload per process. Prints every metric by name
/// with its unit, then one JSON line with the full result (also written to
/// <out>/e2e_result_<workload>.json; the traced run adds
/// <out>/e2e_trace_<workload>.json). Exit code 0 when every correctness
/// check passed, 2 when one failed, 1 on a usage or runtime error.
///
///   e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///             [--smoke] [--git-sha SHA] [--out DIR]

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "common/simd.hpp"
#include "workloads.hpp"

namespace {

using srl::json::Value;

void usage() {
  std::cerr << "usage: e2e_bench --workload <";
  for (const std::string& w : e2e::workload_names()) std::cerr << w << "|";
  std::cerr << "> [--seed N] [--seconds S] [--trace 0|1] [--smoke]"
               " [--git-sha SHA] [--out DIR]\n";
}

bool parse(int argc, char** argv, e2e::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string{argv[++i]} != "0";
    } else if (arg == "--git-sha" && has_value) {
      o.git_sha = argv[++i];
    } else if (arg == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

Value metric_object(const std::vector<e2e::Metric>& metrics) {
  Value obj = Value::object();
  for (const e2e::Metric& m : metrics) {
    Value v = Value::object();
    v.set("value", Value::number(m.value));
    v.set("unit", Value::string(m.unit));
    obj.set(m.name, std::move(v));
  }
  return obj;
}

}  // namespace

int main(int argc, char** argv) {
  // Lanes, run length, budgets and the flight recorder are fixed by the
  // benchmark; the library's environment knobs must not move them.
  for (const char* knob : {"SRL_THREADS", "SRL_FAST", "SRL_LAPS",
                           "SRL_BUDGET_MS", "SRL_BLACKBOX_DIR"}) {
    ::unsetenv(knob);
  }
  e2e::Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 1;
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < 4) {
    std::cerr << "e2e_bench: warning: " << nproc
              << " hardware threads; the 4-lane workloads will contend\n";
  }
  Value provenance = Value::object();
  provenance.set("nproc", Value::number(nproc));
  provenance.set("simd", Value::string(srl::simd::name(srl::simd::active())));
  provenance.set("compiler", Value::string(SRL_E2E_COMPILER));
  provenance.set("build_type", Value::string(SRL_E2E_BUILD_TYPE));
  provenance.set("git_sha", Value::string(o.git_sha));
  provenance.set("sim_seed", Value::number(static_cast<double>(o.seed)));
  provenance.set("fault_seed", Value::number(static_cast<double>(
                                   e2e::derived_fault_seed(o.seed))));
  provenance.set("frontier_sampler_seed", Value::number(0xF407));

  e2e::Report rep;
  try {
    rep = e2e::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& note : rep.notes) std::cout << "# " << note << "\n";
  for (const e2e::Metric& m : rep.metrics) {
    std::cout << "metric " << m.name << " = " << srl::json::format_number(m.value)
              << " " << m.unit << "\n";
  }
  for (const e2e::Metric& m : rep.per_layer) {
    std::cout << "layer " << m.name << " = " << srl::json::format_number(m.value)
              << " " << m.unit << "\n";
  }
  Value checks = Value::object();
  for (const auto& [name, ok] : rep.checks) {
    std::cout << "check " << name << " = " << (ok ? "ok" : "FAILED") << "\n";
    checks.set(name, Value::boolean(ok));
  }
  std::cout << "fingerprint " << rep.fingerprint << "\n";

  Value doc = Value::object();
  doc.set("workload", Value::string(o.workload));
  doc.set("seed", Value::number(static_cast<double>(o.seed)));
  doc.set("seconds", Value::number(o.seconds));
  doc.set("trace", Value::boolean(o.trace));
  doc.set("smoke", Value::boolean(o.smoke));
  doc.set("provenance", std::move(provenance));
  doc.set("correct", Value::boolean(rep.correct));
  doc.set("attempted", Value::number(static_cast<double>(rep.attempted)));
  doc.set("failed", Value::number(static_cast<double>(rep.failed)));
  doc.set("fingerprint", Value::string(rep.fingerprint));
  doc.set("checks", std::move(checks));
  doc.set("metrics", metric_object(rep.metrics));
  if (o.trace) doc.set("per_layer", metric_object(rep.per_layer));

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::filesystem::path out{o.out_dir};
  doc.save((out / ("e2e_result_" + o.workload + ".json")).string());
  if (o.trace) {
    Value trace = rep.trace_doc;
    trace.set("workload", Value::string(o.workload));
    trace.set("per_layer", metric_object(rep.per_layer));
    trace.save((out / ("e2e_trace_" + o.workload + ".json")).string());
  }
  std::cout << doc.dump(0) << std::endl;
  return rep.correct ? 0 : 2;
}
