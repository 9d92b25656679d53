#pragma once

/// \file workloads.hpp
/// \brief The four benchmark workloads and the report they fill.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace e2e {

struct Options {
  std::string workload;
  /// Master seed: the closed-loop simulation seed itself; the fault seed
  /// is derived from it (see derived_fault_seed).
  std::uint64_t seed{1234};
  /// Run length: the amount of work is a fixed function of this value,
  /// sized so an untraced run measures about this many seconds on the
  /// reference 4-core host (README.md). Both commits of an A/B comparison
  /// therefore do identical work.
  double seconds{15.0};
  bool trace{false};
  bool smoke{false};  ///< reduced run length for the ctest
  std::string git_sha{"unknown"};
  std::string out_dir{"out"};
};

/// Fault seed for `seed`: the library default (0x7a017) at the default
/// sim seed 1234, a distinct seed for every other value.
std::uint64_t derived_fault_seed(std::uint64_t seed);

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Report {
  bool correct{true};
  long attempted{0};
  long failed{0};
  std::string fingerprint;  ///< FNV-1a of every estimate/result, hex
  std::vector<Metric> metrics;    ///< end-to-end and workload detail
  std::vector<Metric> per_layer;  ///< traced run only
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;  ///< human-readable lines (n, beyond p99)
  srl::json::Value trace_doc = srl::json::Value::object();

  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    correct = correct && ok;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

const std::vector<std::string>& workload_names();

/// Run one workload (untraced, and with `options.trace` also the traced
/// mirror) and fill the report. Throws on unknown workloads.
Report run_workload(const Options& options);

}  // namespace e2e
