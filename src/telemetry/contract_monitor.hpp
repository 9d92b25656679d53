#pragma once

/// \file contract_monitor.hpp
/// \brief Bridge from the contract subsystem (common/contracts.hpp) into the
/// telemetry sink: every contract violation is counted in a
/// `MetricsRegistry` before the violation handler runs.
///
/// The `checked` CI job replays a full lap with a monitor attached and
/// requires `contracts.violations == 0`; soak runs can pair the monitor with
/// a log-and-continue handler to measure violation rates without dying on
/// the first one.

#include "common/contracts.hpp"
#include "telemetry/metrics.hpp"

namespace srl::telemetry {

/// RAII contract observer. While alive, violations increment
/// `contracts.violations` plus a per-kind counter
/// (`contracts.expects` / `contracts.ensures` / `contracts.invariant`).
/// Only one monitor can be installed at a time (the contract subsystem has a
/// single observer slot); the last constructed wins and uninstalls on
/// destruction.
class ContractMonitor {
 public:
  explicit ContractMonitor(MetricsRegistry& registry);
  ~ContractMonitor();

  ContractMonitor(const ContractMonitor&) = delete;
  ContractMonitor& operator=(const ContractMonitor&) = delete;

  /// Total violations observed by *this* monitor instance.
  std::uint64_t violations() const { return total_->value(); }

 private:
  static void observe(const contracts::Violation& v, void* self);

  Counter* total_;
  Counter* expects_;
  Counter* ensures_;
  Counter* invariant_;
};

}  // namespace srl::telemetry
