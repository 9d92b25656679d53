#include "telemetry/contract_monitor.hpp"

namespace srl::telemetry {

ContractMonitor::ContractMonitor(MetricsRegistry& registry)
    : total_{&registry.counter("contracts.violations")},
      expects_{&registry.counter("contracts.expects")},
      ensures_{&registry.counter("contracts.ensures")},
      invariant_{&registry.counter("contracts.invariant")} {
  contracts::set_observer(&ContractMonitor::observe, this);
}

ContractMonitor::~ContractMonitor() { contracts::set_observer(nullptr, nullptr); }

void ContractMonitor::observe(const contracts::Violation& v, void* self) {
  auto* monitor = static_cast<ContractMonitor*>(self);
  monitor->total_->add();
  switch (v.kind) {
    case contracts::Kind::kExpects:
      monitor->expects_->add();
      break;
    case contracts::Kind::kEnsures:
      monitor->ensures_->add();
      break;
    case contracts::Kind::kInvariant:
      monitor->invariant_->add();
      break;
  }
}

}  // namespace srl::telemetry
