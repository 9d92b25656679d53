#pragma once

/// \file governor.hpp
/// \brief Deterministic per-update compute governor (DESIGN.md §16): closes
/// the loop between a declared latency budget and the particle filter's
/// workload knobs, so a compute spike degrades the estimate *gracefully*
/// (fewer beams, then fewer particles, then a skipped resample) instead of
/// collapsing into particle starvation or a missed deadline.
///
/// Three pillars:
///
///  1. **KLD/ESS-driven adaptive particle sizing.** With `adaptive` on, the
///     bound filter's KLD-adaptive resampling is enabled (the cloud shrinks
///     on the straights, where the posterior is tight) and the governor
///     grows the cloud back to its ceiling whenever the bound supervisor
///     latches SUSPECT or worse — uncertainty is exactly when particles pay
///     for themselves. Resizes go through `ParticleFilter::govern_resize`,
///     whose draws come from the pinned `kPfStreamGovernor` substream keyed
///     by the governor's own update ordinal: a pure function of (seed,
///     cloud, target, ordinal), bitwise identical at any thread count.
///
///  2. **A graceful-degradation ladder under a declared budget**
///     (`GovernorConfig::budget_ms`, usually fed from `SRL_BUDGET_MS`).
///     Decisions use *virtual cost* accounting — `particles x active_beams`
///     work units against `budget_ms x kDefaultUnitsPerMs` — **never wall
///     clock in the control path**. A wall-clock-driven governor would
///     shed differently on every machine and run; the virtual-cost
///     governor's entire decision sequence is a pure function of the
///     update index and the fault envelope, so governed runs replay
///     bitwise (and srl-lint's `det-wall-clock-governor` rule keeps timer
///     reads out of this directory). The ladder sheds in severity order: beam decimation →
///     particle floor clamp → skip-resample; every engagement is journaled
///     as a PR-6 event and exported as `governor.*` telemetry. Budget off
///     (and adaptive off) is a strict bitwise no-op, like every other
///     decorator in the repo.
///
///  3. **The `compute_pressure` fault axis.** The governor polls the bound
///     `FaultPipeline` for `compute_pressure` stages (fault/injector.hpp)
///     and scales the declared budget by (1 - strength): a severity ramp
///     squeezes the budget deterministically, which the scenario matrix,
///     the frontier bisection and the `bench_compare` tradeoff rule all
///     consume.
///
/// Composition (canonical, outermost first):
///
///     GovernedLocalizer(SupervisedLocalizer(FaultedLocalizer(SynPf)))
///
/// The governor is outermost so it observes the supervisor's health state
/// and can skip the whole update (deadline enforcement) before any inner
/// layer runs. With `shed = false` the wrapper becomes a plain *budget
/// enforcer*: it never touches the filter's knobs and simply drops updates
/// whose fixed workload exceeds the effective budget — the "ungoverned
/// fixed-count" baseline the bench artifact compares against.

#include <cstdint>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "core/particle_filter.hpp"
#include "fault/pipeline.hpp"
#include "recovery/supervised_localizer.hpp"
#include "telemetry/telemetry.hpp"

namespace srl::governor {

/// Virtual-cost calibration: work units (particles x beams) one millisecond
/// buys on the reference backend (CDDT, scalar kernels, the PR-9 box:
/// 1200 particles x 60 beams ~ 1.5 ms). The constant is pinned — it is a
/// *unit definition*, not a measurement; re-calibrating it rescales every
/// budget in lockstep and never enters any per-update control decision.
constexpr double kDefaultUnitsPerMs = 48000.0;

/// Nominal per-update virtual cost of the CartoLite scan matcher (no
/// particle/beam knobs to shed — used by enforcer-mode wrappers over
/// localizers without a bound filter).
constexpr double kCartoNominalCostUnits = 48000.0;

/// Stage-3 resample shedding keeps every N-th resample (by governor update
/// ordinal): shedding ~(N-1)/N of the resample cost without ever letting
/// the weights degenerate unboundedly under a sustained envelope.
constexpr std::uint64_t kResampleKeepPeriod = 4;

struct GovernorConfig {
  /// Pillar 1: enable KLD-adaptive resampling on the bound filter and grow
  /// the cloud back to `max_particles` under the supervisor's SUSPECT latch.
  bool adaptive = true;
  /// Declared per-update latency budget, ms. <= 0 disables the ladder
  /// entirely (no decision, no draw — a strict bitwise no-op).
  double budget_ms = 0.0;
  /// Fixed per-update cost to account when no filter is bound (e.g. a
  /// governed CartoLite). <= 0 makes a filterless wrapper budget-blind.
  double nominal_cost_units = 0.0;
  /// Ladder stage 2 floor: the clamp never starves the cloud below this.
  int min_particles = 300;
  /// Ceiling for SUSPECT-driven growth; 0 = the cloud size at bind time.
  int max_particles = 0;
  /// Ladder stage 1 limit: score every k-th beam, k <= this.
  int max_beam_stride = 4;
  /// true = governed (shed via the ladder); false = budget *enforcer* (fixed
  /// workload, updates over budget are dropped — a deadline miss).
  bool shed = true;

  /// Everything off: the wrapper forwards untouched (bitwise no-op).
  static GovernorConfig off() {
    GovernorConfig config;
    config.adaptive = false;
    config.budget_ms = 0.0;
    return config;
  }
};

/// One update's verdict — a pure function of (config, particles, beams,
/// pressure, grow), with no hidden state. `shed_stage` names the deepest
/// ladder rung engaged: 0 none, 1 beam decimation, 2 particle clamp,
/// 3 skip-resample, 4 dropped update (enforcer only).
struct GovernorDecision {
  int beam_stride = 1;
  int particle_target = 0;  ///< cloud size the update should run at
  bool skip_resample = false;
  bool drop_update = false;
  int shed_stage = 0;
  double cost_units = 0.0;    ///< virtual cost of the (shed) workload
  double budget_units = 0.0;  ///< pressure-scaled budget; < 0 = unlimited
};

/// The decision core, separated from the decorator so the ladder is
/// unit-testable as the pure function it must be.
class ComputeGovernor {
 public:
  explicit ComputeGovernor(GovernorConfig config);

  const GovernorConfig& config() const { return config_; }

  /// Virtual cost of one update: particles x beams surviving `stride`.
  static double cost_units(int particles, int beams, int stride);
  /// Beams surviving decimation at `stride`.
  static int active_beams(int beams, int stride);

  /// Decide the next update's workload for a bound particle filter.
  /// `grow` requests SUSPECT-driven growth back to the ceiling.
  GovernorDecision decide(int particles, int beams, double pressure,
                          bool grow) const;

  /// Decide for a fixed, knobless workload (`nominal_cost_units`): the only
  /// possible degradation is dropping the update.
  GovernorDecision decide_fixed(double cost, double pressure) const;

 private:
  double effective_budget_units(double pressure) const;

  GovernorConfig config_;
};

/// Decorator: wraps any `Localizer`, applies the governor's verdict to the
/// bound `ParticleFilter` before forwarding each scan. Not owned; the inner
/// localizer, filter, pipeline and supervisor must outlive the wrapper.
class GovernedLocalizer final : public LocalizerDecorator {
 public:
  GovernedLocalizer(Localizer& inner, GovernorConfig config);

  /// Bind the particle cloud whose knobs the ladder turns (SynPF stacks).
  /// With `adaptive` on this also enables KLD resampling on the filter.
  /// Optional: without it the wrapper can only account a nominal cost.
  void bind_filter(ParticleFilter* pf);
  /// Poll this pipeline's `compute_pressure` stages for budget pressure.
  void bind_pressure(const fault::FaultPipeline* pipeline);
  /// Grow the cloud under this supervisor's SUSPECT latch (pillar 1).
  void bind_supervisor(const recovery::SupervisedLocalizer* supervisor);

  Pose2 on_scan(const LaserScan& scan) override;
  std::string name() const override {
    // The strict no-op configuration forwards the bare name too: a wrapper
    // that changes nothing must not claim to govern anything.
    if (!config_.adaptive && config_.budget_ms <= 0.0) return inner_.name();
    return inner_.name() + (config_.shed ? "+governed" : "+budgeted");
  }
  void set_telemetry(const telemetry::Sink& sink) override;

  const GovernorConfig& config() const { return config_; }

  // Per-run accounting (all pure reads; the bench schema's governor block).
  std::uint64_t updates() const { return updates_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  std::uint64_t shed_beam_updates() const { return shed_beam_updates_; }
  std::uint64_t shed_particle_updates() const { return shed_particle_updates_; }
  std::uint64_t skipped_resamples() const { return skipped_resamples_; }
  std::uint64_t resizes() const { return resizes_; }
  double mean_particles() const;
  int min_particles_seen() const { return min_particles_seen_; }
  double mean_beams() const;
  /// Percentiles of the executed updates' virtual cost (deterministic —
  /// the CI tradeoff gate reads these instead of wall clock).
  double cost_units_p50() const { return cost_percentile(0.50); }
  double cost_units_p99() const { return cost_percentile(0.99); }
  /// Pressure observed at the most recent scan (flight-recorder probe).
  double last_pressure() const { return last_pressure_; }

 private:
  double poll_pressure(double stream_t) const;
  double cost_percentile(double q) const;
  void apply(const GovernorDecision& decision, std::uint64_t ordinal);
  void journal(double scan_t, const GovernorDecision& decision);
  void publish(const GovernorDecision& decision);

  GovernorConfig config_;
  ComputeGovernor governor_;
  ParticleFilter* pf_{nullptr};
  const fault::FaultPipeline* pipeline_{nullptr};
  const recovery::SupervisedLocalizer* supervisor_{nullptr};

  std::uint64_t updates_{0};
  std::uint64_t deadline_misses_{0};
  std::uint64_t shed_beam_updates_{0};
  std::uint64_t shed_particle_updates_{0};
  std::uint64_t skipped_resamples_{0};
  std::uint64_t resizes_{0};
  std::uint64_t particles_sum_{0};
  std::uint64_t beams_sum_{0};
  int min_particles_seen_{0};
  std::vector<double> costs_;  ///< executed updates' virtual cost
  double last_pressure_{0.0};
  int last_stage_{0};
  bool missing_{false};  ///< inside a contiguous deadline-miss run

  double first_scan_t_{0.0};
  bool seen_scan_{false};

  telemetry::EventLog* events_{nullptr};
  telemetry::Gauge* g_pressure_{nullptr};
  telemetry::Gauge* g_particles_{nullptr};
  telemetry::Gauge* g_beams_{nullptr};
  telemetry::Gauge* g_stage_{nullptr};
  telemetry::Gauge* g_cost_{nullptr};
  telemetry::Gauge* g_budget_{nullptr};
  telemetry::Counter* c_updates_{nullptr};
  telemetry::Counter* c_misses_{nullptr};
  telemetry::Counter* c_resizes_{nullptr};
  telemetry::Counter* c_shed_beams_{nullptr};
  telemetry::Counter* c_shed_particles_{nullptr};
  telemetry::Counter* c_skipped_resamples_{nullptr};
};

}  // namespace srl::governor
