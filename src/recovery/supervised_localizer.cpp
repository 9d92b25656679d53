#include "recovery/supervised_localizer.hpp"

#include <cmath>
#include <optional>

namespace srl::recovery {

SupervisedLocalizer::SupervisedLocalizer(
    Localizer& inner, SupervisedLocalizerConfig config,
    std::shared_ptr<const OccupancyGrid> map, LidarConfig lidar)
    : LocalizerDecorator{inner},
      config_{config},
      map_{map},
      probe_{map, lidar, config.probe_beams, config.probe_tolerance_m},
      detector_{config.detector},
      policy_{config.policy, std::move(map), lidar, config.seed} {}

void SupervisedLocalizer::bind_filter(ParticleFilter* pf) { pf_ = pf; }

void SupervisedLocalizer::initialize(const Pose2& pose) {
  inner_.initialize(pose);
  detector_.reset();
  policy_.reset();
  set_tempering(false);
  blackout_engaged_ = false;
  fallback_pose_ = pose;
  blackout_dist_m_ = 0.0;
  pending_odom_ = Pose2{};
  have_last_estimate_ = false;
  diverged_since_ = -1.0;
  last_alignment_ = -1.0;
  if (g_state_ != nullptr) {
    g_state_->set(static_cast<double>(static_cast<int>(detector_.state())));
  }
}

void SupervisedLocalizer::on_odometry(const OdometryDelta& odom) {
  inner_.on_odometry(odom);
  pending_odom_ = (pending_odom_ * odom.delta).normalized();
  if (blackout_engaged_) {
    fallback_pose_ = (fallback_pose_ * odom.delta).normalized();
    blackout_dist_m_ += std::abs(odom.v) * odom.dt;
    if (g_blackout_drift_ != nullptr) {
      g_blackout_drift_->set(blackout_dist_m_);
    }
  }
}

Pose2 SupervisedLocalizer::pose() const {
  return blackout_engaged_ ? fallback_pose_ : inner_.pose();
}

void SupervisedLocalizer::set_tempering(bool want) {
  if (!config_.policy.tempering || pf_ == nullptr) return;
  if (want == tempering_engaged_) return;
  pf_->set_squash_scale(want ? config_.policy.temper_scale : 1.0);
  tempering_engaged_ = want;
}

void SupervisedLocalizer::emit_event(double t,
                                     telemetry::EventSeverity severity,
                                     const char* code, json::Value data) {
  if (sink_.events == nullptr) return;
  sink_.events->emit(t, severity, telemetry::EventCategory::kRecovery, code,
                     std::move(data));
}

void SupervisedLocalizer::publish(const TransitionCounts& before, double t) {
  const TransitionCounts& now = detector_.transitions();
  auto bump = [](telemetry::Counter* c, std::uint64_t then,
                 std::uint64_t current) {
    if (c != nullptr && current > then) c->add(current - then);
  };
  bump(c_to_suspect_, before.to_suspect, now.to_suspect);
  bump(c_to_diverged_, before.to_diverged, now.to_diverged);
  bump(c_to_recovering_, before.to_recovering, now.to_recovering);
  bump(c_to_healthy_, before.to_healthy, now.to_healthy);
  if (g_state_ != nullptr) {
    g_state_->set(static_cast<double>(static_cast<int>(detector_.state())));
  }
  if (sink_.events != nullptr && now.total() > before.total()) {
    // Journal the detector transition (at most one per update) with the
    // evidence snapshot: which latches were tripped when the machine moved.
    json::Value data = json::Value::object();
    data.set("state", json::Value::string(to_string(detector_.state())));
    data.set("tripped",
             json::Value::number(static_cast<double>(detector_.tripped_signals())));
    data.set("latch_mask",
             json::Value::number(static_cast<double>(detector_.latch_mask())));
    const bool diverged = detector_.state() == HealthState::kDiverged;
    emit_event(t,
               diverged ? telemetry::EventSeverity::kError
                        : telemetry::EventSeverity::kInfo,
               "recovery.transition", std::move(data));
  }
}

void SupervisedLocalizer::apply_recovery(const LaserScan& scan) {
  const RecoveryPolicy::Action action = policy_.plan_recovery(pf_ != nullptr);
  switch (action) {
    case RecoveryPolicy::Action::kNone:
      // Observe-only configuration: stay DIVERGED, touch nothing.
      return;
    case RecoveryPolicy::Action::kInject: {
      telemetry::ScopedSpan span{sink_.trace, "recovery.inject"};
      const double fraction = policy_.injection_fraction();
      Rng rng = policy_.inject_rng();
      pf_->inject_uniform(fraction, *map_, rng);
      if (g_inject_fraction_ != nullptr) g_inject_fraction_->set(fraction);
      if (c_injections_ != nullptr) c_injections_->add();
      {
        json::Value data = json::Value::object();
        data.set("fraction", json::Value::number(fraction));
        emit_event(scan.t, telemetry::EventSeverity::kWarn, "recovery.inject",
                   std::move(data));
      }
      break;
    }
    case RecoveryPolicy::Action::kGlobalReloc: {
      telemetry::ScopedSpan span{sink_.trace, "recovery.global_reloc"};
      const std::optional<Pose2> best =
          policy_.global_relocalize(scan, probe_, inner_.pose());
      {
        json::Value data = json::Value::object();
        data.set("accepted", json::Value::boolean(best.has_value()));
        if (best.has_value()) {
          data.set("x", json::Value::number(best->x));
          data.set("y", json::Value::number(best->y));
          data.set("theta", json::Value::number(best->theta));
        }
        emit_event(scan.t, telemetry::EventSeverity::kWarn,
                   "recovery.global_reloc", std::move(data));
      }
      if (best.has_value()) {
        inner_.initialize(*best);
        relocated_this_scan_ = true;
        if (c_global_relocs_ != nullptr) c_global_relocs_->add();
      }
      // A rejected search (nothing beat the current estimate's own score)
      // leaves the filter untouched; the RECOVERING cooldown below paces
      // the next attempt.
      break;
    }
  }
  detector_.note_recovery_action();
}

Pose2 SupervisedLocalizer::on_scan(const LaserScan& scan) {
  // Graceful degradation: a (near-)returnless scan carries no evidence.
  // Hold the last estimate under dead reckoning instead of feeding the
  // filter garbage, and suspend the detector's judgement.
  if (config_.policy.blackout_fallback &&
      probe_.valid_fraction(scan) < config_.policy.blackout_valid_fraction) {
    telemetry::ScopedSpan span{sink_.trace, "recovery.blackout"};
    if (!blackout_engaged_) {
      blackout_engaged_ = true;
      fallback_pose_ = inner_.pose();
      blackout_dist_m_ = 0.0;
      if (c_blackouts_ != nullptr) c_blackouts_->add();
      emit_event(scan.t, telemetry::EventSeverity::kWarn,
                 "recovery.blackout_enter", json::Value::object());
    }
    const TransitionCounts before = detector_.transitions();
    DetectorInputs in;
    in.blackout = true;
    detector_.update(in);
    publish(before, scan.t);
    return fallback_pose_;
  }
  if (blackout_engaged_) {
    // First live scan after the blackout: the inner filter kept integrating
    // odometry while blind, so hand judgement of the residual drift back to
    // the detector on the normal path below.
    blackout_engaged_ = false;
    {
      json::Value data = json::Value::object();
      data.set("drift_m", json::Value::number(blackout_dist_m_));
      emit_event(scan.t, telemetry::EventSeverity::kInfo,
                 "recovery.blackout_exit", std::move(data));
    }
    blackout_dist_m_ = 0.0;
    if (g_blackout_drift_ != nullptr) g_blackout_drift_->set(0.0);
  }

  const Pose2 predicted = inner_.pose();
  const Pose2 estimate = inner_.on_scan(scan);

  const double align = probe_.score(estimate, scan);
  policy_.observe_alignment(align);
  last_alignment_ = align;

  DetectorInputs in;
  in.scan_alignment = align;
  if (pf_ != nullptr && pf_->current_particles() > 0) {
    in.ess_fraction = pf_->effective_sample_size() /
                      static_cast<double>(pf_->current_particles());
  }
  in.pose_jump_m =
      std::hypot(estimate.x - predicted.x, estimate.y - predicted.y);
  if (have_last_estimate_) {
    const Pose2 est_delta = last_estimate_.between(estimate);
    in.odom_disagreement_m = std::hypot(est_delta.x - pending_odom_.x,
                                        est_delta.y - pending_odom_.y);
  }
  pending_odom_ = Pose2{};
  last_estimate_ = estimate;
  have_last_estimate_ = true;

  const TransitionCounts before = detector_.transitions();
  relocated_this_scan_ = false;
  HealthState state = detector_.update(in);

  // Temper the measurement model whenever the estimate is under suspicion:
  // don't sharpen a posterior that may be concentrating on the wrong mode.
  set_tempering(state != HealthState::kHealthy);

  if (state == HealthState::kDiverged) {
    if (diverged_since_ < 0.0) diverged_since_ = scan.t;
    apply_recovery(scan);
    state = detector_.state();
  }
  if (state == HealthState::kHealthy) {
    policy_.note_healthy();
    if (diverged_since_ >= 0.0) {
      if (h_time_to_reloc_ != nullptr) {
        h_time_to_reloc_->record(scan.t - diverged_since_);
      }
      diverged_since_ = -1.0;
    }
  }
  publish(before, scan.t);
  // After a relocalization the inner estimate moved; report the repaired
  // pose. On every other path return the inner estimate verbatim so an
  // all-policies-off supervisor is a bitwise pass-through.
  return relocated_this_scan_ ? inner_.pose() : estimate;
}

void SupervisedLocalizer::set_telemetry(const telemetry::Sink& sink) {
  inner_.set_telemetry(sink);
  sink_ = sink;
  if (sink.metrics == nullptr) {
    g_state_ = g_inject_fraction_ = g_blackout_drift_ = nullptr;
    c_to_suspect_ = c_to_diverged_ = c_to_recovering_ = c_to_healthy_ =
        c_injections_ = c_global_relocs_ = c_blackouts_ = nullptr;
    h_time_to_reloc_ = nullptr;
    return;
  }
  telemetry::MetricsRegistry& m = *sink.metrics;
  g_state_ = &m.gauge("recovery.state");
  g_inject_fraction_ = &m.gauge("recovery.injection_fraction");
  g_blackout_drift_ = &m.gauge("recovery.blackout_drift_m");
  c_to_suspect_ = &m.counter("recovery.to_suspect");
  c_to_diverged_ = &m.counter("recovery.to_diverged");
  c_to_recovering_ = &m.counter("recovery.to_recovering");
  c_to_healthy_ = &m.counter("recovery.to_healthy");
  c_injections_ = &m.counter("recovery.injections");
  c_global_relocs_ = &m.counter("recovery.global_relocs");
  c_blackouts_ = &m.counter("recovery.blackouts");
  h_time_to_reloc_ = &m.histogram("recovery.time_to_relocalize_s");
  g_state_->set(static_cast<double>(static_cast<int>(detector_.state())));
}

}  // namespace srl::recovery
