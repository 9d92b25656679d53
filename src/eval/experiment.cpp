#include "eval/experiment.hpp"

#include <cmath>
#include <filesystem>
#include <memory>

#include "range/range_method.hpp"

namespace srl {

ExperimentRunner::ExperimentRunner(const Track& track, ExperimentConfig config)
    : config_{config},
      raceline_{config.raceline_override.empty() ? track.centerline
                                                 : config.raceline_override},
      profile_{raceline_, config.profile},
      alignment_{track.grid, config.align_tolerance} {
  RangeMethodOptions options;
  options.max_range = config_.lidar.max_range;
  truth_caster_ = shared_range_method(
      RangeMethodKind::kRayMarching,
      std::make_shared<const OccupancyGrid>(track.grid), options);
}

Pose2 ExperimentRunner::start_pose() const {
  // Slightly past the start line so the first crossing happens after a full
  // out-lap (arming the timer), not immediately.
  const double s0 = 1.0;
  const Vec2 p = raceline_.position(s0);
  return Pose2{p.x, p.y, raceline_.heading(s0)};
}

ExperimentResult ExperimentRunner::run(Localizer& localizer,
                                       SensorTrace* record,
                                       telemetry::Sink sink) {
  ExperimentResult result;
  Rng rng{config_.seed};
  if (sink.enabled()) localizer.set_telemetry(sink);

  // Flight recorder: black-box dumps need the sensor stream alongside the
  // snapshot ring, so with a recorder attached the run always records a
  // trace (the caller's, or a local one that lives only for this run).
  SensorTrace local_trace;
  SensorTrace* rec = record;
  if (sink.recorder != nullptr && rec == nullptr) rec = &local_trace;

  auto emit = [&](double et, telemetry::EventSeverity severity,
                  const char* code, json::Value data) {
    if (sink.events == nullptr) return;
    sink.events->emit(et, severity, telemetry::EventCategory::kExperiment,
                      code, std::move(data));
  };
  // Self-contained black-box dump: snapshot window + event timeline (via
  // the recorder) plus everything a postmortem replay needs — the start
  // pose, the captured sensor trace (sidecar file) and the sim seed.
  auto dump_blackbox = [&](const char* reason, double dt_now) {
    if (sink.recorder == nullptr || !sink.recorder->can_dump()) return;
    const std::string path = sink.recorder->next_dump_path(reason);
    if (path.empty()) return;
    json::Value extra = json::Value::object();
    json::Value sp = json::Value::array();
    const Pose2 p0 = start_pose();
    sp.push_back(json::Value::number(p0.x));
    sp.push_back(json::Value::number(p0.y));
    sp.push_back(json::Value::number(p0.theta));
    extra.set("start_pose", std::move(sp));
    extra.set("sim_seed",
              json::Value::number(static_cast<double>(config_.seed)));
    extra.set("crashed", json::Value::boolean(result.crashed));
    const std::string trace_path =
        telemetry::FlightRecorder::trace_sidecar_path(path);
    // The sidecar lands before dump() creates the artifact directory.
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(trace_path).parent_path(), ec);
    if (rec->save(trace_path)) {
      extra.set("trace_file",
                json::Value::string(
                    std::filesystem::path(trace_path).filename().string()));
    }
    sink.recorder->dump(path, reason, dt_now, extra);
  };
  VehicleParams vp = config_.vehicle;
  vp.mu = config_.mu;
  VehicleSim car{vp, start_pose()};
  const VehicleState& state = car.state();
  WheelOdometrySensor odom_sensor{vp.ackermann, config_.odom_noise};
  LidarSim lidar{config_.lidar, truth_caster_, config_.lidar_noise};
  PurePursuit pursuit{config_.pursuit, vp.ackermann};

  localizer.initialize(start_pose());
  LapTimer timer{raceline_.length()};
  LocalizeStep localize{localizer, sink};

  const double odom_dt = 1.0 / config_.odom_rate_hz;
  const double scan_dt = 1.0 / config_.lidar_rate_hz;
  const double ctrl_dt = 1.0 / config_.control_rate_hz;
  double next_odom = 0.0;
  double next_scan = 0.0;
  double next_ctrl = 0.0;

  // Tick state the layers hand on.
  DriveCommand cmd{};
  double believed_speed = 0.0;
  double t = 0.0;

  RunningStats lap_lateral_cm;      // current lap
  RunningStats alignment_percent;   // all timed-lap scans
  RunningStats post_div_lateral_cm;
  RunningStats post_rec_lateral_cm;
  RunningStats slip_abs;
  RunningStats odom_drift_per_lap;
  double pose_err_sq_sum = 0.0;
  double pose_lat_sq_sum = 0.0;
  double pose_long_sq_sum = 0.0;
  double heading_sq_sum = 0.0;
  long pose_err_samples = 0;
  double odom_dist = 0.0;
  double true_dist = 0.0;
  double lap_odom_dist = 0.0;
  double lap_true_dist = 0.0;

  // Divergence-episode hysteresis on the true-pose estimate error.
  std::size_t kidnap_idx = 0;
  bool episode_open = false;
  int over_run = 0;
  int under_run = 0;
  double episode_open_t = 0.0;
  double first_divergence_t = -1.0;
  double last_recovery_t = -1.0;

  // The tick's layers. `localize` is the step replay shares
  // (eval/trace.hpp); the loop below calls them in their one fixed order.
  const auto vehicle = [&] {
    car.step(cmd, config_.sim_dt);
    t += config_.sim_dt;
    true_dist += state.v * config_.sim_dt;
    slip_abs.add(std::abs(state.slip));
  };

  // Crash: true pose too close to (or inside) a wall.
  const auto crash = [&] {
    result.crashed =
        alignment_.wall_distance().at_world({state.pose.x, state.pose.y}) <
        static_cast<float>(config_.crash_wall_distance);
    return result.crashed;
  };

  // Scripted kidnap: teleport the *true* vehicle (at rest) along the race
  // line; the localizer only ever learns through its sensors.
  const auto kidnap = [&] {
    const ExperimentConfig::KidnapSpec& k = config_.kidnaps[kidnap_idx];
    const Raceline::Projection cur =
        raceline_.project({state.pose.x, state.pose.y});
    const double s1 =
        raceline_.wrap(cur.s + k.advance_frac * raceline_.length());
    const Vec2 p = raceline_.position(s1);
    const double h = raceline_.heading(s1);
    const Vec2 normal{-std::sin(h), std::cos(h)};
    car.reset(Pose2{p.x + normal.x * k.lateral_m,
                    p.y + normal.y * k.lateral_m,
                    normalize_angle(h + k.yaw)});
    ++kidnap_idx;
    ++result.kidnaps_applied;
    json::Value data = json::Value::object();
    data.set("advance_frac", json::Value::number(k.advance_frac));
    data.set("lateral_m", json::Value::number(k.lateral_m));
    data.set("yaw", json::Value::number(k.yaw));
    emit(t, telemetry::EventSeverity::kInfo, "experiment.kidnap",
         std::move(data));
  };

  const auto odometry = [&] {
    const OdometryDelta odom = odom_sensor.measure(state, odom_dt, rng);
    if (rec != nullptr) rec->add_odometry(t, odom);
    localizer.on_odometry(odom);
    believed_speed = odom.v;
    odom_dist += odom.v * odom_dt;
  };

  const auto truth_scan = [&] {
    LaserScan scan = lidar.scan(state.pose, state.twist(), t, rng);
    if (rec != nullptr) rec->add_scan(scan, state.pose);
    return scan;
  };

  const auto score = [&](const LaserScan& scan, const Pose2& est,
                         double est_err) {
    result.final_pose_error_m = est_err;
    // Episode hysteresis: open after `dwell` scans over the open
    // threshold, close after `dwell` scans under the close threshold.
    if (!episode_open) {
      if (est_err > config_.divergence_open_m) {
        if (over_run == 0) episode_open_t = t;
        ++over_run;
        if (over_run >= config_.divergence_dwell) {
          episode_open = true;
          under_run = 0;
          ++result.divergence_episodes;
          if (first_divergence_t < 0.0) first_divergence_t = t;
          json::Value data = json::Value::object();
          data.set("error_m", json::Value::number(est_err));
          emit(t, telemetry::EventSeverity::kError,
               "experiment.divergence_open", std::move(data));
          dump_blackbox("divergence", t);
        }
      } else {
        over_run = 0;
      }
    } else if (est_err < config_.divergence_close_m) {
      ++under_run;
      if (under_run >= config_.divergence_dwell) {
        episode_open = false;
        over_run = 0;
        ++result.recoveries;
        result.time_to_relocalize_s.push_back(t - episode_open_t);
        last_recovery_t = t;
        json::Value data = json::Value::object();
        data.set("duration_s", json::Value::number(t - episode_open_t));
        emit(t, telemetry::EventSeverity::kInfo, "experiment.episode_closed",
             std::move(data));
      }
    } else {
      under_run = 0;
    }

    if (!timer.armed()) return;
    alignment_percent.add(alignment_.score(scan, config_.lidar, est));
    const double ex = est.x - state.pose.x;
    const double ey = est.y - state.pose.y;
    pose_err_sq_sum += ex * ex + ey * ey;
    // Decompose along/normal to the race line at the true position.
    const Raceline::Projection p =
        raceline_.project({state.pose.x, state.pose.y});
    const double line_heading = raceline_.heading(p.s);
    const double c = std::cos(line_heading);
    const double sn = std::sin(line_heading);
    const double e_long = c * ex + sn * ey;
    const double e_lat = -sn * ex + c * ey;
    pose_long_sq_sum += e_long * e_long;
    pose_lat_sq_sum += e_lat * e_lat;
    const double e_th = angle_dist(est.theta, state.pose.theta);
    heading_sq_sum += e_th * e_th;
    ++pose_err_samples;
  };

  const auto control = [&] {
    cmd = pursuit.control(localizer.pose(), believed_speed, raceline_,
                          profile_);
    if (config_.launch_ramp_s > 0.0 && t < config_.launch_ramp_s) {
      cmd.target_speed *= t / config_.launch_ramp_s;
    }
  };

  const auto lap = [&] {
    const Raceline::Projection proj =
        raceline_.project({state.pose.x, state.pose.y});
    if (timer.armed()) {
      lap_lateral_cm.add(std::abs(proj.lateral) * 100.0);
    }
    if (first_divergence_t >= 0.0) {
      post_div_lateral_cm.add(std::abs(proj.lateral) * 100.0);
      if (!episode_open && last_recovery_t >= 0.0 &&
          result.recoveries == result.divergence_episodes &&
          t >= last_recovery_t + config_.recovery_settle_s) {
        post_rec_lateral_cm.add(std::abs(proj.lateral) * 100.0);
      }
    }
    const bool was_armed = timer.armed();
    if (timer.update(proj.s, t)) {
      result.lap_times.push_back(timer.lap_times().back());
      result.lap_lateral_mean_cm.push_back(lap_lateral_cm.mean());
      lap_lateral_cm.reset();
      odom_drift_per_lap.add(std::abs((odom_dist - lap_odom_dist) -
                                      (true_dist - lap_true_dist)));
      lap_odom_dist = odom_dist;
      lap_true_dist = true_dist;
    } else if (!was_armed && timer.armed()) {
      // Timer just armed (out-lap finished): reset lap accumulators.
      lap_lateral_cm.reset();
      lap_odom_dist = odom_dist;
      lap_true_dist = true_dist;
    }
  };

  // The order is behaviour: odometry draws from `rng` before the truth
  // scan does, and the controller steers from the estimate the localize
  // layer just produced.
  const int want_laps = std::max(config_.laps, 1);
  while (t < config_.max_sim_time &&
         static_cast<int>(result.lap_times.size()) < want_laps) {
    vehicle();
    if (crash()) break;
    if (kidnap_idx < config_.kidnaps.size() &&
        t >= config_.kidnaps[kidnap_idx].t) {
      kidnap();
    }
    if (t >= next_odom) {
      next_odom += odom_dt;
      odometry();
    }
    if (t >= next_scan) {
      next_scan += scan_dt;
      const LaserScan scan = truth_scan();
      const Pose2 est = localize(scan, state.pose);
      score(scan, est, localize.truth_err_m);
    }
    if (t >= next_ctrl) {
      next_ctrl += ctrl_dt;
      control();
      lap();
    }
  }

  if (result.crashed) {
    json::Value data = json::Value::object();
    data.set("t", json::Value::number(t));
    emit(t, telemetry::EventSeverity::kCritical, "experiment.crash",
         std::move(data));
    dump_blackbox("crash", t);
  }

  result.sim_time = t;
  result.completed = !result.crashed &&
                     static_cast<int>(result.lap_times.size()) >= want_laps;
  result.lap_time_mean = mean(result.lap_times);
  result.lap_time_std = stddev(result.lap_times);
  result.lateral_mean_cm = mean(result.lap_lateral_mean_cm);
  result.lateral_std_cm = stddev(result.lap_lateral_mean_cm);
  result.scan_alignment = alignment_percent.mean();
  result.mean_update_ms = localizer.mean_scan_update_ms();
  result.update_p50_ms = localize.update_ms.percentile(0.50);
  result.update_p95_ms = localize.update_ms.percentile(0.95);
  result.update_p99_ms = localize.update_ms.percentile(0.99);
  result.update_max_ms = localize.update_ms.max();
  result.load_percent =
      t > 0.0 ? 100.0 * localizer.total_busy_s() / t : 0.0;
  if (pose_err_samples > 0) {
    const auto n = static_cast<double>(pose_err_samples);
    result.pose_rmse_m = std::sqrt(pose_err_sq_sum / n);
    result.pose_lat_rmse_m = std::sqrt(pose_lat_sq_sum / n);
    result.pose_long_rmse_m = std::sqrt(pose_long_sq_sum / n);
    result.heading_rmse_rad = std::sqrt(heading_sq_sum / n);
  }
  result.mean_abs_slip = slip_abs.mean();
  result.odom_drift_m_per_lap = odom_drift_per_lap.mean();
  result.time_to_relocalize_mean_s = mean(result.time_to_relocalize_s);
  for (const double ttr : result.time_to_relocalize_s) {
    result.time_to_relocalize_max_s =
        std::max(result.time_to_relocalize_max_s, ttr);
  }
  result.post_divergence_lateral_cm = post_div_lateral_cm.mean();
  result.post_recovery_lateral_cm = post_rec_lateral_cm.mean();
  result.recovered =
      !result.crashed && result.recoveries == result.divergence_episodes;
  return result;
}

}  // namespace srl
