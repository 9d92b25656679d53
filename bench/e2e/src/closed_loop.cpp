#include "closed_loop.hpp"

#include <cmath>
#include <stdexcept>

#include "common/angles.hpp"
#include "range/ray_marching.hpp"

namespace e2e {

using namespace srl;

MirroredRunner::MirroredRunner(const Track& track, ExperimentConfig config)
    : track_{track},
      config_{config},
      raceline_{config.raceline_override.empty() ? track.centerline
                                                 : config.raceline_override},
      profile_{raceline_, config.profile},
      alignment_{track.grid, config.align_tolerance},
      wall_distance_{distance_to_occupied(track.grid)} {
  auto map = std::make_shared<const OccupancyGrid>(track_.grid);
  truth_caster_ =
      std::make_shared<RayMarching>(std::move(map), config_.lidar.max_range);
}

Pose2 MirroredRunner::start_pose() const {
  const double s0 = 1.0;
  const Vec2 p = raceline_.position(s0);
  return Pose2{p.x, p.y, raceline_.heading(s0)};
}

ExperimentResult MirroredRunner::run(Localizer& localizer,
                                     telemetry::Sink sink, Tracer* tracer) {
  if (sink.recorder != nullptr) {
    throw std::invalid_argument("MirroredRunner: flight recorder unsupported");
  }
  ExperimentResult result;
  Rng rng{config_.seed};
  if (sink.enabled()) localizer.set_telemetry(sink);

  auto emit = [&](double et, telemetry::EventSeverity severity,
                  const char* code, json::Value data) {
    if (sink.events == nullptr) return;
    sink.events->emit(et, severity, telemetry::EventCategory::kExperiment,
                      code, std::move(data));
  };

  VehicleParams vp = config_.vehicle;
  vp.mu = config_.mu;
  VehicleSim vehicle{vp, start_pose()};
  WheelOdometrySensor odom_sensor{vp.ackermann, config_.odom_noise};
  LidarSim lidar{config_.lidar, truth_caster_, config_.lidar_noise};
  PurePursuit pursuit{config_.pursuit, vp.ackermann};

  localizer.initialize(start_pose());
  LapTimer timer{raceline_.length()};

  const double odom_dt = 1.0 / config_.odom_rate_hz;
  const double scan_dt = 1.0 / config_.lidar_rate_hz;
  const double ctrl_dt = 1.0 / config_.control_rate_hz;
  double next_odom = 0.0;
  double next_scan = 0.0;
  double next_ctrl = 0.0;

  DriveCommand cmd{};
  double believed_speed = 0.0;
  double t = 0.0;

  RunningStats lap_lateral_cm;
  RunningStats alignment_percent;
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

  std::size_t kidnap_idx = 0;
  bool episode_open = false;
  int over_run = 0;
  int under_run = 0;
  double episode_open_t = 0.0;
  double first_divergence_t = -1.0;
  double last_recovery_t = -1.0;

  const int want_laps = std::max(config_.laps, 1);
  while (t < config_.max_sim_time &&
         static_cast<int>(result.lap_times.size()) < want_laps) {
    {
      Scope span{tracer, Span::kVehicleStep};
      vehicle.step(cmd, config_.sim_dt);
    }
    t += config_.sim_dt;
    const VehicleState& state = vehicle.state();
    true_dist += state.v * config_.sim_dt;
    slip_abs.add(std::abs(state.slip));

    bool crashed = false;
    {
      Scope span{tracer, Span::kEvalCrashCheck};
      crashed = wall_distance_.at_world({state.pose.x, state.pose.y}) <
                static_cast<float>(config_.crash_wall_distance);
    }
    if (crashed) {
      result.crashed = true;
      break;
    }

    if (kidnap_idx < config_.kidnaps.size() &&
        t >= config_.kidnaps[kidnap_idx].t) {
      const ExperimentConfig::KidnapSpec& k = config_.kidnaps[kidnap_idx];
      {
        Scope span{tracer, Span::kVehicleKidnap};
        const Raceline::Projection cur =
            raceline_.project({state.pose.x, state.pose.y});
        const double s1 =
            raceline_.wrap(cur.s + k.advance_frac * raceline_.length());
        const Vec2 p = raceline_.position(s1);
        const double h = raceline_.heading(s1);
        const Vec2 normal{-std::sin(h), std::cos(h)};
        vehicle.reset(Pose2{p.x + normal.x * k.lateral_m,
                            p.y + normal.y * k.lateral_m,
                            normalize_angle(h + k.yaw)});
      }
      ++kidnap_idx;
      ++result.kidnaps_applied;
      {
        json::Value data = json::Value::object();
        data.set("advance_frac", json::Value::number(k.advance_frac));
        data.set("lateral_m", json::Value::number(k.lateral_m));
        data.set("yaw", json::Value::number(k.yaw));
        emit(t, telemetry::EventSeverity::kInfo, "experiment.kidnap",
             std::move(data));
      }
    }

    if (t >= next_odom) {
      next_odom += odom_dt;
      OdometryDelta odom;
      {
        Scope span{tracer, Span::kVehicleOdometry};
        odom = odom_sensor.measure(state, odom_dt, rng);
      }
      localizer.on_odometry(odom);
      believed_speed = odom.v;
      odom_dist += odom.v * odom_dt;
    }

    if (t >= next_scan) {
      next_scan += scan_dt;
      LaserScan scan;
      {
        Scope span{tracer, Span::kSensorTruthScan};
        scan = lidar.scan(state.pose, state.twist(), t, rng);
      }
      const Pose2 est = localizer.on_scan(scan);

      const double est_err =
          std::hypot(est.x - state.pose.x, est.y - state.pose.y);
      result.final_pose_error_m = est_err;

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
          }
        } else {
          over_run = 0;
        }
      } else {
        if (est_err < config_.divergence_close_m) {
          ++under_run;
          if (under_run >= config_.divergence_dwell) {
            episode_open = false;
            over_run = 0;
            ++result.recoveries;
            result.time_to_relocalize_s.push_back(t - episode_open_t);
            last_recovery_t = t;
            json::Value data = json::Value::object();
            data.set("duration_s", json::Value::number(t - episode_open_t));
            emit(t, telemetry::EventSeverity::kInfo,
                 "experiment.episode_closed", std::move(data));
          }
        } else {
          under_run = 0;
        }
      }

      if (timer.armed()) {
        Scope span{tracer, Span::kEvalAlignment};
        alignment_percent.add(alignment_.score(scan, config_.lidar, est));
      }
      if (timer.armed()) {
        const double ex = est.x - state.pose.x;
        const double ey = est.y - state.pose.y;
        pose_err_sq_sum += ex * ex + ey * ey;
        Raceline::Projection p;
        {
          Scope span{tracer, Span::kTrackProject};
          p = raceline_.project({state.pose.x, state.pose.y});
        }
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
      }
    }

    if (t >= next_ctrl) {
      next_ctrl += ctrl_dt;
      {
        Scope span{tracer, Span::kControlPursuit};
        const Pose2 believed = localizer.pose();
        cmd = pursuit.control(believed, believed_speed, raceline_, profile_);
      }
      if (config_.launch_ramp_s > 0.0 && t < config_.launch_ramp_s) {
        cmd.target_speed *= t / config_.launch_ramp_s;
      }

      Raceline::Projection proj;
      {
        Scope span{tracer, Span::kTrackProject};
        proj = raceline_.project({state.pose.x, state.pose.y});
      }
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
      bool lap_done = false;
      {
        Scope span{tracer, Span::kTrackLapTimer};
        lap_done = timer.update(proj.s, t);
      }
      if (lap_done) {
        result.lap_times.push_back(timer.lap_times().back());
        result.lap_lateral_mean_cm.push_back(lap_lateral_cm.mean());
        lap_lateral_cm.reset();
        odom_drift_per_lap.add(std::abs((odom_dist - lap_odom_dist) -
                                        (true_dist - lap_true_dist)));
        lap_odom_dist = odom_dist;
        lap_true_dist = true_dist;
      } else if (!was_armed && timer.armed()) {
        lap_lateral_cm.reset();
        lap_odom_dist = odom_dist;
        lap_true_dist = true_dist;
      }
    }
  }

  if (result.crashed) {
    json::Value data = json::Value::object();
    data.set("t", json::Value::number(t));
    emit(t, telemetry::EventSeverity::kCritical, "experiment.crash",
         std::move(data));
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

}  // namespace e2e
