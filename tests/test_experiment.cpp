#include "eval/experiment.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"
#include "eval/dead_reckoning.hpp"

namespace srl {
namespace {

/// Localizer that freezes: the controller gets a stale pose and drives the
/// car into a wall — the harness must detect the crash.
class FrozenLocalizer final : public Localizer {
 public:
  void initialize(const Pose2& pose) override { pose_ = pose; }
  void on_odometry(const OdometryDelta&) override {}
  Pose2 on_scan(const LaserScan&) override { return pose_; }
  Pose2 pose() const override { return pose_; }
  std::string name() const override { return "Frozen"; }
  double mean_scan_update_ms() const override { return 0.0; }
  double total_busy_s() const override { return 0.0; }

 private:
  Pose2 pose_{};
};

ExperimentConfig quick_config() {
  ExperimentConfig cfg;
  cfg.laps = 1;
  cfg.max_sim_time = 60.0;
  // Slow and grippy: dead reckoning survives the run.
  cfg.profile.scale = 0.5;
  cfg.odom_noise.speed_noise = 0.0;
  cfg.odom_noise.steer_noise = 0.0;
  return cfg;
}

TEST(Experiment, CompletesLapsWithDeadReckoning) {
  const Track track = TrackGenerator::oval(8.0, 2.5);
  ExperimentRunner runner{track, quick_config()};
  DeadReckoning localizer;
  const ExperimentResult r = runner.run(localizer);
  EXPECT_TRUE(r.completed) << "sim time " << r.sim_time;
  ASSERT_EQ(r.lap_times.size(), 1U);
  EXPECT_GT(r.lap_times[0], 5.0);
  EXPECT_LT(r.lap_times[0], 40.0);
  // Dead reckoning drifts and scans are motion-distorted, so alignment is
  // moderate — it just must be clearly above garbage level.
  EXPECT_GT(r.scan_alignment, 30.0);
  EXPECT_GE(r.lateral_mean_cm, 0.0);
  EXPECT_LT(r.lateral_mean_cm, 50.0);
  EXPECT_FALSE(r.crashed);
  EXPECT_GT(r.sim_time, 0.0);
}

TEST(Experiment, LapStatisticsShapes) {
  const Track track = TrackGenerator::oval(8.0, 2.5);
  ExperimentConfig cfg = quick_config();
  cfg.laps = 2;
  ExperimentRunner runner{track, cfg};
  DeadReckoning localizer;
  const ExperimentResult r = runner.run(localizer);
  ASSERT_EQ(r.lap_times.size(), 2U);
  ASSERT_EQ(r.lap_lateral_mean_cm.size(), 2U);
  EXPECT_NEAR(r.lap_time_mean, (r.lap_times[0] + r.lap_times[1]) / 2.0,
              1e-9);
}

TEST(Experiment, DetectsCrashWithFrozenLocalizer) {
  const Track track = TrackGenerator::oval(8.0, 2.5);
  ExperimentConfig cfg = quick_config();
  cfg.max_sim_time = 30.0;
  ExperimentRunner runner{track, cfg};
  FrozenLocalizer localizer;
  const ExperimentResult r = runner.run(localizer);
  EXPECT_TRUE(r.crashed);
  EXPECT_FALSE(r.completed);
}

TEST(Experiment, StartPoseOnRaceline) {
  const Track track = TrackGenerator::oval(8.0, 2.5);
  ExperimentRunner runner{track, quick_config()};
  const Pose2 start = runner.start_pose();
  const auto proj = runner.raceline().project({start.x, start.y});
  EXPECT_LT(std::abs(proj.lateral), 0.02);
  EXPECT_NEAR(angle_dist(start.theta, runner.raceline().heading(proj.s)),
              0.0, 0.05);
}

TEST(Experiment, GripChangesSlipDiagnostics) {
  const Track track = TrackGenerator::test_track();
  ExperimentConfig hq = quick_config();
  hq.mu = 0.76;
  hq.profile.scale = 1.0;
  ExperimentConfig lq = hq;
  lq.mu = 0.55;
  DeadReckoning a;
  DeadReckoning b;
  const ExperimentResult rh = ExperimentRunner{track, hq}.run(a);
  const ExperimentResult rl = ExperimentRunner{track, lq}.run(b);
  // Regardless of lap completion, the slippery setting must show more slip.
  EXPECT_GT(rl.mean_abs_slip, rh.mean_abs_slip);
}

TEST(Experiment, RunEndingMidEpisodeCountsAsUnrecovered) {
  // Boundary semantics the frontier bisector scores against: when the run
  // ends while a divergence episode is still open, the episode counts as
  // unrecovered — `recovered` demands every opened episode closed again.
  // A kidnapped dead reckoner is the canonical case: the estimate never
  // re-converges, so the episode opened by the teleport cannot close.
  const Track track = TrackGenerator::oval(8.0, 2.5);
  ExperimentConfig cfg = quick_config();
  // Never completes a lap count; the clock ends the run shortly after the
  // kidnap — early enough that the disoriented car hasn't hit a wall yet,
  // so the open episode (not a crash) is what denies recovery.
  cfg.laps = 1000000;
  cfg.max_sim_time = 6.0;
  ExperimentConfig::KidnapSpec kidnap;
  kidnap.t = 5.0;
  kidnap.advance_frac = 0.25;
  cfg.kidnaps.push_back(kidnap);
  ExperimentRunner runner{track, cfg};
  DeadReckoning localizer;
  const ExperimentResult r = runner.run(localizer);

  EXPECT_EQ(r.kidnaps_applied, 1);
  ASSERT_EQ(r.divergence_episodes, 1);
  EXPECT_EQ(r.recoveries, 0);
  EXPECT_FALSE(r.crashed);
  // The load-bearing bit: open episode at stream end == not recovered.
  EXPECT_FALSE(r.recovered);
  EXPECT_GT(r.final_pose_error_m, cfg.divergence_open_m);
  // Nothing recovered, so no time-to-relocalize sample may exist.
  EXPECT_TRUE(r.time_to_relocalize_s.empty());
}

TEST(Experiment, MaxSimTimeGuard) {
  const Track track = TrackGenerator::oval(8.0, 2.5);
  ExperimentConfig cfg = quick_config();
  cfg.max_sim_time = 2.0;  // too short for any lap
  ExperimentRunner runner{track, cfg};
  DeadReckoning localizer;
  const ExperimentResult r = runner.run(localizer);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.sim_time, 2.1);
}

}  // namespace
}  // namespace srl
