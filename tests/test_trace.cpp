#include "eval/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/synpf.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/experiment.hpp"
#include "gridmap/track_generator.hpp"

namespace srl {
namespace {

/// Short drive on the oval, recorded once for all tests in this file.
class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    track_ = std::make_unique<Track>(TrackGenerator::oval(8.0, 2.5));
    trace_ = std::make_unique<SensorTrace>();
    ExperimentConfig cfg;
    cfg.laps = 1;
    cfg.max_sim_time = 25.0;
    cfg.profile.scale = 0.5;
    cfg.odom_noise.speed_noise = 0.0;
    cfg.odom_noise.steer_noise = 0.0;
    ExperimentRunner runner{*track_, cfg};
    DeadReckoning driver;
    runner.run(driver, trace_.get());
  }
  static void TearDownTestSuite() {
    trace_.reset();
    track_.reset();
  }

  static std::unique_ptr<Track> track_;
  static std::unique_ptr<SensorTrace> trace_;
};

std::unique_ptr<Track> TraceTest::track_;
std::unique_ptr<SensorTrace> TraceTest::trace_;

TEST_F(TraceTest, RecordingCapturesStreams) {
  ASSERT_FALSE(trace_->empty());
  // 100 Hz odometry vs 40 Hz scans: ratio ~2.5.
  EXPECT_GT(trace_->odometry().size(), 2 * trace_->scans().size());
  EXPECT_GT(trace_->scans().size(), 100U);
  EXPECT_GT(trace_->duration(), 5.0);
  // Timestamps are monotone.
  for (std::size_t i = 1; i < trace_->odometry().size(); ++i) {
    EXPECT_LE(trace_->odometry()[i - 1].t, trace_->odometry()[i].t);
  }
}

TEST_F(TraceTest, SaveLoadRoundTrip) {
  const std::string path = "trace_test_tmp.srlt";
  ASSERT_TRUE(trace_->save(path));
  const auto loaded = SensorTrace::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->odometry().size(), trace_->odometry().size());
  ASSERT_EQ(loaded->scans().size(), trace_->scans().size());
  EXPECT_DOUBLE_EQ(loaded->odometry()[5].t, trace_->odometry()[5].t);
  EXPECT_DOUBLE_EQ(loaded->odometry()[5].odom.delta.x,
                   trace_->odometry()[5].odom.delta.x);
  const auto& a = loaded->scans()[3];
  const auto& b = trace_->scans()[3];
  EXPECT_DOUBLE_EQ(a.truth.x, b.truth.x);
  EXPECT_EQ(a.scan.ranges, b.scan.ranges);
}

TEST_F(TraceTest, LoadRejectsGarbage) {
  const std::string path = "trace_garbage_tmp.srlt";
  {
    std::ofstream out{path, std::ios::binary};
    out << "not a trace at all";
  }
  EXPECT_FALSE(SensorTrace::load(path).has_value());
  std::remove(path.c_str());
  EXPECT_FALSE(SensorTrace::load("nonexistent.srlt").has_value());
}

/// The loader's damaged-file corpus: a small trace, truncated at every byte
/// offset and with every single-bit flip, must load as std::nullopt or as a
/// trace and never crash (the CI san preset runs it under ASan and UBSan).
/// Every record is required, so every truncation is rejected. Non-finite
/// field values are left to ingress validation, not to the loader.
TEST(TraceFuzz, TruncatedAndBitFlippedFilesNeverCrashTheLoader) {
  SensorTrace trace;
  for (int i = 0; i < 4; ++i) {
    trace.add_odometry(0.01 * i,
                       OdometryDelta{Pose2{0.02, 0.001 * i, 0.003}, 2.0, 0.01});
  }
  for (int k = 0; k < 3; ++k) {
    LaserScan scan;
    scan.t = 0.025 * k;
    scan.ranges = {1.0F, 2.5F, 12.0F, 0.3F, 7.0F};
    trace.add_scan(scan, Pose2{1.0 * k, 2.0, 0.1});
  }
  const std::string path = "trace_fuzz_tmp.srlt";
  ASSERT_TRUE(trace.save(path));
  std::vector<char> bytes;
  {
    std::ifstream in{path, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>{in},
                 std::istreambuf_iterator<char>{});
  }
  const auto load = [&path](const std::vector<char>& data, std::size_t len) {
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out.write(data.data(), static_cast<std::streamsize>(len));
    }
    return SensorTrace::load(path);
  };

  const auto whole = load(bytes, bytes.size());
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->odometry().size(), 4U);
  EXPECT_EQ(whole->scans().size(), 3U);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(load(bytes, len).has_value()) << "truncated at " << len;
  }

  std::size_t loaded = 0;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      if (load(flipped, flipped.size()).has_value()) ++loaded;
    }
  }
  // Flips inside field values still load; flips in the magic, the version
  // and the counts are rejected.
  EXPECT_GT(loaded, 0U);
  EXPECT_LT(loaded, bytes.size() * 8);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ReplayIntoSynPfIsAccurateAndDeterministic) {
  auto map = std::make_shared<const OccupancyGrid>(track_->grid);
  SynPfConfig cfg;
  cfg.range = RangeMethodKind::kCddt;
  cfg.filter.n_particles = 800;

  SynPf a{cfg, map, LidarConfig{}};
  const SensorTrace::ReplayResult ra = trace_->replay(a);
  EXPECT_EQ(ra.estimates.size(), trace_->scans().size());
  EXPECT_LT(ra.pose_rmse_m, 0.2);
  EXPECT_LT(ra.heading_rmse_rad, 0.1);

  // Same trace + same seed -> bitwise-identical estimates.
  SynPf b{cfg, map, LidarConfig{}};
  const SensorTrace::ReplayResult rb = trace_->replay(b);
  ASSERT_EQ(ra.estimates.size(), rb.estimates.size());
  for (std::size_t i = 0; i < ra.estimates.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.estimates[i].x, rb.estimates[i].x);
    EXPECT_DOUBLE_EQ(ra.estimates[i].theta, rb.estimates[i].theta);
  }
}

TEST_F(TraceTest, ReplayBeatsDeadReckoningOnNoisyOdometry) {
  // Corrupt the odometry of a copy of the trace; the PF replay must beat
  // pure dead reckoning on the identical data.
  SensorTrace corrupted = *trace_;
  {
    SensorTrace rebuilt;
    for (const auto& rec : corrupted.odometry()) {
      OdometryDelta odom = rec.odom;
      odom.delta.x *= 1.15;  // 15% longitudinal over-reporting
      rebuilt.add_odometry(rec.t, odom);
    }
    for (const auto& rec : corrupted.scans()) {
      rebuilt.add_scan(rec.scan, rec.truth);
    }
    corrupted = std::move(rebuilt);
  }
  DeadReckoning dr;
  const auto dr_result = corrupted.replay(dr);

  auto map = std::make_shared<const OccupancyGrid>(track_->grid);
  SynPfConfig cfg;
  cfg.range = RangeMethodKind::kCddt;
  cfg.filter.n_particles = 800;
  SynPf pf{cfg, map, LidarConfig{}};
  const auto pf_result = corrupted.replay(pf);

  EXPECT_LT(pf_result.pose_rmse_m, 0.3 * dr_result.pose_rmse_m);
}

}  // namespace
}  // namespace srl
