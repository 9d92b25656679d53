/// Contract subsystem (common/contracts.hpp): macro semantics in both build
/// flavors, the handler/observer plumbing, the telemetry bridge, and — in
/// SYNPF_CHECKED builds — the contracts wired into the library's hot seams
/// (particle filter, range backends, occupancy grid, vehicle sim). In a
/// release flavor those runtime checks compile to nothing, so the wired-in
/// cases are skipped via `contracts::enabled()`.

#include "common/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/particle_filter.hpp"
#include "motion/diff_drive.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "gridmap/track_generator.hpp"
#include "range/range_method.hpp"
#include "telemetry/contract_monitor.hpp"
#include "vehicle/vehicle_sim.hpp"

namespace srl {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

int g_eval_count = 0;
bool count_and_pass() {
  ++g_eval_count;
  return true;
}

TEST(Contracts, ConditionsAreOnlyEvaluatedInCheckedBuilds) {
  g_eval_count = 0;
  SYNPF_EXPECTS(count_and_pass());
  SYNPF_ENSURES(count_and_pass());
  SYNPF_INVARIANT(count_and_pass());
  EXPECT_EQ(g_eval_count, contracts::enabled() ? 3 : 0);
}

TEST(Contracts, DescribeIncludesEveryField) {
  const contracts::Violation v{contracts::Kind::kEnsures, "x > 0",
                               "x must be positive", "foo.cpp", 42, "bar"};
  const std::string text = contracts::describe(v);
  EXPECT_NE(text.find("ENSURES"), std::string::npos);
  EXPECT_NE(text.find("x > 0"), std::string::npos);
  EXPECT_NE(text.find("x must be positive"), std::string::npos);
  EXPECT_NE(text.find("foo.cpp:42"), std::string::npos);
  EXPECT_NE(text.find("bar"), std::string::npos);
}

TEST(Contracts, ThrowingHandlerDeliversTheViolation) {
  const contracts::ScopedHandler guard{contracts::throwing_handler};
  const contracts::Violation v{contracts::Kind::kInvariant, "cond", "",
                               "f.cpp", 7, "fn"};
  try {
    contracts::handle_violation(v);
    FAIL() << "handler did not throw";
  } catch (const contracts::ViolationError& e) {
    EXPECT_EQ(e.violation().kind, contracts::Kind::kInvariant);
    EXPECT_STREQ(e.violation().condition, "cond");
    EXPECT_EQ(e.violation().line, 7);
  }
}

TEST(Contracts, ScopedHandlerRestoresThePreviousHandler) {
  // Install a throwing handler, then nest-and-drop a second handler: the
  // outer one must be back in force afterwards.
  const contracts::ScopedHandler outer{contracts::throwing_handler};
  {
    const contracts::ScopedHandler inner{+[](const contracts::Violation&) {
      // swallow
    }};
    contracts::handle_violation({});  // must not throw
  }
  EXPECT_THROW(contracts::handle_violation({}), contracts::ViolationError);
}

TEST(Contracts, MonitorCountsViolationsByKind) {
  const contracts::ScopedHandler guard{+[](const contracts::Violation&) {}};
  telemetry::MetricsRegistry registry;
  {
    telemetry::ContractMonitor monitor{registry};
    contracts::handle_violation({contracts::Kind::kExpects, "a", "", "f", 1, "fn"});
    contracts::handle_violation({contracts::Kind::kExpects, "b", "", "f", 2, "fn"});
    contracts::handle_violation({contracts::Kind::kEnsures, "c", "", "f", 3, "fn"});
    EXPECT_EQ(monitor.violations(), 3U);
  }
  EXPECT_EQ(registry.counter("contracts.violations").value(), 3U);
  EXPECT_EQ(registry.counter("contracts.expects").value(), 2U);
  EXPECT_EQ(registry.counter("contracts.ensures").value(), 1U);
  EXPECT_EQ(registry.counter("contracts.invariant").value(), 0U);
  // Monitor uninstalled: further violations are not counted.
  contracts::handle_violation({});
  EXPECT_EQ(registry.counter("contracts.violations").value(), 3U);
}

/// The wired-in library contracts only exist in SYNPF_CHECKED builds.
class WiredContracts : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!contracts::enabled()) {
      GTEST_SKIP() << "contracts compiled out in this flavor";
    }
  }
  contracts::ScopedHandler guard_{contracts::throwing_handler};
};

TEST_F(WiredContracts, OccupancyGridRejectsOutOfBoundsAt) {
  const OccupancyGrid grid{10, 10, 0.1, Vec2{0.0, 0.0}, OccupancyGrid::kFree};
  EXPECT_THROW((void)grid.at(-1, 0), contracts::ViolationError);
  EXPECT_THROW((void)grid.at(0, 10), contracts::ViolationError);
  EXPECT_NO_THROW((void)grid.at(9, 9));
}

TEST_F(WiredContracts, RangeBackendsRejectNonFinitePoses) {
  const Track track = TrackGenerator::oval(6.0, 2.0);
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  for (const auto kind :
       {RangeMethodKind::kBresenham, RangeMethodKind::kRayMarching,
        RangeMethodKind::kCddt, RangeMethodKind::kLut}) {
    const auto method = make_range_method(kind, map);
    EXPECT_THROW((void)method->range({kNan, 0.0, 0.0}),
                 contracts::ViolationError)
        << method->name();
    EXPECT_THROW(
        (void)method->range({0.0, std::numeric_limits<double>::infinity(),
                             0.0}),
        contracts::ViolationError)
        << method->name();
  }
}

TEST_F(WiredContracts, VehicleSimRejectsBadStepInputs) {
  VehicleSim sim;
  EXPECT_THROW(sim.step({1.0, 0.0}, 0.0), contracts::ViolationError);
  EXPECT_THROW(sim.step({1.0, 0.0}, kNan), contracts::ViolationError);
  EXPECT_THROW(sim.step({kNan, 0.0}, 0.01), contracts::ViolationError);
  EXPECT_NO_THROW(sim.step({1.0, 0.0}, 0.01));
}

TEST_F(WiredContracts, ParticleFilterRejectsNonFiniteOdometry) {
  const Track track = TrackGenerator::oval(6.0, 2.0);
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  auto caster = std::shared_ptr<const RangeMethod>{
      make_range_method(RangeMethodKind::kBresenham, map)};
  auto motion = std::make_shared<const DiffDriveModel>();
  ParticleFilterConfig cfg;
  cfg.n_particles = 50;
  ParticleFilter pf{cfg,           std::move(caster), std::move(motion),
                    BeamModel{},   LidarConfig{},     {0, 10, 20}};
  pf.init_pose({track.centerline.front(), 0.0});
  OdometryDelta bad;
  bad.delta.x = kNan;
  EXPECT_THROW(pf.predict(bad), contracts::ViolationError);
}

}  // namespace
}  // namespace srl
