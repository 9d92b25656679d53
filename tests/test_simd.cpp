#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(SRL_SIMD_X86_AVX2)
#include <cpuid.h>
#endif

#include "common/angles.hpp"
#include "common/rng.hpp"
#include "core/particle_cloud.hpp"
#include "core/pf_kernels.hpp"
#include "range/cddt.hpp"
#include "range/lookup_table.hpp"
#include "range/ray_marching.hpp"
#include "sensor/beam_model.hpp"
#include "sensor/lidar.hpp"
#include "slam/scan_matching.hpp"

namespace srl {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// ---------------------------------------------------------------------------
// Aligned storage & the SoA particle slab
// ---------------------------------------------------------------------------

TEST(AlignedVector, DataIsAlwaysCacheLineAligned) {
  for (std::size_t n : {1u, 3u, 64u, 65u, 1000u, 4099u}) {
    simd::AlignedVector<double> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u) << n;
    simd::AlignedVector<std::int32_t> w(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u) << n;
  }
}

TEST(ParticleCloud, SlabsAreAlignedAndSized) {
  ParticleCloud cloud(1001);  // deliberately not a multiple of 4 or 64
  EXPECT_EQ(cloud.size(), 1001u);
  for (const double* slab :
       {cloud.x(), cloud.y(), cloud.theta(), cloud.weight()}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slab) % 64, 0u);
  }
  EXPECT_EQ(cloud.weights().size(), 1001u);
}

TEST(ParticleCloud, ResizePreservesSurvivingPrefixBitwise) {
  ParticleCloud cloud(7);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    cloud.set_particle(i, {{0.1 * static_cast<double>(i) + 0.05,
                            -3.0 + static_cast<double>(i), 1e-9},
                           0.5 + static_cast<double>(i)});
  }
  const std::vector<Particle> before = cloud.snapshot();

  cloud.resize(23);  // grow
  ASSERT_EQ(cloud.size(), 23u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(bits(cloud.pose(i).x), bits(before[i].pose.x)) << i;
    EXPECT_EQ(bits(cloud.pose(i).y), bits(before[i].pose.y)) << i;
    EXPECT_EQ(bits(cloud.pose(i).theta), bits(before[i].pose.theta)) << i;
    EXPECT_EQ(bits(cloud.weight()[i]), bits(before[i].weight)) << i;
  }
  // New slots: identity pose, weight 1.
  for (std::size_t i = before.size(); i < cloud.size(); ++i) {
    EXPECT_EQ(cloud.pose(i).x, 0.0);
    EXPECT_EQ(cloud.pose(i).theta, 0.0);
    EXPECT_EQ(cloud.weight()[i], 1.0);
  }

  cloud.resize(3);  // shrink
  ASSERT_EQ(cloud.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bits(cloud.pose(i).y), bits(before[i].pose.y)) << i;
  }
}

TEST(ParticleCloud, ChunkViewsAliasTheSlabs) {
  ParticleCloud cloud(100);
  cloud.set_pose(37, {1.5, -2.5, 0.25});
  const ParticleCloud::ChunkView view = cloud.chunk(25, 50);
  EXPECT_EQ(view.begin, 25u);
  EXPECT_EQ(view.count, 25u);
  EXPECT_EQ(view.x, cloud.x() + 25);
  EXPECT_EQ(view.weight, cloud.weight() + 25);
  // Writes through the view land in the slab (no copy).
  view.theta[37 - 25] = 0.75;
  EXPECT_EQ(cloud.pose(37).theta, 0.75);
  EXPECT_EQ(cloud.pose(37).x, 1.5);
}

TEST(ParticleCloud, SnapshotRoundTrips) {
  ParticleCloud cloud(5);
  for (std::size_t i = 0; i < 5; ++i) {
    cloud.set_particle(i, {{static_cast<double>(i), -1.0, 0.1}, 2.0});
  }
  const std::vector<Particle> snap = cloud.snapshot();
  ParticleCloud back(5);
  for (std::size_t i = 0; i < 5; ++i) back.set_particle(i, snap[i]);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(bits(back.pose(i).x), bits(cloud.pose(i).x));
    EXPECT_EQ(bits(back.weight()[i]), bits(cloud.weight()[i]));
  }
}

// ---------------------------------------------------------------------------
// Backend dispatch seam
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ForcePinsAndResetUnpins) {
  simd::force(simd::Backend::kScalar);
  EXPECT_EQ(simd::active(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::name(simd::active()), "scalar");
  if (simd::cpu_has_avx2()) {
    simd::force(simd::Backend::kAvx2);
    EXPECT_EQ(simd::active(), simd::Backend::kAvx2);
    EXPECT_STREQ(simd::name(simd::active()), "avx2");
  }
  simd::reset();
}

// ---------------------------------------------------------------------------
// Weight kernel: scalar vs AVX2, bit for bit, on hostile inputs
// ---------------------------------------------------------------------------

/// Runs both kernels over the same expected-range matrix and demands
/// bitwise-identical outputs. `n` deliberately not a multiple of 4 so the
/// vector path exercises its scalar remainder too.
void expect_kernels_agree(const pf_kernels::ScanContext& ctx,
                          const std::vector<float>& expected, std::size_t n,
                          std::size_t k) {
#if defined(SRL_SIMD_X86_AVX2)
  ASSERT_EQ(expected.size(), n * k);
  std::vector<double> scalar_out(n, -1.0);
  std::vector<double> avx2_out(n, -2.0);
  pf_kernels::accumulate_log_weights_scalar(ctx, expected.data(), k, 0, n,
                                            scalar_out.data());
  pf_kernels::accumulate_log_weights_avx2(ctx, expected.data(), k, 0, n,
                                          avx2_out.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(std::isfinite(scalar_out[i])) << i;
    EXPECT_EQ(bits(scalar_out[i]), bits(avx2_out[i])) << "particle " << i;
  }
  // Partial ranges must agree with the full pass (chunked dispatch).
  std::vector<double> chunked(n, -3.0);
  const std::size_t mid = n / 2;
  pf_kernels::accumulate_log_weights_avx2(ctx, expected.data(), k, 0, mid,
                                          chunked.data());
  pf_kernels::accumulate_log_weights_avx2(ctx, expected.data(), k, mid, n,
                                          chunked.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits(chunked[i]), bits(scalar_out[i])) << "chunked " << i;
  }
#else
  (void)ctx;
  (void)expected;
  (void)n;
  (void)k;
#endif
}

/// Expected-range matrix stuffed with the values that break naive
/// vectorizations: exact zeros, the clamp boundaries, beyond-max-range,
/// astronomically large floats (cvttpd saturation), and bin-edge values.
std::vector<float> hostile_expected(std::size_t n, std::size_t k,
                                    const BeamModel& model) {
  const auto max_range = static_cast<float>(model.params().max_range);
  const auto res = static_cast<float>(model.params().table_resolution);
  const float specials[] = {
      0.0F,
      res * 0.5F,               // exactly on the round-half boundary
      res * 1.5F,               // next bin boundary
      1.0F,
      max_range - res,          // near the top
      max_range,                // top bin
      max_range + 5.0F,         // clamps to the top bin
      1e30F,                    // past INT_MAX once scaled: the top bin
      3.37F,
      0.051F,
  };
  std::vector<float> expected(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      expected[i * k + j] = specials[(i * 7 + j) % std::size(specials)];
    }
  }
  return expected;
}

TEST(WeightKernel, ScalarAndAvx2AgreeBitwiseOnDenseColumns) {
  if (!simd::cpu_has_avx2()) {
    GTEST_SKIP() << "host CPU lacks AVX2; scalar-vs-vector kernel "
                    "cross-check not runnable here";
  }
  const BeamModel model;
  const std::size_t k = 13;  // beams: 3 transpose groups + a tail of 1
  LaserScan scan;
  scan.ranges.assign(k, 4.0F);
  scan.ranges[3] = 0.0F;
  scan.ranges[7] = static_cast<float>(model.params().max_range);
  std::vector<int> beam_indices(k);
  for (std::size_t j = 0; j < k; ++j) beam_indices[j] = static_cast<int>(j);

  pf_kernels::ScanContext ctx;
  ctx.build(model, scan, beam_indices);
  ASSERT_TRUE(ctx.dense_columns);  // every index valid -> transpose path
  ASSERT_EQ(ctx.scored_beams(), k);

  const std::size_t n = 37;
  expect_kernels_agree(ctx, hostile_expected(n, k, model), n, k);
}

TEST(WeightKernel, ScalarAndAvx2AgreeBitwiseOnSparseColumns) {
  if (!simd::cpu_has_avx2()) {
    GTEST_SKIP() << "host CPU lacks AVX2; scalar-vs-vector kernel "
                    "cross-check not runnable here";
  }
  const BeamModel model;
  // Beam indices past the measured scan get dropped by build(): the
  // surviving columns are non-contiguous, forcing the gather path.
  const std::size_t k = 11;
  LaserScan scan;
  scan.ranges.assign(6, 2.0F);
  std::vector<int> beam_indices(k);
  for (std::size_t j = 0; j < k; ++j) {
    beam_indices[j] = static_cast<int>(j % 2 == 0 ? j / 2 : 100 + j);
  }

  pf_kernels::ScanContext ctx;
  ctx.build(model, scan, beam_indices);
  ASSERT_FALSE(ctx.dense_columns);
  ASSERT_EQ(ctx.scored_beams(), 6u);

  const std::size_t n = 29;
  expect_kernels_agree(ctx, hostile_expected(n, k, model), n, k);
}

TEST(WeightKernel, ZeroScoredBeamsYieldsZeroLogWeight) {
  const BeamModel model;
  LaserScan scan;  // empty: every beam index is out of range
  pf_kernels::ScanContext ctx;
  const std::vector<int> beam_indices = {0, 1, 2};
  ctx.build(model, scan, beam_indices);
  ASSERT_EQ(ctx.scored_beams(), 0u);

  const std::size_t n = 9;
  const std::size_t k = 3;
  const std::vector<float> expected(n * k, 1.0F);
  std::vector<double> out(n, -1.0);
  pf_kernels::accumulate_log_weights_scalar(ctx, expected.data(), k, 0, n,
                                            out.data());
  for (double v : out) EXPECT_EQ(v, 0.0);
#if defined(SRL_SIMD_X86_AVX2)
  if (simd::cpu_has_avx2()) {
    std::vector<double> vout(n, -1.0);
    pf_kernels::accumulate_log_weights_avx2(ctx, expected.data(), k, 0, n,
                                            vout.data());
    for (double v : vout) EXPECT_EQ(v, 0.0);
  }
#endif
}

TEST(WeightKernel, MatchesBeamModelLogProbReference) {
  // The batched kernel is an optimization of sum_j log_prob(measured_j,
  // expected_ij); hold it to that definition exactly.
  const BeamModel model;
  const std::size_t k = 5;
  LaserScan scan;
  scan.ranges = {0.5F, 3.0F, 7.5F, 11.9F, 0.0F};
  std::vector<int> beam_indices = {0, 1, 2, 3, 4};
  pf_kernels::ScanContext ctx;
  ctx.build(model, scan, beam_indices);

  const std::size_t n = 6;
  const std::vector<float> expected = hostile_expected(n, k, model);
  std::vector<double> out(n, 0.0);
  pf_kernels::accumulate_log_weights_scalar(ctx, expected.data(), k, 0, n,
                                            out.data());
  for (std::size_t i = 0; i < n; ++i) {
    double reference = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      reference += model.log_prob(scan.ranges[j], expected[i * k + j]);
    }
    EXPECT_EQ(bits(out[i]), bits(reference)) << i;
  }
}

// ---------------------------------------------------------------------------
// Batched raycasting: ranges_from vs per-ray range(), scalar vs AVX2
// ---------------------------------------------------------------------------

/// A square room: free interior, one-cell walls, 10 m x 10 m at 5 cm.
std::shared_ptr<const OccupancyGrid> make_room() {
  auto grid = std::make_shared<OccupancyGrid>(200, 200, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  for (int i = 0; i < 200; ++i) {
    grid->at(i, 0) = OccupancyGrid::kOccupied;
    grid->at(i, 199) = OccupancyGrid::kOccupied;
    grid->at(0, i) = OccupancyGrid::kOccupied;
    grid->at(199, i) = OccupancyGrid::kOccupied;
  }
  return grid;
}

/// Beam fan spanning several full turns so the batched bin math hits every
/// wrap branch the per-ray path normalizes through.
std::vector<double> wrapping_beam_angles() {
  std::vector<double> angles;
  for (double a = -4.0 * kPi; a <= 4.0 * kPi; a += kPi / 7.0) {
    angles.push_back(a);
  }
  return angles;
}

TEST(RangesFrom, LutBatchMatchesPerRayBitwiseOnBothBackends) {
  auto room = make_room();
  const RangeLut lut{room, 12.0, 60};
  const std::vector<double> angles = wrapping_beam_angles();
  const Pose2 sensors[] = {
      {5.0, 5.0, 0.3}, {1.0, 8.7, -2.0}, {9.2, 0.6, 1e7}, {2.5, 2.5, -4.0}};

  for (const Pose2& sensor : sensors) {
    std::vector<float> scalar_out(angles.size());
    simd::force(simd::Backend::kScalar);
    lut.ranges_from(sensor, angles, scalar_out);
    simd::reset();

    for (std::size_t j = 0; j < angles.size(); ++j) {
      const Pose2 ray{sensor.x, sensor.y, sensor.theta + angles[j]};
      EXPECT_EQ(bits(scalar_out[j]), bits(lut.range(ray))) << j;
    }

    if (simd::cpu_has_avx2()) {
      std::vector<float> avx2_out(angles.size());
      simd::force(simd::Backend::kAvx2);
      lut.ranges_from(sensor, angles, avx2_out);
      simd::reset();
      for (std::size_t j = 0; j < angles.size(); ++j) {
        EXPECT_EQ(bits(avx2_out[j]), bits(scalar_out[j])) << j;
      }
    }
  }
  if (!simd::cpu_has_avx2()) {
    std::fprintf(stderr,
                 "[simd] NOTE: host CPU lacks AVX2; LUT batch checked "
                 "against the scalar backend only\n");
  }
}

TEST(RangesFrom, LutOutOfMapSensorYieldsZeros) {
  auto room = make_room();
  const RangeLut lut{room, 12.0, 60};
  const std::vector<double> angles = wrapping_beam_angles();
  const Pose2 outside[] = {{-5.0, -5.0, 0.7}, {1e6, 1e6, 0.0},
                           {0.01, 0.01, 0.3} /* wall cell */};
  for (const Pose2& sensor : outside) {
    std::vector<float> out(angles.size(), -1.0F);
    lut.ranges_from(sensor, angles, out);
    for (std::size_t j = 0; j < angles.size(); ++j) {
      EXPECT_EQ(out[j], 0.0F) << j;
      const Pose2 ray{sensor.x, sensor.y, sensor.theta + angles[j]};
      EXPECT_EQ(lut.range(ray), 0.0F) << j;
    }
  }
}

TEST(RangesFrom, CddtBatchMatchesPerRayBitwise) {
  auto room = make_room();
  const Cddt cddt{room, 12.0, 108};
  const std::vector<double> angles = wrapping_beam_angles();
  const Pose2 sensors[] = {
      {5.0, 5.0, 0.0}, {8.3, 1.4, 2.9}, {0.6, 9.3, -1e7}, {-2.0, 5.0, 0.0}};
  for (const Pose2& sensor : sensors) {
    std::vector<float> out(angles.size(), -1.0F);
    cddt.ranges_from(sensor, angles, out);
    for (std::size_t j = 0; j < angles.size(); ++j) {
      const Pose2 ray{sensor.x, sensor.y, sensor.theta + angles[j]};
      EXPECT_EQ(bits(out[j]), bits(cddt.range(ray))) << j;
    }
  }
}

// ---------------------------------------------------------------------------
// AVX state: every AVX2 kernel returns with clean upper-YMM state
// ---------------------------------------------------------------------------

/// Why the running CPU cannot check the AVX state; empty when it can. XINUSE
/// (XGETBV with ECX = 1) exists where CPUID.(EAX=0DH, ECX=1):EAX[2] says
/// so, and cpu_has_avx2() already implies OSXSAVE.
std::string xinuse_skip_reason() {
  if (!simd::cpu_has_avx2()) return "host CPU lacks AVX2; no AVX2 kernel ran";
#if defined(SRL_SIMD_X86_AVX2)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) != 0 &&
      (eax & (1U << 2)) != 0) {
    return {};
  }
#endif
  return "host CPU cannot read XINUSE (XGETBV with ECX = 1)";
}

/// XINUSE bit 2: the upper halves of the YMM registers are in use. While it
/// is set, every legacy-SSE instruction pays the AVX-SSE transition cost.
/// The memory clobber keeps the read right after the preceding call.
bool avx_upper_in_use() {
#if defined(SRL_SIMD_X86_AVX2)
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1) : "memory");
  return (lo & (1U << 2)) != 0;
#else
  return false;
#endif
}

TEST(AvxState, WeightKernelReturnsCleanAfterItsScalarRemainder) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const BeamModel model;
  const std::size_t k = 13;
  LaserScan scan;
  scan.ranges.assign(k, 4.0F);
  std::vector<int> beam_indices(k);
  for (std::size_t j = 0; j < k; ++j) beam_indices[j] = static_cast<int>(j);
  pf_kernels::ScanContext ctx;
  ctx.build(model, scan, beam_indices);

  // 5 = one vector block plus one remainder particle; 375 is one lane's
  // chunk of 1500 particles on 4 lanes.
  for (const std::size_t n : {std::size_t{5}, std::size_t{375}}) {
    const std::vector<float> expected = hostile_expected(n, k, model);
    std::vector<double> out(n, 0.0);
    pf_kernels::accumulate_log_weights(simd::Backend::kAvx2, ctx,
                                       expected.data(), k, 0, n, out.data());
    const bool dirty = avx_upper_in_use();
    EXPECT_FALSE(dirty) << "n=" << n;
    EXPECT_TRUE(std::isfinite(out[n - 1])) << "n=" << n;
  }
}

TEST(AvxState, LutBatchReturnsClean) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  auto room = make_room();
  const RangeLut lut{room, 12.0, 60};
  const Pose2 sensor{5.0, 5.0, 0.3};
  // 61 beams: 15 vector groups plus a scalar tail beam.
  std::vector<double> fan(61);
  for (std::size_t j = 0; j < fan.size(); ++j) {
    fan[j] = -2.35 + 4.7 * static_cast<double>(j) / 60.0;
  }
  // The same fan with its second group outside [-2pi, 4pi), which sends
  // that group down the scalar fallback.
  std::vector<double> wide = fan;
  wide[5] = 5.0 * kPi;

  for (const std::vector<double>* angles : {&fan, &wide}) {
    std::vector<float> out(angles->size(), -1.0F);
    simd::force(simd::Backend::kAvx2);
    lut.ranges_from(sensor, *angles, out);
    const bool dirty = avx_upper_in_use();
    simd::reset();
    EXPECT_FALSE(dirty) << (angles == &fan ? "61 beams" : "wide group");
    EXPECT_GT(out[5], 0.0F);
  }
}

TEST(AvxState, LutBuildReturnsClean) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  // 5 x 5 free cells inside a one-cell wall: 25 origins, one claim, so the
  // build runs on this thread alone: three full eight-lane passes and one
  // pass with a single live lane, per bin.
  auto box = std::make_shared<OccupancyGrid>(7, 7, 0.05, Vec2{0.0, 0.0},
                                             OccupancyGrid::kOccupied);
  for (int iy = 1; iy < 6; ++iy) {
    for (int ix = 1; ix < 6; ++ix) box->at(ix, iy) = OccupancyGrid::kFree;
  }
  simd::force(simd::Backend::kAvx2);
  const RangeLut lut{box, 12.0, 7};
  const bool dirty = avx_upper_in_use();
  simd::reset();
  EXPECT_FALSE(dirty);
  EXPECT_GT(lut.range({0.175, 0.175, 0.0}), 0.0F);
}

TEST(AvxState, CddtBatchReturnsClean) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  auto room = make_room();
  const Cddt cddt{room, 12.0, 108};
  const Pose2 sensor{5.0, 5.0, 0.3};
  // 61 beams: a batch of sixteen groups, the last with one live lane.
  std::vector<double> fan(61);
  for (std::size_t j = 0; j < fan.size(); ++j) {
    fan[j] = -2.35 + 4.7 * static_cast<double>(j) / 60.0;
  }
  // The same fan with its second group outside (-2pi, 2pi), which sends
  // that group down the scalar fallback.
  std::vector<double> wide = fan;
  wide[5] = 3.0 * kPi;

  for (const std::vector<double>* angles : {&fan, &wide}) {
    std::vector<float> out(angles->size(), -1.0F);
    simd::force(simd::Backend::kAvx2);
    cddt.ranges_from(sensor, *angles, out);
    const bool dirty = avx_upper_in_use();
    simd::reset();
    EXPECT_FALSE(dirty) << (angles == &fan ? "61 beams" : "wide group");
    EXPECT_GT(out[5], 0.0F);
  }
}

TEST(AvxState, RngTwistReturnsClean) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  // A fresh engine twists on its first draw, and again on draw 313.
  Rng rng{42};
  simd::force(simd::Backend::kAvx2);
  const std::uint64_t first = rng.next_seed();
  const bool dirty_first = avx_upper_in_use();
  for (int i = 1; i < 312; ++i) rng.next_seed();
  const std::uint64_t again = rng.next_seed();
  const bool dirty_again = avx_upper_in_use();
  simd::reset();
  EXPECT_FALSE(dirty_first);
  EXPECT_FALSE(dirty_again);
  EXPECT_NE(first, again);
}

TEST(AvxState, RayMarchingBatchReturnsClean) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  auto room = make_room();
  const RayMarching caster{room, 12.0};
  // 1081 rays: 33 blocks of 32 and a block of 25, whose last group has
  // one live lane.
  std::vector<Pose2> rays(1081);
  for (std::size_t i = 0; i < rays.size(); ++i) {
    rays[i] = {5.0, 5.0, -2.35 + 4.7 * static_cast<double>(i) / 1080.0};
  }
  std::vector<float> out(rays.size(), -1.0F);
  simd::force(simd::Backend::kAvx2);
  caster.ranges(rays, out);
  const bool dirty = avx_upper_in_use();
  simd::reset();
  EXPECT_FALSE(dirty);
  EXPECT_GT(out.back(), 0.0F);
}

TEST(AvxState, CorrelativeMatchReturnsCleanAfterItsRemainderLane) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  ProbabilityGrid grid{60, 60, 0.05, Vec2{}};
  for (int i = 0; i < 60; ++i) grid.update_hit(i, 30);
  const std::vector<Vec2> points = {{0.4, 0.1}, {-0.3, 0.05}, {0.2, -0.2}};
  // Window width 5: each row is one pass with five of its eight lanes live,
  // and no scalar remainder lane runs after it.
  CorrelativeOptions options;
  options.linear_window = 0.06;
  options.linear_step = 0.03;
  simd::force(simd::Backend::kAvx2);
  const ScanMatchResult r = CorrelativeScanMatcher{options}.match(
      grid, Pose2{1.5, 1.5, 0.1}, points);
  const bool dirty = avx_upper_in_use();
  simd::reset();
  EXPECT_FALSE(dirty);
  EXPECT_GT(r.score, 0.0);
}

TEST(AvxState, AxisTableFillReturnsClean) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  // A grid one cell wide scores its rows on the scalar path, so the table
  // fill is the only AVX2 code the search runs. Five points: one full
  // four-entry pass per row of the y table and one with a single entry.
  ProbabilityGrid strip{1, 60, 0.05, Vec2{}};
  for (int y = 0; y < 60; y += 2) strip.update_hit(0, y);
  const std::vector<Vec2> points = {
      {0.0, 0.4}, {0.01, -0.3}, {0.0, 0.2}, {-0.01, 0.6}, {0.0, -0.5}};
  simd::force(simd::Backend::kAvx2);
  const ScanMatchResult r = CorrelativeScanMatcher{CorrelativeOptions{}}.match(
      strip, Pose2{0.025, 1.5, 0.0}, points);
  const bool dirty = avx_upper_in_use();
  simd::reset();
  EXPECT_FALSE(dirty);
  EXPECT_GT(r.score, 0.0);
}

TEST(AvxState, GaussNewtonRefineReturnsClean) {
  if (const std::string why = xinuse_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  ProbabilityGrid grid{60, 60, 0.05, Vec2{}};
  for (int i = 0; i < 60; ++i) grid.update_hit(i, 30);
  // Five points: one four-point pass and one with a single live lane.
  const std::vector<Vec2> points = {
      {0.4, 0.1}, {-0.3, 0.05}, {0.2, -0.2}, {0.1, 0.3}, {-0.2, -0.1}};
  simd::force(simd::Backend::kAvx2);
  const ScanMatchResult r = GaussNewtonMatcher{GaussNewtonOptions{}}.refine(
      grid, Pose2{1.5, 1.5, 0.1}, points);
  const bool dirty = avx_upper_in_use();
  simd::reset();
  EXPECT_FALSE(dirty);
  EXPECT_GT(r.score, 0.0);
}

}  // namespace
}  // namespace srl
