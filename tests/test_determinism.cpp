/// Bitwise-determinism guarantees: replaying the same `SensorTrace` from the
/// same seed must produce bit-identical pose estimates and accuracy metrics
/// — across reruns, across a textual save/restore of the RNG state, with or
/// without telemetry attached (the PR-1 "instrumentation changes nothing"
/// claim), and — since the hot path went parallel — at *any thread count*
/// (the PR-3 tentpole guarantee). The RNG substream derivation and the
/// filter's stream-split schedule are pinned here with hardcoded draws so
/// they cannot silently change. The CI matrix additionally runs the
/// standalone `tools/check_determinism` under every sanitizer and contract
/// flavor and a thread matrix.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <ios>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/synpf.hpp"
#include "eval/dead_reckoning.hpp"
#include "eval/experiment.hpp"
#include "eval/fault_replay.hpp"
#include "eval/throughput_json.hpp"
#include "eval/trace.hpp"
#include "gridmap/track_generator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {
namespace {

/// Bitwise pose equality — stricter than EXPECT_DOUBLE_EQ (which admits
/// distinct NaN payloads and -0.0 vs 0.0).
bool bitwise_equal(const Pose2& a, const Pose2& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0 &&
         std::memcmp(&a.theta, &b.theta, sizeof(double)) == 0;
}

void expect_bitwise_identical(const SensorTrace::ReplayResult& a,
                              const SensorTrace::ReplayResult& b) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(a.estimates[i], b.estimates[i]))
        << "estimate " << i << " diverges";
  }
  EXPECT_EQ(std::memcmp(&a.pose_rmse_m, &b.pose_rmse_m, sizeof(double)), 0);
  EXPECT_EQ(
      std::memcmp(&a.heading_rmse_rad, &b.heading_rmse_rad, sizeof(double)),
      0);
}

class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    track_ = std::make_unique<Track>(TrackGenerator::oval(8.0, 2.5));
    trace_ = std::make_unique<SensorTrace>();
    ExperimentConfig cfg;
    cfg.laps = 1;
    cfg.max_sim_time = 15.0;
    cfg.profile.scale = 0.5;
    ExperimentRunner runner{*track_, cfg};
    DeadReckoning driver;
    runner.run(driver, trace_.get());
    map_ = std::make_shared<const OccupancyGrid>(track_->grid);
  }
  static void TearDownTestSuite() {
    map_.reset();
    trace_.reset();
    track_.reset();
  }

  static SynPfConfig pf_config() {
    SynPfConfig cfg;
    cfg.filter.n_particles = 400;
    return cfg;
  }

  static std::unique_ptr<Track> track_;
  static std::unique_ptr<SensorTrace> trace_;
  static std::shared_ptr<const OccupancyGrid> map_;
};

std::unique_ptr<Track> DeterminismTest::track_;
std::unique_ptr<SensorTrace> DeterminismTest::trace_;
std::shared_ptr<const OccupancyGrid> DeterminismTest::map_;

TEST_F(DeterminismTest, RerunFromSameSeedIsBitwiseIdentical) {
  SynPf a{pf_config(), map_, LidarConfig{}};
  SynPf b{pf_config(), map_, LidarConfig{}};
  const auto ra = trace_->replay(a);
  const auto rb = trace_->replay(b);
  ASSERT_FALSE(ra.estimates.empty());
  expect_bitwise_identical(ra, rb);
}

TEST_F(DeterminismTest, RngStateRoundTripsThroughStreams) {
  Rng original{12345};
  // Consume an odd number of gaussians so the Box-Muller cache is "charged";
  // the serialized state must include it.
  for (int i = 0; i < 7; ++i) original.gaussian(1.0);

  std::stringstream state;
  state << original;
  Rng restored{999};  // different seed, fully overwritten by the restore
  state >> restored;

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.next_seed(), restored.next_seed());
    const double g0 = original.gaussian(2.0);
    const double g1 = restored.gaussian(2.0);
    EXPECT_EQ(std::memcmp(&g0, &g1, sizeof(double)), 0);
  }
}

TEST_F(DeterminismTest, ReplayAfterRngSaveRestoreIsBitwiseIdentical) {
  SynPf a{pf_config(), map_, LidarConfig{}};
  const auto ra = trace_->replay(a);

  SynPf c{pf_config(), map_, LidarConfig{}};
  std::stringstream saved;
  saved << c.filter().rng();
  // Scramble the generator, then restore: the replay must be oblivious.
  for (int i = 0; i < 1000; ++i) c.filter().rng().uniform();
  saved >> c.filter().rng();
  const auto rc = trace_->replay(c);
  expect_bitwise_identical(ra, rc);
}

/// The tentpole acceptance test: the same trace replayed at n_threads 1, 2
/// and 8 (the last heavily oversubscribed on small CI machines — which is
/// the point: scheduling varies wildly and must not matter) produces
/// bitwise-identical estimates, covariances, resample counts, cloud sizes
/// and accuracy metrics.
TEST_F(DeterminismTest, ThreadCountInvariance) {
  SynPfConfig ref_cfg = pf_config();
  ref_cfg.filter.n_threads = 1;
  SynPf ref{ref_cfg, map_, LidarConfig{}};
  const auto rr = trace_->replay(ref);
  ASSERT_FALSE(rr.estimates.empty());
  const PoseCovariance ref_cov = ref.filter().covariance();
  const long ref_resamples = ref.filter().resample_count();
  const int ref_particles = ref.filter().current_particles();
  ASSERT_GT(ref_resamples, 0L) << "trace too benign to exercise resampling";

  for (const int threads : {2, 8}) {
    SynPfConfig cfg = pf_config();
    cfg.filter.n_threads = threads;
    SynPf pf{cfg, map_, LidarConfig{}};
    const auto r = trace_->replay(pf);
    ASSERT_EQ(pf.filter().threads(), threads);
    expect_bitwise_identical(rr, r);
    EXPECT_EQ(pf.filter().resample_count(), ref_resamples)
        << "at " << threads << " threads";
    EXPECT_EQ(pf.filter().current_particles(), ref_particles);
    const PoseCovariance cov = pf.filter().covariance();
    EXPECT_EQ(std::memcmp(&cov.xx, &ref_cov.xx, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&cov.xy, &ref_cov.xy, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&cov.yy, &ref_cov.yy, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&cov.tt, &ref_cov.tt, sizeof(double)), 0);
  }
}

/// Metrics recorded during a multi-threaded replay must match the
/// single-threaded ones: same resample/update counters, same health gauges
/// — the instrumentation sees the same filter, only faster.
TEST_F(DeterminismTest, ThreadCountInvarianceOfMetrics) {
  const auto run = [&](int threads, telemetry::Telemetry& telemetry) {
    SynPfConfig cfg = pf_config();
    cfg.filter.n_threads = threads;
    SynPf pf{cfg, map_, LidarConfig{}};
    return trace_->replay(pf, telemetry.sink());
  };
  telemetry::Telemetry t1;
  telemetry::Telemetry t8;
  const auto r1 = run(1, t1);
  const auto r8 = run(8, t8);
  expect_bitwise_identical(r1, r8);
  EXPECT_EQ(t1.metrics.counter("pf.resamples").value(),
            t8.metrics.counter("pf.resamples").value());
  EXPECT_EQ(t1.metrics.counter("pf.updates").value(),
            t8.metrics.counter("pf.updates").value());
  const double ess1 = t1.metrics.gauge("pf.ess").value();
  const double ess8 = t8.metrics.gauge("pf.ess").value();
  EXPECT_EQ(std::memcmp(&ess1, &ess8, sizeof(double)), 0);
  EXPECT_EQ(t1.metrics.gauge("pf.threads").value(), 1.0);
  EXPECT_EQ(t8.metrics.gauge("pf.threads").value(), 8.0);
}

TEST_F(DeterminismTest, TelemetryAttachmentDoesNotPerturbEstimates) {
  SynPf plain{pf_config(), map_, LidarConfig{}};
  const auto rp = trace_->replay(plain);

  telemetry::Telemetry telemetry;
  SynPf instrumented{pf_config(), map_, LidarConfig{}};
  const auto ri = trace_->replay(instrumented, telemetry.sink());
  expect_bitwise_identical(rp, ri);
  // The instrumented run actually recorded something.
  EXPECT_NE(telemetry.metrics.find_histogram("pf.predict_ms"), nullptr);
}

// ---------------------------------------------------------------------------
// Substream derivation pinning (the PR-3 "Fix" satellite): the filter's
// randomness is split across named streams (PfStream schedule in
// core/particle_filter.hpp). These tests freeze the derivation — SplitMix64
// chain over (master seed, stream tag, index) — with hardcoded draws, so any
// change to the mixing, the tag values, or which component consumes which
// stream fails loudly instead of silently re-keying every replay.
// mt19937_64's output sequence is fully specified by the standard, so the
// constants are portable. Regenerate them ONLY for an intentional,
// changelog-documented break of replay compatibility.
// ---------------------------------------------------------------------------

TEST(RngSubstream, DerivationIsPinned) {
  EXPECT_EQ(splitmix64(0), 16294208416658607535ULL);
  EXPECT_EQ(splitmix64(42), 13679457532755275413ULL);

  Rng master{42};
  Rng predict0 = master.substream(kPfStreamPredictNoise, 0);
  EXPECT_EQ(predict0.next_seed(), 5240070184307236169ULL);
  EXPECT_EQ(predict0.next_seed(), 9041309703565127724ULL);
  EXPECT_EQ(master.substream(kPfStreamPredictNoise, 1).next_seed(),
            11239911459078627731ULL);
  EXPECT_EQ(master.substream(kPfStreamRecovery, 0).next_seed(),
            16653311168010206230ULL);
}

// ---------------------------------------------------------------------------
// Fingerprint pinning: the FNV-1a fingerprints the gates compare across
// runs and commits (`trace_hash` in the robustness artifact,
// `estimates_hash` in the throughput artifact, the flight recorder's
// estimate-trajectory hash in every black box), frozen on a small fixed
// input. A change to the hash itself fails here before it silently
// invalidates every committed baseline and black box.
// ---------------------------------------------------------------------------

TEST(Fingerprints, HashesArePinned) {
  SensorTrace trace;
  OdometryDelta odom;
  odom.delta = Pose2{0.1, -0.02, 0.003};
  odom.v = 2.5;
  odom.dt = 0.02;
  trace.add_odometry(0.02, odom);
  trace.add_odometry(0.04, odom);
  LaserScan scan;
  scan.t = 0.05;
  scan.ranges = {1.5F, 2.25F, 0.0F, 12.0F};
  trace.add_scan(scan, Pose2{1.0, 2.0, 0.5});
  EXPECT_EQ(trace_hash(trace), 0xbaaef48d82eb13cdULL);

  const std::vector<Pose2> estimates{{1.0, 2.0, 0.5}, {-0.25, 3.5, -3.0}};
  EXPECT_EQ(estimates_hash(estimates), 0xac8750010b9ebe4cULL);

  telemetry::FlightRecorder recorder;
  for (const Pose2& p : estimates) {
    telemetry::TickSnapshot snap;
    snap.est_x = p.x;
    snap.est_y = p.y;
    snap.est_theta = p.theta;
    recorder.record_tick(snap);
  }
  EXPECT_EQ(recorder.estimate_hash(), 0xac8750010b9ebe4cULL);
}

TEST(RngSubstream, IndependentOfParentDrawHistory) {
  Rng a{7};
  Rng b{7};
  for (int i = 0; i < 1000; ++i) b.uniform();  // draw history must not matter
  for (std::uint64_t stream : {1ULL, 2ULL, 77ULL}) {
    Rng sa = a.substream(stream, 5);
    Rng sb = b.substream(stream, 5);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(sa.next_seed(), sb.next_seed());
    }
  }
}

TEST(RngSubstream, DistinctKeysYieldDistinctStreams) {
  Rng master{123};
  EXPECT_NE(master.substream(1, 0).next_seed(),
            master.substream(1, 1).next_seed());
  EXPECT_NE(master.substream(1, 0).next_seed(),
            master.substream(2, 0).next_seed());
  EXPECT_NE(master.substream(1, 0).next_seed(), Rng{123}.next_seed());
}

TEST(RngSubstream, SerializationCarriesMasterSeed) {
  Rng original{4242};
  for (int i = 0; i < 5; ++i) original.gaussian(1.0);
  std::stringstream state;
  state << original;
  Rng restored{1};  // wrong seed, fully overwritten by the restore
  state >> restored;
  EXPECT_EQ(restored.master_seed(), 4242ULL);
  // Substreams derive from the restored master seed, not the ctor seed.
  EXPECT_EQ(original.substream(1, 9).next_seed(),
            restored.substream(1, 9).next_seed());
}

/// Pins the stream split itself: predict noise must come from per-slot
/// substreams, never the master stream, so extra master draws between
/// updates cannot reorder it (this was the PR-3 fix — one shared Rng used
/// to serve predict noise, resampling jitter and recovery injection).
TEST(PfStreamSplit, PredictNoiseDecoupledFromMasterStream) {
  auto grid = std::make_shared<OccupancyGrid>(100, 100, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  const auto make = [&] {
    SynPfConfig cfg;
    cfg.filter.n_particles = 64;
    return SynPf{cfg, grid, LidarConfig{}};
  };
  SynPf a = make();
  SynPf b = make();
  a.initialize(Pose2{2.5, 2.5, 0.0});
  b.initialize(Pose2{2.5, 2.5, 0.0});
  // Scramble b's master stream after init: predict must be oblivious.
  for (int i = 0; i < 333; ++i) b.filter().rng().uniform();

  OdometryDelta odom;
  odom.delta = Pose2{0.1, 0.0, 0.01};
  odom.v = 1.0;
  odom.dt = 0.05;
  a.filter().predict(odom);
  b.filter().predict(odom);
  const auto pa = a.filter().particles_snapshot();
  const auto pb = b.filter().particles_snapshot();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(pa[i].pose, pb[i].pose)) << "particle " << i;
  }
}


// ---------------------------------------------------------------------------
// The sampler against libstdc++: Rng's uniform, chance and gaussian must draw
// what uniform_real_distribution and normal_distribution draw from the same
// engine, and its text must be the text those distributions write.
// ---------------------------------------------------------------------------

#ifndef SRL_TEST_DATA_DIR
#define SRL_TEST_DATA_DIR "tests/data"
#endif

// srl-lint-allow(det-rand): the libstdc++ engine is the reference under test
using ReferenceEngine = std::mt19937_64;

/// The generator as it was: the engine under libstdc++'s distributions.
struct ReferenceRng {
  explicit ReferenceRng(std::uint64_t s) : seed{s}, engine{s} {}
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>{lo, hi}(engine);
  }
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>{lo, hi}(engine);
  }
  double gaussian(double stddev) {
    if (stddev <= 0.0) return 0.0;
    return stddev * normal(engine);
  }
  bool chance(double p) { return uniform() < p; }
  std::string text() const {
    std::ostringstream os;
    os << seed << ' ' << engine << ' ' << normal;
    return os.str();
  }

  std::uint64_t seed;
  ReferenceEngine engine;
  std::normal_distribution<double> normal{0.0, 1.0};
};

std::string text_of(const Rng& rng) {
  std::ostringstream os;
  os << rng;
  return os.str();
}

/// One draw of a mixed sequence, the kind picked by `op`, as a double.
template <typename R>
double mixed_draw(R& r, int op, int i) {
  switch (op % 8) {
    case 0: return r.uniform();
    case 1: return r.uniform(-3.0 + 0.01 * (i % 7), 5.5);
    case 2: return r.chance(0.3) ? 1.0 : 0.0;
    case 3: return r.gaussian(1.0);
    case 4: return r.gaussian(0.05 * (i % 5));  // stddev 0 draws nothing
    case 5: return r.gaussian(-0.5);            // negative draws nothing
    case 6: return static_cast<double>(r.uniform_int(-10, 1000));
    default: return r.gaussian(2.5);
  }
}

TEST(RngSampler, MixedDrawsMatchLibstdcxx) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      Rng rng = stream == 0 ? Rng{seed} : Rng{seed}.substream(stream, seed);
      ReferenceRng ref{rng.master_seed()};
      for (int i = 0; i < 700; ++i) {
        const int op = static_cast<int>((seed * 31 + stream * 7) +
                                        static_cast<std::uint64_t>(i) * 5 +
                                        static_cast<std::uint64_t>(i / 3));
        const double got = mixed_draw(rng, op, i);
        const double want = mixed_draw(ref, op, i);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "seed " << seed << " stream " << stream << " draw " << i;
      }
      ASSERT_EQ(text_of(rng), ref.text());
    }
  }
}

TEST(RngSampler, TextAfterEvenAndOddNormalsMatchesLibstdcxx) {
  for (int normals = 0; normals < 8; ++normals) {
    Rng rng{99 + static_cast<std::uint64_t>(normals)};
    ReferenceRng ref{rng.master_seed()};
    for (int i = 0; i < normals; ++i) {
      rng.gaussian(1.0);
      ref.gaussian(1.0);
    }
    EXPECT_EQ(text_of(rng), ref.text()) << normals << " normals";

    // A stream with other formatting: only the seed takes it, and the
    // stream's own flags, fill and precision come back unchanged.
    std::ostringstream got;
    std::ostringstream want;
    for (std::ostringstream* os : {&got, &want}) {
      os->setf(std::ios_base::hex | std::ios_base::boolalpha |
               std::ios_base::showpos);
      os->fill('*');
      os->precision(3);
    }
    const std::ios_base::fmtflags flags = got.flags();
    got << rng;
    want << ref.seed << ' ' << ref.engine << ' ' << ref.normal;
    EXPECT_EQ(got.str(), want.str());
    EXPECT_EQ(got.flags(), flags);
    EXPECT_EQ(got.fill(), '*');
    EXPECT_EQ(got.precision(), 3);

    // The reference's text loads into an Rng and continues its stream.
    std::istringstream in{ref.text()};
    Rng restored{1};
    ASSERT_TRUE(in >> restored);
    for (int i = 0; i < 50; ++i) {
      const double a = mixed_draw(restored, i, i);
      const double b = mixed_draw(ref, i, i);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
    }
  }
}

TEST(RngSampler, ForeignNormalParametersFailTheRead) {
  Rng rng{5};
  std::string text = text_of(rng);
  const std::string standard = "0.00000000000000000e+00 1.00000000000000000e+00";
  const std::size_t at = text.rfind(standard);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, standard.size(), "0.00000000000000000e+00 2.00000000000000000e+00");
  std::istringstream in{text};
  Rng restored{1};
  EXPECT_FALSE(in >> restored);
}

/// Two states written by the libstdc++-backed Rng (tests/data), one with a
/// cached second deviate and one without, and the draws it made next.
TEST(RngSampler, LoadsStateTextOfTheLibstdcxxSampler) {
  std::ifstream file{SRL_TEST_DATA_DIR "/rng_states_libstdcxx.txt"};
  ASSERT_TRUE(file) << "missing fixture";
  const std::vector<std::vector<double>> next = {
      {-0x1.39d912c9492f7p+0, 0x1.84798b9516038p+0, 0x1.a565112f44ee3p-4,
       0x0p+0, 0x1.0837a193f20e7p+2, 0x0p+0, 0x1.ep+3, -0x1.c2232c7006c5bp-1,
       0x1.c7ea3764eb376p-1},
      {0x1.7000a72251e09p-3, 0x1.b7d0520ab9614p-1, -0x1.b5aa3deae2d19p-2,
       0x0p+0, 0x1.a2e0afb2aa43p+0, 0x0p+0, 0x1.6p+6, -0x1.6bc6565b4415fp+0,
       0x1.7dd5da3a51c2fp-3}};
  const std::vector<std::uint64_t> next_seed = {6072651424978828919ULL,
                                                10180339853699099812ULL};
  for (std::size_t k = 0; k < next.size(); ++k) {
    std::string line;
    ASSERT_TRUE(std::getline(file, line));
    std::istringstream in{line};
    Rng rng{1};
    ASSERT_TRUE(in >> rng);
    EXPECT_EQ(text_of(rng), line) << "the text must round-trip byte for byte";
    const std::vector<double> got = {
        rng.gaussian(1.0),     rng.uniform(-2.0, 3.0),
        rng.gaussian(0.25),    rng.gaussian(0.0),
        rng.gaussian(2.0),     rng.chance(0.5) ? 1.0 : 0.0,
        static_cast<double>(rng.uniform_int(0, 99)),
        rng.gaussian(-1.5, 0.75), rng.uniform()};
    ASSERT_EQ(got.size(), next[k].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(next[k][i]))
          << "state " << k << " draw " << i;
    }
    EXPECT_EQ(rng.next_seed(), next_seed[k]);
  }
}

// ---------------------------------------------------------------------------
// The engine against libstdc++'s: MersenneTwister64 must draw what
// std::mt19937_64 draws, under each twist backend, and read and write its
// text byte for byte.
// ---------------------------------------------------------------------------

/// The twist backends this host runs: scalar always, AVX2 where the CPU
/// has it.
std::vector<simd::Backend> twist_backends() {
  if (simd::cpu_has_avx2()) {
    return {simd::Backend::kScalar, simd::Backend::kAvx2};
  }
  return {simd::Backend::kScalar};
}

/// Pins one SIMD backend for a scope; a failed ASSERT still unpins.
struct PinnedBackend {
  explicit PinnedBackend(simd::Backend backend) { simd::force(backend); }
  ~PinnedBackend() { simd::reset(); }
  PinnedBackend(const PinnedBackend&) = delete;
  PinnedBackend& operator=(const PinnedBackend&) = delete;
};

template <typename Engine>
std::string engine_text(const Engine& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

constexpr std::uint64_t kEngineSeeds[] = {
    0, 1, 5489, 0x5eed5eedULL, std::numeric_limits<std::uint64_t>::max()};

TEST(RngEngine, MatchesLibstdcxxDrawForDraw) {
  for (const simd::Backend backend : twist_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const PinnedBackend pin{backend};
    for (const std::uint64_t seed : kEngineSeeds) {
      MersenneTwister64 engine{seed};
      ReferenceEngine ref{seed};
      // Five twists and part of a sixth.
      for (std::size_t i = 0; i < 5 * MersenneTwister64::kStateSize + 17;
           ++i) {
        ASSERT_EQ(engine(), ref()) << "seed " << seed << " draw " << i;
      }
      ASSERT_EQ(engine_text(engine), engine_text(ref)) << "seed " << seed;
      // Through Rng too: the raw draws behind next_seed().
      Rng rng{seed};
      ReferenceEngine ref_rng{seed};
      for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.next_seed(), ref_rng());
    }
  }
}

TEST(RngEngine, TextMatchesLibstdcxxAtEveryIndex) {
  // A fresh engine sits at index 312; one draw moves it to 1, 311 draws
  // to 311, 312 draws back to 312. Index 0 only comes from text.
  for (const simd::Backend backend : twist_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const PinnedBackend pin{backend};
    for (const std::uint64_t seed : kEngineSeeds) {
      for (const std::size_t draws : {std::size_t{0}, std::size_t{1},
                                      std::size_t{311}, std::size_t{312}}) {
        MersenneTwister64 engine{seed};
        ReferenceEngine ref{seed};
        for (std::size_t i = 0; i < draws; ++i) {
          engine();
          ref();
        }
        ASSERT_EQ(engine_text(engine), engine_text(ref))
            << "seed " << seed << " after " << draws << " draws";
      }
      // Index 0: a libstdc++ text whose index reads 0 loads into both and
      // writes back, then both draw the same words.
      ReferenceEngine ref{seed};
      for (int i = 0; i < 400; ++i) ref();
      std::string text = engine_text(ref);
      text.replace(text.rfind(' ') + 1, std::string::npos, "0");
      std::istringstream in_ref{text};
      std::istringstream in{text};
      MersenneTwister64 engine{1};
      ASSERT_TRUE(in_ref >> ref);
      ASSERT_TRUE(in >> engine);
      ASSERT_EQ(engine_text(engine), text);
      ASSERT_EQ(engine_text(ref), text);
      for (int i = 0; i < 700; ++i) ASSERT_EQ(engine(), ref()) << i;
    }
  }
}

TEST(RngEngine, ContinuesALibstdcxxTextReadMidBlock) {
  for (const simd::Backend backend : twist_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const PinnedBackend pin{backend};
    for (const std::uint64_t seed : kEngineSeeds) {
      ReferenceEngine ref{seed};
      for (int i = 0; i < 1000; ++i) ref();  // index 1000 - 3 * 312 = 64
      std::istringstream in{engine_text(ref)};
      MersenneTwister64 engine{7};
      ASSERT_TRUE(in >> engine);
      // The read leaves the stream's flags as they were.
      EXPECT_EQ(in.flags(), std::istringstream{}.flags());
      for (int i = 0; i < 1300; ++i) {
        ASSERT_EQ(engine(), ref()) << "seed " << seed << " draw " << i;
      }
      EXPECT_EQ(engine_text(engine), engine_text(ref));
    }
  }
}

TEST(RngEngine, UniformIntMatchesLibstdcxx) {
  for (const simd::Backend backend : twist_backends()) {
    SCOPED_TRACE(simd::name(backend));
    const PinnedBackend pin{backend};
    for (const std::uint64_t seed : kEngineSeeds) {
      MersenneTwister64 engine{seed};
      ReferenceEngine ref{seed};
      Rng rng{seed};
      ReferenceRng ref_rng{seed};
      for (int i = 0; i < 2000; ++i) {
        const int lo = -(i % 37);
        const int hi = (i % 5 == 0) ? std::numeric_limits<int>::max()
                                    : lo + i % 1000;
        std::uniform_int_distribution<int> dist{lo, hi};
        ASSERT_EQ(dist(engine), dist(ref)) << "seed " << seed << " " << i;
        ASSERT_EQ(rng.uniform_int(lo, hi), ref_rng.uniform_int(lo, hi));
      }
    }
  }
}

TEST(RngSampler, ConversionIsTheCorrectlyRoundedCast) {
  std::vector<std::uint64_t> xs = {0, 1, 2, 3, ~std::uint64_t{0},
                                   ~std::uint64_t{0} - 1};
  // Every power-of-two neighbourhood, and the round-to-even ties just past
  // 2^53 at every shift (where one addition has to round).
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    for (std::uint64_t d = 0; d < 8; ++d) {
      xs.push_back(p + d);
      xs.push_back(p - d);
      xs.push_back(p ^ (d << (k > 3 ? k - 3 : 0)));
    }
  }
  for (int shift = 0; shift <= 11; ++shift) {
    const std::uint64_t base = (std::uint64_t{1} << 53) << shift;
    for (std::uint64_t m = 0; m < 16; ++m) {
      const std::uint64_t tie = std::uint64_t{1} << shift;
      xs.push_back(base + m * tie * 2 + tie);      // exactly halfway
      xs.push_back(base + m * tie * 2 + tie - 1);  // just below
      xs.push_back(base + m * tie * 2 + tie + 1);  // just above
    }
  }
  Rng rng{8};
  for (int i = 0; i < 200000; ++i) xs.push_back(rng.next_seed());
  for (const std::uint64_t x : xs) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(uint64_to_double(x)),
              std::bit_cast<std::uint64_t>(static_cast<double>(x)))
        << "x = " << x;
  }
  // The largest draws round up to 2^64, which canonical() clamps below 1.
  EXPECT_EQ(uint64_to_double(~std::uint64_t{0}) * 0x1p-64, 1.0);
}

}  // namespace
}  // namespace srl
