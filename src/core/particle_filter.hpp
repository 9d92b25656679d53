#pragma once

/// \file particle_filter.hpp
/// \brief Monte-Carlo localization core: particle cloud, motion prediction,
/// beam-model correction with likelihood squashing, low-variance resampling,
/// and weighted/circular pose extraction. The filter is assembled from
/// injectable pieces (motion model, range backend, beam layout) so SynPF and
/// its ablations are configurations of this one class.
///
/// The per-particle stages (predict / raycast / weight) fan out over a
/// static-chunked thread pool (`ParticleFilterConfig::n_threads`) and are
/// bitwise-deterministic at any lane count: slot-indexed RNG substreams,
/// per-lane scratch slabs, and fixed-order pairwise reductions remove every
/// scheduling dependence. See DESIGN.md §9 and the PfStream key schedule.
///
/// The cloud itself is a structure-of-arrays slab (ParticleCloud): the
/// weight stage dispatches between a scalar and an AVX2 kernel at runtime
/// (common/simd.hpp) with bit-identical results per lane, and the raycast
/// stage hands each particle's beam fan to the backend's batched
/// ranges_from() entry point. See DESIGN.md §15.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/particle_cloud.hpp"
#include "core/pf_kernels.hpp"
#include "gridmap/occupancy_grid.hpp"
#include "motion/motion_model.hpp"
#include "range/range_method.hpp"
#include "sensor/beam_model.hpp"
#include "sensor/lidar.hpp"
#include "telemetry/telemetry.hpp"

namespace srl {

/// Substream key schedule of the particle filter (see Rng::substream). The
/// filter's randomness is split into named streams so that parallelizing one
/// stage can never silently reorder the draws of another:
///
///  - **Master stream** (`rng()`, the seed itself): consumed *only* by
///    init_pose / init_global (serially, in particle order) and by the one
///    systematic-resampling jitter draw per resample event. Nothing else
///    touches it, so its draw schedule is independent of thread count.
///  - **kPredictNoise**: slot `i` of the cloud draws its motion noise from
///    `substream(kPredictNoise, (init_epoch << 32) | i)`, where init_epoch
///    counts init_pose/init_global calls. Streams persist across updates
///    (each predict advances them) and are re-derived on every init, so the
///    noise particle `i` sees is a pure function of (seed, epoch, i) and the
///    number of predicts so far — never of the thread that ran it.
///  - **kRecovery**: retired, reserved, never reused. The filter draws no
///    recovery noise; the supervisor's injections (src/recovery) draw from
///    its own RecoveryStream schedule.
///  - **kGovernor**: governor-driven cloud resizes (src/governor) draw their
///    systematic-subsample jitter and growth noise from
///    `substream(kGovernor, ordinal)`, where the ordinal is the governor's
///    own update index — the resize is a pure function of (seed, cloud,
///    target, ordinal), never of thread count or wall clock.
///
/// These tag values are pinned — append new streams, never renumber — and
/// test_determinism hardcodes first draws per tag to catch reordering.
enum PfStream : std::uint64_t {
  kPfStreamPredictNoise = 1,
  kPfStreamRecovery = 2,
  kPfStreamGovernor = 3,
};

/// Weighted pose second moments (theta treated via circular statistics).
struct PoseCovariance {
  double xx{0.0};
  double xy{0.0};
  double yy{0.0};
  double tt{0.0};  ///< circular variance proxy: -2 ln(R)
};

struct ParticleFilterConfig {
  int n_particles = 1500;
  /// Likelihood tempering: per-particle weight = exp(sum_log_p / squash).
  /// Values > 1 flatten the posterior, preventing weight collapse when many
  /// beams are scored (MIT racecar PF uses the same device).
  double squash_factor = 3.0;
  /// Resample when effective sample size falls below this fraction of N.
  double resample_ess_fraction = 0.5;
  /// Initialization spread around a known start pose.
  double init_sigma_xy = 0.25;
  double init_sigma_theta = 0.10;

  /// KLD-adaptive sampling (Fox 2001): at each resampling the cloud size is
  /// chosen so that, with probability `kld_quantile_z`, the KL divergence
  /// between the sampled and the true posterior stays below `kld_epsilon`.
  /// A converged cloud occupies few (x, y, theta) bins and shrinks toward
  /// `kld_min_particles`; a dispersed one grows back to `n_particles`.
  bool kld_adaptive = false;
  int kld_min_particles = 300;
  double kld_epsilon = 0.05;
  double kld_quantile_z = 2.33;  ///< 99% normal quantile
  double kld_bin_xy = 0.25;      ///< m, histogram bin size
  double kld_bin_theta = 0.20;   ///< rad

  /// Worker lanes for the per-particle hot stages (predict / raycast /
  /// weight). 0 = hardware default (overridable via the SRL_THREADS env
  /// knob), 1 = the exact serial path (no pool wakeups), >1 = a fixed pool
  /// of that many lanes. Estimates, covariances, resample decisions and
  /// metrics are **bitwise identical at every setting** — per-slot RNG
  /// substreams, static chunking and fixed-order pairwise reductions remove
  /// every scheduling dependence (DESIGN.md §9). Resampling itself stays
  /// serial: it is O(N), memory-bound, and its systematic CDF walk (plus the
  /// KLD early exit) is inherently order-sensitive.
  int n_threads = 0;
};

class ParticleFilter {
 public:
  /// `caster` evaluates expected ranges on the localization map;
  /// `beam_indices` selects which scan beams are scored (a layout from
  /// scanline_layout.hpp).
  ParticleFilter(ParticleFilterConfig config,
                 std::shared_ptr<const RangeMethod> caster,
                 std::shared_ptr<const MotionModel> motion,
                 BeamModel beam_model, LidarConfig lidar,
                 std::vector<int> beam_indices, std::uint64_t seed = 42);

  /// Gaussian cloud around a known pose.
  void init_pose(const Pose2& pose);
  /// Uniform cloud over the free cells of `map` (global localization).
  void init_global(const OccupancyGrid& map);

  /// Motion prediction: every particle is advanced through the motion model.
  void predict(const OdometryDelta& odom);

  /// Measurement update: re-weight with the beam model, then resample if the
  /// effective sample size has degenerated. Returns the post-update
  /// estimate(), computed once for the caller and the pose-jump detector.
  Pose2 correct(const LaserScan& scan);

  /// Weighted mean position and weighted circular mean heading.
  Pose2 estimate() const;
  PoseCovariance covariance() const;

  /// Effective sample size of the current weights.
  double effective_sample_size() const;

  /// The live structure-of-arrays cloud (poses and weights as separate
  /// 64-byte-aligned slabs). Views into it are invalidated by the next
  /// predict/correct/init; copy via particles_snapshot() to keep values.
  const ParticleCloud& cloud() const { return cloud_; }
  /// AoS copy of the cloud for value-semantics consumers (tests, recovery
  /// bookkeeping). Allocates; not a hot-path call.
  std::vector<Particle> particles_snapshot() const { return cloud_.snapshot(); }
  /// Deterministic top-K digest of the cloud: the K heaviest particles in
  /// descending weight order, ties broken by slot index. Pure read — the
  /// flight recorder snapshots this per tick without touching the filter.
  std::vector<Particle> top_particles(std::size_t k) const;
  const ParticleFilterConfig& config() const { return config_; }
  Rng& rng() { return rng_; }
  /// Resolved worker-lane count of the execution pool (>= 1).
  int threads() const { return pool_.threads(); }

  /// Test/diagnostic seam: overwrite the weight vector (one entry per
  /// current particle; finite and non-negative) and renormalize. A
  /// non-positive or non-finite total resets to uniform, mirroring
  /// normalize_weights()'s collapse handling.
  void set_weights(std::span<const double> weights);
  /// Test/diagnostic seam: run one systematic resampling pass regardless of
  /// the ESS trigger (counts toward resample_count()).
  void force_resample();

  /// Number of resampling events so far (diagnostic).
  long resample_count() const { return resamples_; }
  /// Current cloud size (== config n_particles unless KLD-adaptive).
  int current_particles() const { return static_cast<int>(cloud_.size()); }

  /// Governor seam (src/governor): score only every `stride`-th configured
  /// beam in subsequent correct() calls — the first rung of the shedding
  /// ladder. Stride 1 is the full layout, so it is bitwise identical to a
  /// filter that never changed stride. The subset is rebuilt once per
  /// change, never per update.
  void set_beam_stride(int stride);
  int beam_stride() const { return beam_stride_; }
  /// Beams scored by the next correct() under the current stride.
  int active_beams() const { return static_cast<int>(active_indices_.size()); }
  /// Configured beam count, independent of any decimation stride (the
  /// governor's decision input — deciding against active_beams() would
  /// compound last update's stride into this one's).
  int total_beams() const { return static_cast<int>(beam_indices_.size()); }

  /// Governor seam: while true, correct() skips the ESS-triggered resample
  /// (the last rung of the shedding ladder — resampling is O(N) and not
  /// size-sheddable). force_resample() is unaffected.
  void set_resample_suppressed(bool suppressed) {
    resample_suppressed_ = suppressed;
  }

  /// Governor seam: toggle KLD-adaptive resampling at runtime (same effect
  /// as constructing with `config.kld_adaptive`; applies from the next
  /// resample event on).
  void set_kld_adaptive(bool on) { config_.kld_adaptive = on; }

  /// Governor seam: deterministically resize the cloud *between* updates.
  /// Shrinking keeps a weight-proportional systematic subsample of the
  /// current cloud; growing clones slots round-robin with Gaussian jitter
  /// so the clones explore rather than duplicate. All draws come serially
  /// from `substream(kPfStreamGovernor, ordinal)` (the caller's update
  /// ordinal), so the result is a pure function of (seed, cloud, target,
  /// ordinal) — bitwise identical at any thread count. Weights reset to
  /// uniform (the resized cloud is re-scored by the next correct()).
  /// `target == current_particles()` is a strict no-op.
  void govern_resize(int target, std::uint64_t ordinal);

  /// Recovery seam (src/recovery): replace each particle, with independent
  /// probability `fraction`, by a uniform pose over the free cells of
  /// `map`, then reset the weights to uniform (the injected particles carry
  /// no likelihood yet; the next correct() re-scores the whole cloud). All
  /// draws come from the caller-provided `rng` serially in slot order, so
  /// the outcome is a pure function of (cloud, fraction, map, rng state) —
  /// never of the thread count. `fraction <= 0` is a strict no-op (no draw,
  /// no weight touch).
  void inject_uniform(double fraction, const OccupancyGrid& map, Rng& rng);

  /// Recovery seam: temperature multiplier on the likelihood squash for
  /// subsequent correct() calls (effective squash = squash_factor * scale).
  /// Values > 1 flatten the posterior further — measurement tempering while
  /// a supervisor distrusts the scans. 1.0 is the bitwise-exact nominal
  /// path (x * 1.0 == x for every finite squash factor).
  void set_squash_scale(double scale);

  /// Attach a telemetry sink. With a metrics registry, every correct()
  /// records per-stage latency histograms (pf.predict_ms / pf.raycast_ms /
  /// pf.weight_ms / pf.resample_ms), samples a FilterHealth snapshot into
  /// gauges (pf.ess, pf.weight_entropy, pf.max_weight_share, ...), and
  /// adds each raycast's n x k queries to "range.<backend>.queries" (the
  /// filter counts them because its backend may be shared with filters
  /// that report elsewhere). With a trace buffer, stages emit nested
  /// spans. A default-constructed sink detaches; the filter then runs the
  /// exact un-instrumented hot path.
  void set_telemetry(const telemetry::Sink& sink);
  /// Health snapshot of the most recent measurement update (only populated
  /// while a metrics registry is attached).
  const telemetry::FilterHealth& health() const { return health_; }

 private:
  void normalize_weights();
  /// Contract helper: every weight finite and non-negative, sum within 1e-6
  /// of 1. Only evaluated in SYNPF_CHECKED builds.
  bool weights_normalized() const;
  void resample();
  /// Systematic (low-variance) draw of `count` poses from the weighted
  /// cloud into drawn_scratch_: one draw from `rng` places the first of
  /// `count` equally spaced pointers into the cumulative weights.
  void draw_systematic(std::size_t count, Rng& rng);
  /// Sample ESS / entropy / max-share gauges on the pre-resample weights.
  void sample_health();
  /// KLD bound: particles required for k occupied histogram bins.
  std::size_t kld_bound(std::size_t k) const;
  /// Grow the per-slot prediction-noise streams to cover `n` slots
  /// (substream key schedule documented at PfStream).
  void ensure_slot_rngs(std::size_t n);

  ParticleFilterConfig config_;
  std::shared_ptr<const RangeMethod> caster_;
  std::shared_ptr<const MotionModel> motion_;
  BeamModel beam_model_;
  LidarConfig lidar_;
  std::vector<int> beam_indices_;
  std::vector<double> beam_angles_;
  /// Governor beam decimation (set_beam_stride): every `beam_stride_`-th
  /// entry of the full layout, which correct() scores.
  int beam_stride_{1};
  std::vector<int> active_indices_;
  std::vector<double> active_angles_;
  bool resample_suppressed_{false};
  /// True only inside govern_resize()/resample(): the cloud and its
  /// side arrays are transiently inconsistent, so the digest/injection
  /// seams contract against observing it (SYNPF_CHECKED).
  bool resizing_{false};

  ParticleCloud cloud_;
  /// Resampling scratch: the systematic draws land here, then the clouds
  /// swap (non-KLD) or the kept prefix is written back (KLD). Member so
  /// steady-state resamples never allocate.
  ParticleCloud drawn_scratch_;
  std::vector<double> log_weights_;  ///< scratch for correct()
  /// Scratch: n x k expected ranges. Chunks own contiguous row ranges, so
  /// concurrent writes land in disjoint slabs (no sharing beyond the one
  /// cache line straddling each chunk boundary).
  std::vector<float> expected_;
  /// Scan-dependent half of the weight-stage table lookup, rebuilt once
  /// per correct() (see pf_kernels.hpp).
  pf_kernels::ScanContext scan_ctx_;
  Rng rng_;
  /// Per-slot prediction-noise substreams (grow-only within an init epoch;
  /// re-derived on every init_pose/init_global).
  std::vector<Rng> slot_rngs_;
  std::uint32_t init_epoch_{0};
  ThreadPool pool_;
  long resamples_{0};

  // Telemetry (all pointers null while detached).
  telemetry::Sink sink_{};
  telemetry::Histogram* h_predict_{nullptr};
  telemetry::Histogram* h_raycast_{nullptr};
  telemetry::Histogram* h_weight_{nullptr};
  telemetry::Histogram* h_resample_{nullptr};
  telemetry::Histogram* h_ess_fraction_{nullptr};
  telemetry::Gauge* g_ess_{nullptr};
  telemetry::Gauge* g_ess_fraction_{nullptr};
  telemetry::Gauge* g_entropy_{nullptr};
  telemetry::Gauge* g_max_share_{nullptr};
  telemetry::Gauge* g_particles_{nullptr};
  telemetry::Gauge* g_pose_jump_{nullptr};
  telemetry::Gauge* g_threads_{nullptr};
  telemetry::Counter* c_updates_{nullptr};
  telemetry::Counter* c_resamples_{nullptr};
  telemetry::Counter* c_jump_alarms_{nullptr};
  telemetry::Counter* c_range_queries_{nullptr};
  telemetry::PoseJumpDetector jump_detector_{};
  telemetry::FilterHealth health_{};

  double squash_scale_{1.0};
};

}  // namespace srl
