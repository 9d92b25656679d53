#include "core/particle_filter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/angles.hpp"
#include "common/contracts.hpp"
#include "common/simd.hpp"
#include "common/u64_set.hpp"
#include "sensor/scanline_layout.hpp"

namespace srl {

namespace {

/// Uniform pose over the free cells of `map` with a uniform heading,
/// rejection-sampled from `rng`; `fallback` when no free cell turns up.
Pose2 sample_free_pose(const OccupancyGrid& map, Rng& rng,
                       const Pose2& fallback) {
  for (int tries = 0; tries < 10000; ++tries) {
    const int ix = rng.uniform_int(0, map.width() - 1);
    const int iy = rng.uniform_int(0, map.height() - 1);
    if (!map.is_free(ix, iy)) continue;
    const Vec2 c = map.grid_to_world(ix, iy);
    return Pose2{c.x, c.y, rng.uniform(-kPi, kPi)};
  }
  return fallback;
}

}  // namespace

ParticleFilter::ParticleFilter(ParticleFilterConfig config,
                               std::shared_ptr<const RangeMethod> caster,
                               std::shared_ptr<const MotionModel> motion,
                               BeamModel beam_model, LidarConfig lidar,
                               std::vector<int> beam_indices,
                               std::uint64_t seed)
    : config_{config},
      caster_{std::move(caster)},
      motion_{std::move(motion)},
      beam_model_{std::move(beam_model)},
      lidar_{std::move(lidar)},
      beam_indices_{std::move(beam_indices)},
      beam_angles_{layout_angles(lidar_, beam_indices_)},
      active_indices_{beam_indices_},
      active_angles_{beam_angles_},
      rng_{seed},
      pool_{config_.n_threads} {
  cloud_.resize(static_cast<std::size_t>(std::max(config_.n_particles, 1)));
  log_weights_.resize(cloud_.size());
}

void ParticleFilter::ensure_slot_rngs(std::size_t n) {
  while (slot_rngs_.size() < n) {
    // Key schedule pinned at PfStream: (epoch << 32) | slot, so re-inits
    // re-key every stream and mid-run KLD growth extends deterministically.
    const auto key = (static_cast<std::uint64_t>(init_epoch_) << 32) |
                     static_cast<std::uint64_t>(slot_rngs_.size());
    slot_rngs_.push_back(rng_.substream(kPfStreamPredictNoise, key));
  }
}

void ParticleFilter::init_pose(const Pose2& pose) {
  ++init_epoch_;
  slot_rngs_.clear();
  const double w = 1.0 / static_cast<double>(cloud_.size());
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    cloud_.set_pose(
        i, Pose2{pose.x + rng_.gaussian(config_.init_sigma_xy),
                 pose.y + rng_.gaussian(config_.init_sigma_xy),
                 normalize_angle(pose.theta +
                                 rng_.gaussian(config_.init_sigma_theta))});
    cloud_.weight()[i] = w;
  }
}

void ParticleFilter::init_global(const OccupancyGrid& map) {
  ++init_epoch_;
  slot_rngs_.clear();
  const double w = 1.0 / static_cast<double>(cloud_.size());
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    cloud_.set_pose(i, sample_free_pose(map, rng_, cloud_.pose(i)));
    cloud_.weight()[i] = w;
  }
}

void ParticleFilter::set_telemetry(const telemetry::Sink& sink) {
  sink_ = sink;
  if (sink.metrics != nullptr) {
    telemetry::MetricsRegistry& m = *sink.metrics;
    h_predict_ = &m.histogram("pf.predict_ms");
    h_raycast_ = &m.histogram("pf.raycast_ms");
    h_weight_ = &m.histogram("pf.weight_ms");
    h_resample_ = &m.histogram("pf.resample_ms");
    // ESS *distribution* (the gauges below keep only the last value): the
    // scenario matrix reads its percentiles as the filter-health score.
    h_ess_fraction_ = &m.histogram("pf.ess_fraction_dist");
    g_ess_ = &m.gauge("pf.ess");
    g_ess_fraction_ = &m.gauge("pf.ess_fraction");
    g_entropy_ = &m.gauge("pf.weight_entropy");
    g_max_share_ = &m.gauge("pf.max_weight_share");
    g_particles_ = &m.gauge("pf.particles");
    g_pose_jump_ = &m.gauge("pf.pose_jump_m");
    g_threads_ = &m.gauge("pf.threads");
    g_threads_->set(static_cast<double>(pool_.threads()));
    c_updates_ = &m.counter("pf.updates");
    c_resamples_ = &m.counter("pf.resamples");
    c_jump_alarms_ = &m.counter("pf.pose_jump_alarms");
    c_range_queries_ = &m.counter("range." + caster_->name() + ".queries");
  } else {
    h_predict_ = h_raycast_ = h_weight_ = h_resample_ = nullptr;
    h_ess_fraction_ = nullptr;
    g_ess_ = g_ess_fraction_ = g_entropy_ = g_max_share_ = nullptr;
    g_particles_ = g_pose_jump_ = g_threads_ = nullptr;
    c_updates_ = c_resamples_ = c_jump_alarms_ = c_range_queries_ = nullptr;
  }
}

void ParticleFilter::predict(const OdometryDelta& odom) {
  SYNPF_EXPECTS_MSG(finite(odom.delta) && std::isfinite(odom.v) &&
                        std::isfinite(odom.dt),
                    "odometry increment must be finite");
  telemetry::ScopedSpan span{sink_.trace, "pf.predict"};
  telemetry::StageTimer timer{h_predict_};
  ensure_slot_rngs(cloud_.size());
  // Scalar per lane by design: each slot consumes its own RNG substream
  // draw sequence and the motion model's libm trig pins the bits, so a
  // vectorized predict could not stay bitwise identical (DESIGN.md §15).
  // One prepared motion step per chunk; slot i's noise comes from its own
  // substream, so the sample is the same whichever lane runs it.
  pool_.parallel_for(cloud_.size(), [&](int /*lane*/, std::size_t begin,
                                        std::size_t end) {
    telemetry::ScopedSpan chunk{sink_.trace, "pf.predict.chunk"};
    motion_->sample_slice(
        odom, PoseSlice{cloud_.x() + begin, cloud_.y() + begin,
                        cloud_.theta() + begin, slot_rngs_.data() + begin,
                        end - begin});
  });
  timer.stop();
}

Pose2 ParticleFilter::correct(const LaserScan& scan) {
  const std::size_t n = cloud_.size();
  // The beams under the governor's decimation stride: the full layout at
  // stride 1.
  const std::vector<int>& beams = active_indices_;
  const std::vector<double>& angles = active_angles_;
  const std::size_t k = beams.size();

  // Propagated prior estimate, kept only for the pose-jump detector.
  const bool health_on = sink_.metrics != nullptr;
  const Pose2 predicted = health_on ? estimate() : Pose2{};

  // One backend per update: hoisted out of the parallel regions so every
  // lane of this correct() runs the same kernel even if a test re-pins
  // the dispatch concurrently.
  const simd::Backend backend = simd::active();

  // Stage 1 — raycast: expected range for every (particle, beam) pair
  // through the backend's per-particle batch entry point. Chunks write
  // disjoint contiguous row slabs of `expected_`.
  {
    telemetry::ScopedSpan span{sink_.trace, "pf.raycast"};
    telemetry::StageTimer timer{h_raycast_};
    expected_.resize(n * k);
    pool_.parallel_for(n, [&](int /*lane*/, std::size_t begin,
                              std::size_t end) {
      telemetry::ScopedSpan chunk{sink_.trace, "pf.raycast.chunk"};
      // srl-lint: realtime
      for (std::size_t i = begin; i < end; ++i) {
        const Pose2 sensor = lidar_.sensor_pose(cloud_.pose(i));
        caster_->ranges_from(sensor, angles,
                             std::span<float>{expected_}.subspan(i * k, k));
      }
      // srl-lint: end-realtime
    });
    timer.stop();
    if (c_range_queries_ != nullptr) c_range_queries_->add(n * k);
  }

  // Stage 2 — weight: score each particle's expected ranges against the
  // measured scan with the beam model, then squash and normalize. The
  // scan-dependent half of the table lookup is hoisted into scan_ctx_
  // once; the per-particle scoring fans out through the dispatched
  // kernel (each chunk writes only its own log_weights_ rows); the max
  // scan and the normalization sum run in fixed order so the result is
  // thread-count independent.
  {
    telemetry::ScopedSpan weight_span{sink_.trace, "pf.weight"};
    telemetry::StageTimer weight_timer{h_weight_};
    scan_ctx_.build(beam_model_, scan, beams);
    log_weights_.resize(n);
    pool_.parallel_for(n, [&](int /*lane*/, std::size_t begin,
                              std::size_t end) {
      telemetry::ScopedSpan chunk{sink_.trace, "pf.weight.chunk"};
      // srl-lint: realtime
      pf_kernels::accumulate_log_weights(backend, scan_ctx_, expected_.data(),
                                         k, begin, end, log_weights_.data());
      // srl-lint: end-realtime
    });
    double max_log = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      max_log = std::max(max_log, log_weights_[i]);
    }

    // Squash and exponentiate relative to the max for numerical stability;
    // fold in the prior weights (uniform after a resample, usually a no-op).
    const double inv_squash =
        1.0 / std::max(config_.squash_factor * squash_scale_, 1e-6);
    double* weights = cloud_.weight();
    pool_.parallel_for(n, [&](int /*lane*/, std::size_t begin,
                              std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        weights[i] *= std::exp((log_weights_[i] - max_log) * inv_squash);
      }
    });
    normalize_weights();
    weight_timer.stop();
  }

  SYNPF_INVARIANT_MSG(effective_sample_size() > 0.0,
                      "ESS must be positive after weighting");

  // Health is sampled on the post-update, pre-resample weights — after a
  // resample they are uniform by construction and carry no signal.
  if (health_on) sample_health();

  const double pre_resample_ess = effective_sample_size();
  if (!resample_suppressed_ &&
      pre_resample_ess <
          config_.resample_ess_fraction * static_cast<double>(n)) {
    telemetry::ScopedSpan span{sink_.trace, "pf.resample"};
    telemetry::StageTimer timer{h_resample_};
    resample();
    timer.stop();
    if (c_resamples_ != nullptr) c_resamples_->add();
    if (sink_.events != nullptr) {
      json::Value data = json::Value::object();
      data.set("ess_fraction",
               json::Value::number(pre_resample_ess / static_cast<double>(n)));
      data.set("particles",
               json::Value::number(static_cast<double>(cloud_.size())));
      sink_.events->emit(scan.t, telemetry::EventSeverity::kDebug,
                         telemetry::EventCategory::kFilter, "pf.resample",
                         std::move(data));
    }
  }

  const Pose2 updated = estimate();
  if (health_on) {
    health_.resample_count = resamples_;
    jump_detector_.update(predicted, updated, health_);
    if (health_.pose_jump_alarm) {
      if (c_jump_alarms_ != nullptr) c_jump_alarms_->add();
      if (sink_.events != nullptr) {
        json::Value data = json::Value::object();
        data.set("jump_m", json::Value::number(health_.pose_jump_m));
        sink_.events->emit(scan.t, telemetry::EventSeverity::kWarn,
                           telemetry::EventCategory::kFilter, "pf.pose_jump",
                           std::move(data));
      }
    }
    g_pose_jump_->set(health_.pose_jump_m);
    g_particles_->set(static_cast<double>(cloud_.size()));
    c_updates_->add();
  }
  return updated;
}

void ParticleFilter::sample_health() {
  // The SoA weight slab is already the contiguous array the estimators
  // want — no copy (the AoS layout needed a gather into scratch here).
  const std::span<const double> weights = cloud_.weights();
  health_.n_particles = static_cast<int>(cloud_.size());
  health_.ess = telemetry::effective_sample_size(weights);
  health_.ess_fraction =
      health_.n_particles > 0
          ? health_.ess / static_cast<double>(health_.n_particles)
          : 0.0;
  health_.weight_entropy = telemetry::weight_entropy(weights);
  health_.normalized_entropy =
      health_.n_particles > 1
          ? health_.weight_entropy /
                std::log(static_cast<double>(health_.n_particles))
          : 0.0;
  health_.max_weight_share = telemetry::max_weight_share(weights);
  g_ess_->set(health_.ess);
  g_ess_fraction_->set(health_.ess_fraction);
  if (h_ess_fraction_ != nullptr) h_ess_fraction_->record(health_.ess_fraction);
  g_entropy_->set(health_.weight_entropy);
  g_max_share_->set(health_.max_weight_share);
}

void ParticleFilter::normalize_weights() {
  // Fixed pairwise order: the sum (and so every normalized weight) is
  // bitwise identical at any thread count.
  double* weights = cloud_.weight();
  const double sum = pairwise_reduce(
      cloud_.size(), [weights](std::size_t i) { return weights[i]; });
  if (sum <= 0.0 || !std::isfinite(sum)) {
    // Total weight collapse (all particles in impossible states): reset to
    // uniform rather than propagating NaNs; the next updates re-shape it.
    cloud_.fill_weights(1.0 / static_cast<double>(cloud_.size()));
    return;
  }
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    weights[i] /= sum;
  }
  SYNPF_ENSURES_MSG(weights_normalized(),
                    "particle weights must be finite, non-negative and sum to 1");
}

bool ParticleFilter::weights_normalized() const {
  const double* weights = cloud_.weight();
  double sum = 0.0;
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    if (!std::isfinite(weights[i]) || weights[i] < 0.0) return false;
    sum += weights[i];
  }
  return std::abs(sum - 1.0) < 1e-6;
}

double ParticleFilter::effective_sample_size() const {
  const double* weights = cloud_.weight();
  const double sum_sq =
      pairwise_reduce(cloud_.size(), [weights](std::size_t i) {
        const double w = weights[i];
        return w * w;
      });
  return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
}

std::vector<Particle> ParticleFilter::top_particles(std::size_t k) const {
  // Digest consumers (flight recorder, tests) must never observe the cloud
  // mid-resize: the pose and weight slabs are transiently inconsistent
  // while resample()/govern_resize() rebuild them.
  SYNPF_EXPECTS_MSG(!resizing_,
                    "top_particles must not be called mid-resize");
  SYNPF_EXPECTS_MSG(log_weights_.size() == cloud_.size(),
                    "cloud and weight scratch must agree before a digest");
  k = std::min(k, cloud_.size());
  const double* weights = cloud_.weight();
  std::vector<std::size_t> idx(cloud_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [weights](std::size_t a, std::size_t b) {
                      const double wa = weights[a];
                      const double wb = weights[b];
                      if (wa != wb) return wa > wb;
                      return a < b;  // stable under weight ties
                    });
  std::vector<Particle> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) out.push_back(cloud_.particle(idx[i]));
  return out;
}

void ParticleFilter::set_weights(std::span<const double> weights) {
  SYNPF_EXPECTS_MSG(weights.size() == cloud_.size(),
                    "one weight per current particle");
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    cloud_.weight()[i] = weights[i];
  }
  normalize_weights();
}

void ParticleFilter::force_resample() { resample(); }

void ParticleFilter::inject_uniform(double fraction, const OccupancyGrid& map,
                                    Rng& rng) {
  SYNPF_EXPECTS_MSG(std::isfinite(fraction),
                    "injection fraction must be finite");
  SYNPF_EXPECTS_MSG(!resizing_,
                    "inject_uniform must not be called mid-resize");
  SYNPF_EXPECTS_MSG(log_weights_.size() == cloud_.size(),
                    "cloud and weight scratch must agree before injection");
  if (fraction <= 0.0) return;
  const double f = std::min(fraction, 1.0);
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    if (rng.uniform() < f) {
      cloud_.set_pose(i, sample_free_pose(map, rng, cloud_.pose(0)));
    }
  }
  cloud_.fill_weights(1.0 / static_cast<double>(cloud_.size()));
}

void ParticleFilter::set_beam_stride(int stride) {
  SYNPF_EXPECTS_MSG(stride >= 1, "beam stride must be >= 1");
  stride = std::max(stride, 1);
  if (stride == beam_stride_) return;
  beam_stride_ = stride;
  active_indices_.clear();
  active_angles_.clear();
  const auto step = static_cast<std::size_t>(stride);
  for (std::size_t b = 0; b < beam_indices_.size(); b += step) {
    active_indices_.push_back(beam_indices_[b]);
    active_angles_.push_back(beam_angles_[b]);
  }
}

void ParticleFilter::govern_resize(int target, std::uint64_t ordinal) {
  SYNPF_EXPECTS_MSG(target > 0, "resize target must be positive");
  const std::size_t n = cloud_.size();
  const auto want = static_cast<std::size_t>(std::max(target, 1));
  if (want == n) return;  // strict no-op: no draw, no weight touch
  resizing_ = true;
  Rng rng = rng_.substream(kPfStreamGovernor, ordinal);
  if (want < n) {
    // Weight-proportional systematic subsample: the shrunken cloud is an
    // unbiased low-variance resampling of the old one (resample()'s CDF
    // walk, just to a smaller count and from the governor stream).
    draw_systematic(want, rng);
    cloud_.swap(drawn_scratch_);
  } else {
    // Grow: clone existing slots round-robin with init-sigma jitter so the
    // new particles explore instead of duplicating. Serial in slot order;
    // the new slots' prediction streams are re-derived by the next
    // predict()'s ensure_slot_rngs with the pinned (epoch, slot) keys.
    cloud_.resize(want);
    for (std::size_t m = n; m < want; ++m) {
      const Pose2 base = cloud_.pose(m % n);
      cloud_.set_pose(
          m, Pose2{base.x + rng.gaussian(config_.init_sigma_xy),
                   base.y + rng.gaussian(config_.init_sigma_xy),
                   normalize_angle(base.theta +
                                   rng.gaussian(config_.init_sigma_theta))});
    }
  }
  log_weights_.resize(cloud_.size());
  cloud_.fill_weights(1.0 / static_cast<double>(cloud_.size()));
  resizing_ = false;
  SYNPF_ENSURES_MSG(cloud_.size() == want && log_weights_.size() == want,
                    "cloud and weight scratch must agree after a resize");
}

void ParticleFilter::set_squash_scale(double scale) {
  SYNPF_EXPECTS_MSG(std::isfinite(scale) && scale > 0.0,
                    "squash scale must be positive and finite");
  squash_scale_ = scale;
}

std::size_t ParticleFilter::kld_bound(std::size_t k) const {
  if (k <= 1) return static_cast<std::size_t>(config_.kld_min_particles);
  // Fox's chi-square/Wilson-Hilferty bound on the required sample count.
  const double kd = static_cast<double>(k - 1);
  const double a = 2.0 / (9.0 * kd);
  const double b = 1.0 - a + std::sqrt(a) * config_.kld_quantile_z;
  const double n = kd / (2.0 * config_.kld_epsilon) * b * b * b;
  return static_cast<std::size_t>(std::ceil(n));
}

void ParticleFilter::draw_systematic(std::size_t count, Rng& rng) {
  const std::size_t n = cloud_.size();
  drawn_scratch_.resize(count);
  const double step = 1.0 / static_cast<double>(count);
  double target = rng.uniform(0.0, step);
  const double* weights = cloud_.weight();
  double cumulative = weights[0];
  std::size_t i = 0;
  // srl-lint: realtime
  for (std::size_t m = 0; m < count; ++m) {
    while (cumulative < target && i + 1 < n) {
      ++i;
      cumulative += weights[i];
    }
    drawn_scratch_.set_pose(m, cloud_.pose(i));
    target += step;
  }
  // srl-lint: end-realtime
}

void ParticleFilter::resample() {
  // Low-variance (systematic) resampling: one uniform draw, `max_n` equally
  // spaced pointers into the cumulative weight distribution. O(N), preserves
  // particle diversity better than multinomial sampling.
  //
  // With KLD adaptation, the cloud is cut off once the Fox bound for the
  // number of occupied (x, y, theta) histogram bins is met — tight
  // posteriors need few particles, dispersed ones keep the full budget.
  // A plain prefix of the systematic draws would cover only the low-CDF
  // region, so the draws are visited with a stride coprime to their count,
  // making every prefix an approximately uniform subsample of the CDF.
  const auto max_n = static_cast<std::size_t>(
      std::max(config_.n_particles, config_.kld_min_particles));
  resizing_ = true;
  // The one master-stream draw per resample event (see PfStream schedule).
  draw_systematic(max_n, rng_);

  if (!config_.kld_adaptive) {
    cloud_.swap(drawn_scratch_);
    log_weights_.resize(cloud_.size());
    cloud_.fill_weights(1.0 / static_cast<double>(cloud_.size()));
    ++resamples_;
    resizing_ = false;
    return;
  }

  // Visit the systematic draws in a coprime stride so any prefix is an
  // (approximately) uniform subsample of the CDF.
  std::size_t stride = max_n / 2 + 1;
  while (std::gcd(stride, max_n) != 1) ++stride;

  // The kept prefix overwrites cloud_ in place: the old particles are dead
  // once the systematic draws above are complete.
  cloud_.resize(max_n);
  std::size_t kept = 0;
  // Deterministic by construction (pinned SplitMix64 hashing, no iteration):
  // the KLD bin count must be a pure function of the particle sequence on
  // every platform, which std::unordered_set does not promise.
  U64Set bins;
  const auto min_keep =
      static_cast<std::size_t>(std::max(config_.kld_min_particles, 1));
  std::size_t idx = 0;
  for (std::size_t m = 0; m < max_n; ++m, idx = (idx + stride) % max_n) {
    const Pose2 p = drawn_scratch_.pose(idx);
    cloud_.set_pose(kept, p);
    ++kept;
    const auto bx =
        static_cast<std::int64_t>(std::floor(p.x / config_.kld_bin_xy));
    const auto by =
        static_cast<std::int64_t>(std::floor(p.y / config_.kld_bin_xy));
    const auto bt = static_cast<std::int64_t>(
        std::floor(normalize_angle(p.theta) / config_.kld_bin_theta));
    bins.insert((static_cast<std::uint64_t>(bx & 0x1FFFFF) << 42) |
                (static_cast<std::uint64_t>(by & 0x1FFFFF) << 21) |
                static_cast<std::uint64_t>(bt & 0x1FFFFF));
    if (kept >= min_keep && kept >= kld_bound(bins.size())) {
      break;
    }
  }
  cloud_.resize(kept);
  log_weights_.resize(kept);
  cloud_.fill_weights(1.0 / static_cast<double>(kept));
  ++resamples_;
  resizing_ = false;
}

Pose2 ParticleFilter::estimate() const {
  const double* xs = cloud_.x();
  const double* ys = cloud_.y();
  const double* ts = cloud_.theta();
  const double* weights = cloud_.weight();
  double x = 0.0;
  double y = 0.0;
  double cs = 0.0;
  double sn = 0.0;
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    x += weights[i] * xs[i];
    y += weights[i] * ys[i];
    cs += weights[i] * std::cos(ts[i]);
    sn += weights[i] * std::sin(ts[i]);
  }
  return Pose2{x, y, std::atan2(sn, cs)};
}

PoseCovariance ParticleFilter::covariance() const {
  const Pose2 mean = estimate();
  const double* xs = cloud_.x();
  const double* ys = cloud_.y();
  const double* ts = cloud_.theta();
  const double* weights = cloud_.weight();
  PoseCovariance cov;
  double r = 0.0;
  for (std::size_t i = 0; i < cloud_.size(); ++i) {
    const double dx = xs[i] - mean.x;
    const double dy = ys[i] - mean.y;
    cov.xx += weights[i] * dx * dx;
    cov.xy += weights[i] * dx * dy;
    cov.yy += weights[i] * dy * dy;
    r += weights[i] * std::cos(angle_diff(ts[i], mean.theta));
  }
  r = std::clamp(r, 1e-12, 1.0);
  cov.tt = -2.0 * std::log(r);
  return cov;
}

}  // namespace srl
