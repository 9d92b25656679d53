#include "recovery/recovery_policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"
#include "common/contracts.hpp"
#include "sensor/scanline_layout.hpp"

namespace srl::recovery {

AlignmentProbe::AlignmentProbe(std::shared_ptr<const OccupancyGrid> map,
                               LidarConfig lidar, int beams,
                               double tolerance_m)
    : lidar_{lidar},
      beam_indices_{uniform_layout(lidar, beams)},
      beam_angles_{layout_angles(lidar, beam_indices_)},
      tolerance_m_{tolerance_m} {
  SYNPF_EXPECTS_MSG(map != nullptr, "alignment probe needs a map");
  RangeMethodOptions options;
  options.max_range = lidar_.max_range;
  // Exact ray casting: the probe runs K beams per scan, not K x N, so the
  // Bresenham backend is cheap and needs no precomputation pass.
  caster_ = make_range_method(RangeMethodKind::kBresenham, std::move(map),
                              options);
}

double AlignmentProbe::valid_fraction(const LaserScan& scan) const {
  if (scan.ranges.empty()) return 0.0;
  const auto min_r = static_cast<float>(lidar_.min_range);
  const auto max_r = static_cast<float>(lidar_.max_range) * 0.999F;
  std::size_t valid = 0;
  for (const float r : scan.ranges) {
    if (r > min_r && r < max_r) ++valid;
  }
  return static_cast<double>(valid) / static_cast<double>(scan.ranges.size());
}

double AlignmentProbe::score(const Pose2& pose, const LaserScan& scan) const {
  const std::size_t k = beam_indices_.size();
  rays_.resize(k);
  expected_.resize(k);
  const Pose2 sensor = pose * lidar_.mount;
  for (std::size_t j = 0; j < k; ++j) {
    rays_[j] = Pose2{sensor.x, sensor.y, sensor.theta + beam_angles_[j]};
  }
  caster_->ranges(rays_, expected_);

  const auto min_r = static_cast<float>(lidar_.min_range);
  const auto max_r = static_cast<float>(lidar_.max_range) * 0.999F;
  int valid = 0;
  int hits = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto idx = static_cast<std::size_t>(beam_indices_[j]);
    if (idx >= scan.ranges.size()) continue;
    const float measured = scan.ranges[idx];
    if (measured <= min_r || measured >= max_r) continue;
    ++valid;
    if (std::abs(static_cast<double>(measured) -
                 static_cast<double>(expected_[j])) <= tolerance_m_) {
      ++hits;
    }
  }
  if (valid < kMinValidBeams) return -1.0;
  return static_cast<double>(hits) / static_cast<double>(valid);
}

RecoveryPolicyConfig RecoveryPolicyConfig::none() {
  RecoveryPolicyConfig config;
  config.amcl_injection = false;
  config.global_reloc = false;
  config.tempering = false;
  config.blackout_fallback = false;
  return config;
}

RecoveryPolicy::RecoveryPolicy(RecoveryPolicyConfig config,
                               std::shared_ptr<const OccupancyGrid> map,
                               LidarConfig lidar, std::uint64_t seed)
    : config_{config}, map_{std::move(map)}, lidar_{lidar}, base_{seed} {
  SYNPF_EXPECTS_MSG(map_ != nullptr, "recovery policy needs a map");
}

void RecoveryPolicy::observe_alignment(double score) {
  if (score < 0.0) return;
  // Thrun's averages over the per-update measurement quality. Floor the
  // sample so a single all-miss scan cannot zero w_slow forever.
  const double sample = std::max(score, 1e-3);
  if (w_slow_ == 0.0) w_slow_ = sample;
  if (w_fast_ == 0.0) w_fast_ = sample;
  w_slow_ += config_.amcl_alpha_slow * (sample - w_slow_);
  w_fast_ += config_.amcl_alpha_fast * (sample - w_fast_);
}

double RecoveryPolicy::injection_fraction() const {
  const double raw =
      w_slow_ > 0.0 ? std::max(0.0, 1.0 - w_fast_ / w_slow_) : 0.0;
  return std::clamp(raw, config_.min_injection_fraction,
                    config_.max_injection_fraction);
}

RecoveryPolicy::Action RecoveryPolicy::plan_recovery(bool has_filter) {
  ++diverged_entries_;
  const bool can_inject = config_.amcl_injection && has_filter;
  const bool escalated = diverged_entries_ > config_.escalate_after;
  if (config_.global_reloc && (escalated || !can_inject)) {
    return Action::kGlobalReloc;
  }
  if (can_inject) return Action::kInject;
  return Action::kNone;
}

void RecoveryPolicy::note_healthy() { diverged_entries_ = 0; }

Rng RecoveryPolicy::inject_rng() {
  return base_.substream(kRecoveryStreamInject, inject_ordinal_++);
}

std::optional<Pose2> RecoveryPolicy::global_relocalize(
    const LaserScan& scan, const AlignmentProbe& probe, const Pose2& current) {
  // Stage 1 — sweep a fixed lattice over map free space, probe a heading
  // fan at each position, and keep a shortlist of the best-aligned
  // candidates. The lattice spacing guarantees some candidate lands inside
  // the matcher's capture window around the true pose — a property a random
  // scatter cannot give — and makes the whole search a pure function of
  // (map, config, scan): deterministic with no RNG draw at all. The
  // shortlist matters because on a corridor track many wrong poses alias to
  // high probe scores, so the raw winner alone is unreliable.
  struct Candidate {
    Pose2 pose;
    double score;
  };
  const auto top_n =
      static_cast<std::size_t>(std::max(config_.reloc_refine_top, 1));
  std::vector<Candidate> shortlist;
  shortlist.reserve(top_n + 1);
  const int headings = std::max(config_.reloc_headings, 1);
  const OccupancyGrid& map = *map_;
  const int stride = std::max(
      1, static_cast<int>(std::lround(config_.reloc_grid_m /
                                      map.resolution())));
  for (int iy = stride / 2; iy < map.height(); iy += stride) {
    for (int ix = stride / 2; ix < map.width(); ix += stride) {
      if (!map.is_free(ix, iy)) continue;
      const Vec2 c = map.grid_to_world(ix, iy);
      Pose2 candidate{c.x, c.y, 0.0};
      for (int h = 0; h < headings; ++h) {
        candidate.theta = normalize_angle(2.0 * kPi * static_cast<double>(h) /
                                          static_cast<double>(headings));
        const double score = probe.score(candidate, scan);
        if (score < 0.0) continue;
        if (shortlist.size() == top_n && score <= shortlist.back().score) {
          continue;
        }
        // Insert sorted (descending, earlier candidate wins ties).
        auto it = shortlist.begin();
        while (it != shortlist.end() && it->score >= score) ++it;
        shortlist.insert(it, Candidate{candidate, score});
        if (shortlist.size() > top_n) shortlist.pop_back();
      }
    }
  }
  if (shortlist.empty()) return std::nullopt;

  // Stage 2 — refine every shortlisted candidate with the correlative
  // matcher and re-score the refined pose; the refinement pulls a candidate
  // that is merely *near* the true pose onto it, which separates it from
  // aliased look-alikes that refine nowhere better.
  const std::vector<Vec2> points =
      config_.reloc_scan_match ? scan_to_points(scan, lidar_, 8)
                               : std::vector<Vec2>{};
  std::unique_ptr<CorrelativeScanMatcher> matcher;
  if (!points.empty()) {
    if (field_ == nullptr) {
      field_ = ProbabilityGrid::shared_likelihood_field(*map_);
    }
    // The linear window must cover the worst-case lattice offset
    // (reloc_grid_m * sqrt(2) / 2); the matcher closes the last few cm.
    CorrelativeOptions options;
    options.linear_window = 0.40;
    options.angular_window = 0.20;
    options.linear_step = 0.05;
    options.angular_step = 0.025;
    matcher = std::make_unique<CorrelativeScanMatcher>(options);
  }
  Pose2 best{};
  double best_score = -1.0;
  for (const Candidate& cand : shortlist) {
    Pose2 refined = cand.pose;
    double refined_score = cand.score;
    if (matcher != nullptr) {
      const ScanMatchResult match = matcher->match(*field_, cand.pose, points);
      if (match.ok) {
        const double score = probe.score(match.pose, scan);
        if (score > refined_score) {
          refined = match.pose;
          refined_score = score;
        }
      }
    }
    if (refined_score > best_score) {
      best_score = refined_score;
      best = refined;
    }
  }

  // Stage 3 — verification gate: apply the relocalization only when it is
  // decisively better than where the estimate already is. A failed search
  // must never destroy the state it was meant to repair.
  const double current_score = probe.score(current, scan);
  if (current_score >= 0.0 &&
      best_score < current_score + config_.reloc_accept_margin) {
    return std::nullopt;
  }
  return best;
}

void RecoveryPolicy::reset() {
  w_slow_ = 0.0;
  w_fast_ = 0.0;
  diverged_entries_ = 0;
  // Ordinals deliberately survive: the substream schedule is keyed by the
  // lifetime action count, so a mid-run re-initialization cannot replay an
  // earlier action's draws.
}

}  // namespace srl::recovery
