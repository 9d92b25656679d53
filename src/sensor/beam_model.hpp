#pragma once

/// \file beam_model.hpp
/// \brief Beam-based range likelihood p(z | z*) (Probabilistic Robotics,
/// ch. 6.3): a mixture of a Gaussian around the expected range, an
/// exponential short-return component, a max-range spike, and a uniform
/// noise floor. Likelihoods are precomputed into a 2-D table over
/// (measured, expected) so the particle filter's inner loop is two integer
/// ops and a load — the same trick as the MIT racecar particle filter.

#include <vector>

#include "common/types.hpp"

namespace srl {

struct BeamModelParams {
  double z_hit = 0.75;    ///< weight of the Gaussian hit component
  double z_short = 0.05;  ///< weight of unexpected-obstacle short returns
  double z_max = 0.05;    ///< weight of the max-range spike
  double z_rand = 0.15;   ///< weight of the uniform floor
  double sigma_hit = 0.12;     ///< m, hit Gaussian std
  double lambda_short = 1.0;   ///< 1/m, short-return decay
  double max_range = 12.0;     ///< m
  double table_resolution = 0.05;  ///< m per table bin
};

class BeamModel {
 public:
  explicit BeamModel(const BeamModelParams& params = {});

  /// Log-likelihood of measuring `measured` when the map predicts
  /// `expected`, both clamped to [0, max_range]. Table lookup, O(1).
  double log_prob(float measured, float expected) const {
    return log_table_[index(measured, expected)];
  }
  double prob(float measured, float expected) const;

  const BeamModelParams& params() const { return params_; }
  int table_dim() const { return dim_; }

  /// Table bin of a range value — the exact clamp arithmetic log_prob()
  /// uses for both axes. Exposed so the vectorized weight kernels
  /// (src/core/pf_kernels.cpp) can reproduce the lookup bit-for-bit;
  /// any change here is a golden-trace regeneration event.
  ///
  /// Defined for every float: the bounds are compared before the cast,
  /// because a NaN, an infinity or a double past INT_MAX cast to int is
  /// undefined behaviour, and a measured range reaches here unchecked.
  /// NaN, +Inf and anything at or past the last bin take the last
  /// (max-range) bin; -Inf and negatives take bin 0. Every other value
  /// keeps the bin of the plain truncate-and-clamp.
  int range_bin(float v) const {
    const double x = static_cast<double>(v) * inv_res_ + 0.5;
    if (!(x < dim_ - 1)) return dim_ - 1;
    if (x < 0.0) return 0;
    return static_cast<int>(x);
  }

  /// Raw log-likelihood table (dim x dim, [measured][expected]) and the
  /// bin scale, for the batched kernels. The table outlives any kernel
  /// call; the model is immutable after construction.
  const double* log_table_data() const { return log_table_.data(); }
  double inv_resolution() const { return inv_res_; }

  /// Direct (un-tabled) evaluation, used to build the table and by tests.
  double prob_exact(double measured, double expected) const;

 private:
  std::size_t index(float measured, float expected) const;

  BeamModelParams params_;
  int dim_;
  double inv_res_;
  std::vector<double> log_table_;  ///< dim_ x dim_, [measured][expected]
};

}  // namespace srl
