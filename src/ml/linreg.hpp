#pragma once
/// \file linreg.hpp
/// Multi-output ridge (linear) regression via normal equations — the
/// alternative predictor the paper experimented with (§III-B1). Features
/// are standardized, then expanded with degree-2 polynomial terms, which
/// the smooth spatial variation of the access patterns rewards.

#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/linalg.hpp"
#include "ml/scaler.hpp"

namespace bd::ml {

/// L2 regularization strength of the ridge solve.
inline constexpr double kRidgeLambda = 1e-6;

/// Multi-output linear model Y ≈ Φ(X)·W, solved in closed form, where
/// Φ(x) = [1, z, z_i·z_j (i ≤ j)] of the standardized features z.
class RidgeRegressor {
 public:

  /// Fit weights from the dataset.
  void fit(const Dataset& data);

  /// Predict the target vector for one query point.
  std::vector<double> predict(std::span<const double> features) const;

  /// Predict into a caller-provided buffer.
  void predict_into(std::span<const double> features,
                    std::span<double> out) const;

  bool fitted() const { return weights_.rows() > 0; }
  std::size_t target_dim() const { return weights_.cols(); }

 private:
  std::vector<double> expand(std::span<const double> features) const;

  StandardScaler scaler_;
  Matrix weights_;  // (expanded_dim x target_dim)
  std::size_t feature_dim_ = 0;
};

}  // namespace bd::ml
