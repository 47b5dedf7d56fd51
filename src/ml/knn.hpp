#pragma once
/// \file knn.hpp
/// k-nearest-neighbor regression (multi-output) — the paper's choice for
/// the online access-pattern predictor (§III-B1). Features are always
/// standardized before distances, neighbors come from an exact kd-tree,
/// and the prediction is the 1/d-weighted mean of the k neighbors'
/// targets (an exact match returns its stored target).

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/kdtree.hpp"
#include "ml/scaler.hpp"

namespace bd::ml {

/// kNN hyperparameters.
struct KnnConfig {
  std::size_t k = 4;
};

/// Multi-output kNN regressor.
class KNNRegressor {
 public:
  explicit KNNRegressor(KnnConfig config = {}) : config_(config) {}

  /// Fit from a dataset: the kd-tree owns the one standardized copy of the
  /// features, and only the targets are kept beside it.
  void fit(const Dataset& data);

  /// Predict the target vector for one query point.
  std::vector<double> predict(std::span<const double> features) const;

  /// Predict into a caller-provided buffer. Reentrant; allocates nothing
  /// once the calling thread's query scratch is warm. Adds the kd-tree
  /// nodes the query examined to the `knn.nodes_visited` counter, once
  /// per call.
  void predict_into(std::span<const double> features,
                    std::span<double> out) const;

  bool fitted() const { return !tree_.empty(); }
  std::size_t target_dim() const { return target_dim_; }
  const KnnConfig& config() const { return config_; }

 private:
  KnnConfig config_;
  StandardScaler scaler_;
  KdTree tree_;
  std::vector<double> targets_;  ///< row-major, target_dim_ per point
  std::size_t target_dim_ = 0;
};

}  // namespace bd::ml
