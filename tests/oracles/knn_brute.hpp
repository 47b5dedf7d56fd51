#pragma once
/// \file knn_brute.hpp
/// Brute-force k-nearest neighbors (test oracle). ml::KdTree and
/// ml::KNNRegressor prune their search with cell bounds; these scan every
/// point, so tests can demand the same neighbors, distances and
/// predictions bit for bit.

#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/kdtree.hpp"
#include "ml/knn.hpp"
#include "ml/scaler.hpp"

namespace bd::ml::oracle {

/// The k nearest of `count` row-major points of dimension `dim` to
/// `query`, ordered by (squared distance, index); k is clamped to count.
std::vector<Neighbor> brute_force_neighbors(std::span<const double> points,
                                            std::size_t count,
                                            std::size_t dim,
                                            std::span<const double> query,
                                            std::size_t k);

/// kNN regression with ml::KNNRegressor's contract (standardized
/// features, 1/d weights, exact match returns its target) over a full
/// scan of the training rows.
class BruteKnn {
 public:
  explicit BruteKnn(KnnConfig config = {}) : config_(config) {}

  void fit(const Dataset& data);

  /// The neighbors the regressor averages, in averaging order.
  std::vector<Neighbor> neighbors(std::span<const double> features) const;

  std::vector<double> predict(std::span<const double> features) const;

 private:
  KnnConfig config_;
  Dataset train_;
  StandardScaler scaler_;
};

}  // namespace bd::ml::oracle
