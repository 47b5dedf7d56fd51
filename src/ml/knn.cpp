#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace bd::ml {

namespace {
/// Per-thread query buffers: the standardized query and the tree's
/// search scratch.
struct QueryScratch {
  std::vector<double> query;
  KdTree::Scratch tree;
};
}  // namespace

void KNNRegressor::fit(const Dataset& data) {
  BD_CHECK_MSG(!data.empty(), "kNN fit on empty dataset");
  scaler_.fit(data);
  const std::size_t dim = data.feature_dim();
  std::vector<double> scaled = data.raw_features();
  for (std::size_t i = 0; i < data.size(); ++i) {
    scaler_.transform(std::span<double>(scaled.data() + i * dim, dim));
  }
  tree_.build(std::move(scaled), data.size(), dim);
  targets_ = data.raw_targets();
  target_dim_ = data.target_dim();
}

void KNNRegressor::predict_into(std::span<const double> features,
                                std::span<double> out) const {
  BD_CHECK_MSG(fitted(), "predict before fit");
  BD_CHECK(features.size() == tree_.dim());
  BD_CHECK(out.size() == target_dim_);

  thread_local QueryScratch scratch;
  scratch.query.assign(features.begin(), features.end());
  scaler_.transform(scratch.query);
  tree_.query_into(scratch.query, config_.k, scratch.tree);
  util::telemetry::counter_add("knn.nodes_visited",
                               scratch.tree.nodes_visited);

  const auto target = [&](std::size_t i) {
    return std::span<const double>(targets_.data() + i * target_dim_,
                                   target_dim_);
  };
  std::fill(out.begin(), out.end(), 0.0);
  double weight_sum = 0.0;
  for (const Neighbor& n : scratch.tree.heap) {
    const double d = std::sqrt(n.squared_dist);
    if (d < 1e-12) {
      // Exact match: return its target directly.
      const auto t = target(n.index);
      std::copy(t.begin(), t.end(), out.begin());
      return;
    }
    const double w = 1.0 / d;
    const auto t = target(n.index);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += w * t[c];
    weight_sum += w;
  }
  BD_CHECK(weight_sum > 0.0);
  for (double& v : out) v /= weight_sum;
}

std::vector<double> KNNRegressor::predict(
    std::span<const double> features) const {
  std::vector<double> out(target_dim_);
  predict_into(features, out);
  return out;
}

}  // namespace bd::ml
