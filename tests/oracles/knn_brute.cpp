#include "oracles/knn_brute.hpp"

#include <algorithm>
#include <cmath>

#include "ml/linalg.hpp"
#include "util/check.hpp"

namespace bd::ml::oracle {

std::vector<Neighbor> brute_force_neighbors(std::span<const double> points,
                                            std::size_t count,
                                            std::size_t dim,
                                            std::span<const double> query,
                                            std::size_t k) {
  std::vector<Neighbor> all;
  all.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    all.push_back(Neighbor{
        i, squared_distance(points.subspan(i * dim, dim), query)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.squared_dist != b.squared_dist) {
      return a.squared_dist < b.squared_dist;
    }
    return a.index < b.index;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

void BruteKnn::fit(const Dataset& data) {
  BD_CHECK_MSG(!data.empty(), "kNN fit on empty dataset");
  train_ = data;
  scaler_.fit(train_);
}

std::vector<Neighbor> BruteKnn::neighbors(
    std::span<const double> features) const {
  const std::vector<double> query = scaler_.transformed(features);
  std::vector<double> scaled;
  scaled.reserve(train_.size() * train_.feature_dim());
  for (std::size_t i = 0; i < train_.size(); ++i) {
    const std::vector<double> row = scaler_.transformed(train_.features(i));
    scaled.insert(scaled.end(), row.begin(), row.end());
  }
  return brute_force_neighbors(scaled, train_.size(), train_.feature_dim(),
                               query, config_.k);
}

std::vector<double> BruteKnn::predict(std::span<const double> features) const {
  std::vector<double> out(train_.target_dim(), 0.0);
  double weight_sum = 0.0;
  for (const Neighbor& n : neighbors(features)) {
    const auto target = train_.targets(n.index);
    const double d = std::sqrt(n.squared_dist);
    if (d < 1e-12) return {target.begin(), target.end()};
    const double w = 1.0 / d;
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += w * target[c];
    weight_sum += w;
  }
  for (double& v : out) v /= weight_sum;
  return out;
}

}  // namespace bd::ml::oracle
