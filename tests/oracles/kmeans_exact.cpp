#include "oracles/kmeans_exact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ml/linalg.hpp"

namespace bd::ml::oracle {

namespace {

std::span<const double> row(std::span<const double> m, std::size_t dim,
                            std::size_t i) {
  return m.subspan(i * dim, dim);
}

}  // namespace

KMeansResult kmeans_exact(std::span<const double> points, std::size_t count,
                          std::size_t dim, std::span<const double> weights,
                          std::span<const double> initial_centroids,
                          const KMeansConfig& config) {
  const std::size_t k = config.clusters;
  const bool has_weights = !weights.empty();

  KMeansResult result;
  if (!initial_centroids.empty()) {
    result.centroids.assign(initial_centroids.begin(),
                            initial_centroids.end());
  } else {
    KMeansConfig seeding = config;
    seeding.max_iterations = 0;
    result.centroids =
        kmeans_weighted(points, count, dim, weights, {}, seeding).centroids;
  }
  result.assignment.assign(count, 0);
  result.sizes.assign(k, 0);
  std::vector<double> best_d(count);

  double prev_inertia = std::numeric_limits<double>::max();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    std::fill(result.sizes.begin(), result.sizes.end(), 0u);
    result.inertia = 0.0;

    // Assignment: nearest centroid (first index on ties); sizes and
    // inertia accumulate in point order.
    for (std::size_t i = 0; i < count; ++i) {
      double best = std::numeric_limits<double>::max();
      std::uint32_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = squared_distance(row(points, dim, i),
                                          row(result.centroids, dim, c));
        if (d < best) {
          best = d;
          best_c = static_cast<std::uint32_t>(c);
        }
      }
      result.assignment[i] = best_c;
      best_d[i] = best;
      ++result.sizes[best_c];
      result.inertia += has_weights ? weights[i] * best : best;
    }

    // Update: (weighted) member means summed in point order; an empty
    // cluster takes the farthest point not already taken by a lower
    // empty cluster (first maximum wins).
    std::vector<double> sums(k * dim, 0.0);
    std::vector<double> wsum(k, 0.0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t c = result.assignment[i];
      const double w = has_weights ? weights[i] : 1.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double x = points[i * dim + d];
        sums[c * dim + d] += has_weights ? w * x : x;
      }
      wsum[c] += w;
    }
    std::vector<char> taken(count, 0);
    for (std::size_t c = 0; c < k; ++c) {
      if (result.sizes[c] == 0) {
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < count; ++i) {
          if (!taken[i] && best_d[i] > far_d) {
            far_d = best_d[i];
            far = i;
          }
        }
        taken[far] = 1;
        const auto p = row(points, dim, far);
        std::copy(p.begin(), p.end(),
                  result.centroids.begin() +
                      static_cast<std::ptrdiff_t>(c * dim));
        continue;
      }
      const double denom =
          has_weights ? wsum[c] : static_cast<double>(result.sizes[c]);
      for (std::size_t d = 0; d < dim; ++d) {
        result.centroids[c * dim + d] = sums[c * dim + d] / denom;
      }
    }

    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel = std::abs(prev_inertia - result.inertia) /
                         std::max(1e-30, prev_inertia);
      if (rel < config.tolerance) break;
    }
    prev_inertia = result.inertia;
  }
  return result;
}

}  // namespace bd::ml::oracle
