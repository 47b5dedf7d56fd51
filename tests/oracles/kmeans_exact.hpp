#pragma once
/// \file kmeans_exact.hpp
/// Exact Lloyd k-means (test oracle): every point scans all k centroids
/// in every iteration. ml::kmeans_weighted runs Hamerly-pruned Lloyd,
/// which skips scans whose outcome its distance bounds already decide;
/// tests compare the two bit for bit (assignments, centroids, sizes,
/// inertia, iteration count).
///
/// Only Lloyd is re-implemented here. Cold starts take their k-means++
/// seeds from ml::kmeans_weighted run for zero iterations, so both sides
/// start from the same centroids.

#include <span>

#include "ml/kmeans.hpp"

namespace bd::ml::oracle {

/// Same contract as ml::kmeans_weighted: `weights` empty = unit weights,
/// `initial_centroids` empty = k-means++ seeding.
KMeansResult kmeans_exact(std::span<const double> points, std::size_t count,
                          std::size_t dim, std::span<const double> weights,
                          std::span<const double> initial_centroids,
                          const KMeansConfig& config);

}  // namespace bd::ml::oracle
