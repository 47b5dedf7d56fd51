#pragma once
/// \file clustering.hpp
/// RP-CLUSTERING (paper Algorithm 1, line 6): partition the grid points
/// into m clusters by access-pattern similarity with k-means, so points
/// mapped to the same thread block maximize data reuse and share control
/// flow. The paper chooses m = max(N_X, N_Y), giving clusters of
/// approximately min(N_X, N_Y) points; we additionally enforce balance so
/// every cluster fits one thread block exactly.
///
/// Two engineering refinements over a literal k-means call:
///  * centroids are trained on a 512-draw D² coreset (Lloyd is O(n·k·d)
///    per iteration), warm-started from the previous step's centroids
///    when a cache is supplied, and the full point set is then
///    balance-assigned in one capacity-constrained pass;
///  * grid coordinates can be appended as weighted features, so clusters
///    of equal access pattern prefer spatially-compact shapes — the
///    property that turns pattern similarity into actual coalesced loads
///    when members map to consecutive lanes.

#include <cstdint>
#include <span>
#include <vector>

#include "beam/grid.hpp"
#include "core/access_pattern.hpp"

namespace bd::core {

/// Result of RP-CLUSTERING: per-cluster member lists (grid point indices,
/// ascending — i.e. row-major within each cluster).
struct ClusterAssignment {
  std::vector<std::vector<std::uint32_t>> members;
  std::size_t max_cluster_size = 0;
  /// Full-set inertia under the final (balanced) assignment — comparable
  /// between coreset training and full-set training (accel off).
  double inertia = 0.0;
  std::size_t kmeans_iterations = 0;
  std::size_t coreset_size = 0;  ///< coreset training points (0 = accel off)
  bool warm_started = false;     ///< centroids seeded from the cache
};

/// Cross-step centroid cache for warm-started clustering. Owned by the
/// caller (PredictiveSolver persists it through save_state/load_state so
/// checkpoint resume stays bit-identical); training updates it in place.
struct ClusteringCache {
  std::vector<double> centroids;  ///< clusters × dim, row-major
  std::size_t dim = 0;
  double inertia = 0.0;  ///< training (coreset-weighted) inertia at save
  bool valid() const { return !centroids.empty() && dim > 0; }
  void clear() {
    centroids.clear();
    dim = 0;
    inertia = 0.0;
  }
};

/// Centroid training of RP-CLUSTERING. Enabled (the production path),
/// Lloyd trains on a D² importance-sampled weighted coreset of 512 draws
/// and, when a cache is supplied, starts from the previous step's
/// centroids — skipping k-means++ while patterns drift slowly. Disabled,
/// Lloyd trains cold on every point and the cache is never touched: the
/// paper-literal reference that coreset quality is measured against.
struct ClusteringAccel {
  bool enabled = true;
  /// Optional cross-step centroid cache (nullptr = cold every call).
  ClusteringCache* cache = nullptr;
};

/// Options for rp_clustering. Clusters are always capped at
/// ceil(points/clusters) members.
struct RpClusteringOptions {
  std::size_t clusters = 8;
  std::uint64_t seed = 42;
  /// Relative weight of the spatial features (0 disables them; 1 makes
  /// coordinate variance comparable to total pattern variance).
  double spatial_weight = 0.75;
  ClusteringAccel accel;
};

/// Cluster grid points by access pattern (plus optional weighted
/// coordinates). `xs` and `ys` must both be empty or both hold one
/// coordinate per point; anything else throws CheckError.
ClusterAssignment rp_clustering(const PatternField& patterns,
                                std::span<const double> xs,
                                std::span<const double> ys,
                                const RpClusteringOptions& options);

/// Tile-granular RP-CLUSTERING — the production mapping used by
/// Predictive-RP. The grid is cut into warp-shaped tiles (tile_w × tile_h
/// = warp_size points); access patterns vary smoothly in space, so a
/// tile's points share a near-identical pattern. k-means then clusters
/// *tiles* by their mean pattern; a thread block is a cluster of tiles,
/// each warp is one spatially-compact tile. This keeps the per-block
/// merged partition tight (pattern-similar members) *and* makes lane
/// addresses adjacent (coalescing + L1 reuse) — the two wins the paper's
/// computation-to-thread mapping targets.
struct TiledClusteringOptions {
  std::size_t clusters = 8;        ///< m — thread blocks
  std::uint32_t tile_w = 8;        ///< tile width  (points along s)
  std::uint32_t tile_h = 4;        ///< tile height (points along y)
  std::uint64_t seed = 42;
  std::size_t max_tiles_per_cluster = 32;  ///< 32 warps = 1024 threads
  /// Weight of the tile-center coordinates in the clustering features.
  /// Spatially-adjacent tiles share stencil rows (the inner window spans
  /// several cells), so compact clusters turn pattern similarity into
  /// actual L1 sharing between co-resident warps.
  double spatial_weight = 1.0;
  ClusteringAccel accel;
};
ClusterAssignment rp_clustering_tiled(const PatternField& patterns,
                                      const beam::GridSpec& spec,
                                      const TiledClusteringOptions& options);

/// Points per block of the bootstrap and baseline clusterings: one
/// 128-thread block.
inline constexpr std::size_t kBlockPoints = 128;

/// Trivial clustering used by bootstrap steps and baselines: consecutive
/// row-major chunks of `chunk` points.
ClusterAssignment chunk_clustering(std::size_t points, std::size_t chunk);

/// Clustering from an explicit point ordering: consecutive chunks of the
/// permutation (the Heuristic-RP mapping).
ClusterAssignment ordered_clustering(
    const std::vector<std::uint32_t>& ordering, std::size_t chunk);

}  // namespace bd::core
