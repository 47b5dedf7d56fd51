#pragma once
/// \file kdtree.hpp
/// kd-tree for exact k-nearest-neighbor queries in low dimension (the
/// predictor's feature space is 2–3 dimensional grid coordinates).

#include <cstdint>
#include <span>
#include <vector>

namespace bd::ml {

/// One neighbor result.
struct Neighbor {
  std::size_t index;      ///< index into the point set the tree was built on
  double squared_dist;
};

/// Static kd-tree built once over a point set; supports k-NN queries.
///
/// Results are exact and deterministic: the k nearest points under the
/// total order (squared distance, index), i.e. exactly what a brute-force
/// scan with index tie-breaking returns, bit for bit.
class KdTree {
 public:
  /// Per-thread query buffers. A query through query_into allocates
  /// nothing once these have grown to k + 1 neighbors and `dim` offsets.
  struct Scratch {
    std::vector<Neighbor> heap;    ///< result, sorted ascending
    std::vector<double> offsets;   ///< per-axis query-to-cell offsets
    std::uint64_t nodes_visited = 0;  ///< nodes the last query examined
  };

  KdTree() = default;

  /// Build from `count` points of dimension `dim` stored row-major in
  /// `points`. The tree owns the point storage (pass an rvalue to avoid
  /// the copy).
  void build(std::vector<double> points, std::size_t count, std::size_t dim);

  /// The k nearest neighbors of `query` (ties broken by index order),
  /// sorted by ascending distance. k is clamped to the point count.
  std::vector<Neighbor> query(std::span<const double> query,
                              std::size_t k) const;

  /// Allocation-free form of query(): the result lands in scratch.heap.
  void query_into(std::span<const double> query, std::size_t k,
                  Scratch& scratch) const;

  std::size_t size() const { return count_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return count_ == 0; }

 private:
  struct Node {
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint32_t axis = 0;
    std::uint32_t point = 0;  ///< index into points_
    double split = 0.0;
  };

  std::int32_t build_recursive(std::span<std::uint32_t> indices, int depth);
  void search(std::int32_t node, const double* q, std::size_t k,
              Scratch& scratch) const;

  const double* point(std::uint32_t i) const {
    return points_.data() + static_cast<std::size_t>(i) * dim_;
  }

  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> points_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace bd::ml
