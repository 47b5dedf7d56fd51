#include "ml/kdtree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace bd::ml {

void KdTree::build(std::vector<double> points, std::size_t count,
                   std::size_t dim) {
  BD_CHECK(dim > 0);
  BD_CHECK_MSG(points.size() == count * dim, "points size mismatch");
  count_ = count;
  dim_ = dim;
  points_ = std::move(points);
  nodes_.clear();
  nodes_.reserve(count);
  root_ = -1;
  if (count == 0) return;
  std::vector<std::uint32_t> indices(count);
  std::iota(indices.begin(), indices.end(), 0u);
  root_ = build_recursive(indices, 0);
}

std::int32_t KdTree::build_recursive(std::span<std::uint32_t> indices,
                                     int depth) {
  if (indices.empty()) return -1;
  const auto axis = static_cast<std::uint32_t>(depth % static_cast<int>(dim_));
  const std::size_t mid = indices.size() / 2;
  std::nth_element(indices.begin(), indices.begin() + mid, indices.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const double va = point(a)[axis];
                     const double vb = point(b)[axis];
                     return va < vb || (va == vb && a < b);
                   });
  const std::uint32_t median = indices[mid];
  Node node;
  node.axis = axis;
  node.point = median;
  node.split = point(median)[axis];
  const auto self = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);
  const std::int32_t left = build_recursive(indices.subspan(0, mid), depth + 1);
  const std::int32_t right =
      build_recursive(indices.subspan(mid + 1), depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

namespace {
// Max-heap ordering on squared distance; ties broken toward larger index so
// smaller indices are kept.
bool heap_less(const Neighbor& a, const Neighbor& b) {
  if (a.squared_dist != b.squared_dist) {
    return a.squared_dist < b.squared_dist;
  }
  return a.index < b.index;
}

/// Lower bound on the squared distance from the query to any point of a
/// cell: the per-axis offsets summed in axis order, like the point
/// distance in search(). Each offset is a rounded |q - split| that is no
/// larger than the rounded |q - v| of any point v in the cell, and rounded
/// addition is monotone, so the bound never exceeds a computed distance.
double box_distance(std::span<const double> offsets) {
  double acc = 0.0;
  for (const double o : offsets) acc += o * o;
  return acc;
}
}  // namespace

void KdTree::search(std::int32_t node_id, const double* q, std::size_t k,
                    Scratch& scratch) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  ++scratch.nodes_visited;
  const double* p = point(node.point);
  double d2 = 0.0;
  for (std::size_t c = 0; c < dim_; ++c) {
    const double d = p[c] - q[c];
    d2 += d * d;
  }
  const Neighbor candidate{node.point, d2};
  std::vector<Neighbor>& heap = scratch.heap;
  if (heap.size() < k) {
    heap.push_back(candidate);
    std::push_heap(heap.begin(), heap.end(), heap_less);
  } else if (heap_less(candidate, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    heap.back() = candidate;
    std::push_heap(heap.begin(), heap.end(), heap_less);
  }

  // Left subtree points have coordinate <= split on this axis, right ones
  // >= split, so the far cell lies at least |delta| away along the axis.
  const double delta = q[node.axis] - node.split;
  const std::int32_t near = delta <= 0.0 ? node.left : node.right;
  const std::int32_t far = delta <= 0.0 ? node.right : node.left;
  if (near >= 0) search(near, q, k, scratch);
  if (far < 0) return;
  double& offset = scratch.offsets[node.axis];
  const double saved = offset;
  offset = std::max(saved, std::abs(delta));
  // Inclusive: a far point at exactly the k-th distance may still win its
  // tie on index.
  if (heap.size() < k ||
      box_distance(scratch.offsets) <= heap.front().squared_dist) {
    search(far, q, k, scratch);
  }
  offset = saved;
}

void KdTree::query_into(std::span<const double> query, std::size_t k,
                        Scratch& scratch) const {
  BD_CHECK_MSG(!empty(), "query on an empty kd-tree");
  BD_CHECK(query.size() == dim_);
  k = std::min(k, count_);
  BD_CHECK_MSG(k > 0, "k must be positive");
  scratch.heap.clear();
  scratch.offsets.assign(dim_, 0.0);
  scratch.nodes_visited = 0;
  search(root_, query.data(), k, scratch);
  std::sort_heap(scratch.heap.begin(), scratch.heap.end(), heap_less);
}

std::vector<Neighbor> KdTree::query(std::span<const double> query,
                                    std::size_t k) const {
  Scratch scratch;
  query_into(query, k, scratch);
  return std::move(scratch.heap);
}

}  // namespace bd::ml
