/// Tests for the kd-tree, including bitwise cross-validation against the
/// brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ml/kdtree.hpp"
#include "oracles/knn_brute.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bd::ml {
namespace {

TEST(KdTree, SinglePoint) {
  const std::vector<double> pts{1.0, 2.0};
  KdTree tree;
  tree.build(pts, 1, 2);
  const auto nn = tree.query(std::vector<double>{0.0, 0.0}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].index, 0u);
  EXPECT_DOUBLE_EQ(nn[0].squared_dist, 5.0);
}

TEST(KdTree, ExactNearestOnGrid) {
  std::vector<double> pts;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      pts.push_back(x);
      pts.push_back(y);
    }
  }
  KdTree tree;
  tree.build(pts, 25, 2);
  const auto nn = tree.query(std::vector<double>{2.2, 3.1}, 1);
  EXPECT_EQ(nn[0].index, 17u);  // (2,3)
}

TEST(KdTree, KClampedToCount) {
  const std::vector<double> pts{0.0, 1.0, 2.0};
  KdTree tree;
  tree.build(pts, 3, 1);
  const auto nn = tree.query(std::vector<double>{0.5}, 10);
  EXPECT_EQ(nn.size(), 3u);
}

TEST(KdTree, ResultsSortedAscending) {
  util::Rng rng(3);
  std::vector<double> pts(200);
  for (double& v : pts) v = rng.uniform(-1, 1);
  KdTree tree;
  tree.build(pts, 100, 2);
  const auto nn = tree.query(std::vector<double>{0.0, 0.0}, 10);
  for (std::size_t i = 1; i < nn.size(); ++i) {
    EXPECT_GE(nn[i].squared_dist, nn[i - 1].squared_dist);
  }
}

TEST(KdTree, EmptyQueryThrows) {
  KdTree tree;
  EXPECT_THROW(tree.query(std::vector<double>{0.0}, 1), bd::CheckError);
}

TEST(KdTree, BuildValidatesSizes) {
  KdTree tree;
  EXPECT_THROW(tree.build(std::vector<double>{1.0, 2.0, 3.0}, 2, 2),
               bd::CheckError);
}

TEST(KdTree, DuplicatePointsAllFound) {
  const std::vector<double> pts{1.0, 1.0, 1.0, 2.0};
  KdTree tree;
  tree.build(pts, 4, 1);
  const auto nn = tree.query(std::vector<double>{1.0}, 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_DOUBLE_EQ(nn[0].squared_dist, 0.0);
  EXPECT_DOUBLE_EQ(nn[1].squared_dist, 0.0);
  EXPECT_DOUBLE_EQ(nn[2].squared_dist, 0.0);
}

// Property: kd-tree matches brute force on random point sets, bit for bit.
class KdTreeRandom : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(KdTreeRandom, MatchesBruteForce) {
  const auto [count, dim, k] = GetParam();
  util::Rng rng(1000 + count * 7 + dim);
  std::vector<double> pts(static_cast<std::size_t>(count) * dim);
  for (double& v : pts) v = rng.uniform(-10, 10);
  KdTree tree;
  tree.build(pts, static_cast<std::size_t>(count), static_cast<std::size_t>(dim));
  for (int q = 0; q < 20; ++q) {
    std::vector<double> query(static_cast<std::size_t>(dim));
    for (double& v : query) v = rng.uniform(-12, 12);
    const auto fast = tree.query(query, static_cast<std::size_t>(k));
    const auto slow = oracle::brute_force_neighbors(
        pts, static_cast<std::size_t>(count), static_cast<std::size_t>(dim),
        query, static_cast<std::size_t>(k));
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].index, slow[i].index)
          << "query " << q << " neighbor " << i;
      EXPECT_EQ(fast[i].squared_dist, slow[i].squared_dist)
          << "query " << q << " neighbor " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, KdTreeRandom,
    ::testing::Values(std::make_tuple(50, 2, 1), std::make_tuple(50, 2, 5),
                      std::make_tuple(200, 3, 4), std::make_tuple(500, 2, 8),
                      std::make_tuple(100, 5, 3)));

}  // namespace
}  // namespace bd::ml
