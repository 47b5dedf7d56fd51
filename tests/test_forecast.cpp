/// Tests for the COMPUTE-PARTITION transforms (§III-C2): behaviour of the
/// production transforms, and bitwise agreement with the reference
/// transforms in tests/oracles.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/forecast.hpp"
#include "oracles/partition_oracle.hpp"
#include "quad/partition.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bd::core {
namespace {

using bd::testing::adaptive_partition;
using bd::testing::merged_partition;
using bd::testing::uniform_partition;
using quad::oracle::count_per_subregion;

TEST(RoundPow2, NearestInLogSpace) {
  EXPECT_EQ(round_pow2(0.0), 1u);
  EXPECT_EQ(round_pow2(1.0), 1u);
  EXPECT_EQ(round_pow2(1.3), 1u);
  EXPECT_EQ(round_pow2(1.5), 2u);
  EXPECT_EQ(round_pow2(3.0), 4u);   // log2(3)=1.58 -> 2 -> 4
  EXPECT_EQ(round_pow2(5.0), 4u);   // log2(5)=2.32 -> 2 -> 4
  EXPECT_EQ(round_pow2(6.0), 8u);   // log2(6)=2.58 -> 3 -> 8
  EXPECT_EQ(round_pow2(16.0), 16u);
  EXPECT_EQ(round_pow2(100.0), 128u);
}

TEST(UniformTransform, ProducesDyadicCounts) {
  const std::vector<double> pattern{1.0, 3.0, 7.0};
  const std::vector<double> breaks =
      uniform_partition(pattern, 1.0, 3.0, /*headroom=*/1.0);
  EXPECT_TRUE(quad::is_valid_partition(breaks));
  const auto counts = count_per_subregion(breaks, 1.0, 3);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 4u);
  EXPECT_EQ(counts[2], 8u);
}

TEST(UniformTransform, HeadroomProvisionsUp) {
  const std::vector<double> pattern{3.0};
  // 1.5 × 3 = 4.5 -> nearest pow2 is 4; 1.5 × 6 = 9 -> 8.
  const auto a = uniform_partition(pattern, 1.0, 1.0, 1.5);
  EXPECT_EQ(count_per_subregion(a, 1.0, 1)[0], 4u);
  const auto b =
      uniform_partition(std::vector<double>{6.0}, 1.0, 1.0, 1.5);
  EXPECT_EQ(count_per_subregion(b, 1.0, 1)[0], 8u);
}

TEST(UniformTransform, ClipsAtRmax) {
  const std::vector<double> pattern{2.0, 2.0, 2.0, 2.0};
  const std::vector<double> breaks =
      uniform_partition(pattern, 1.0, 2.5, 1.0);
  EXPECT_DOUBLE_EQ(breaks.back(), 2.5);
  EXPECT_TRUE(quad::is_valid_partition(breaks));
}

TEST(UniformTransform, SimilarPatternsShareBreakpoints) {
  // The dyadic property: the finer partition contains the coarser one, so
  // MERGE-LISTS of cluster members stays tight.
  const auto coarse =
      uniform_partition(std::vector<double>{4.0}, 1.0, 1.0, 1.0);
  const auto fine =
      uniform_partition(std::vector<double>{8.0}, 1.0, 1.0, 1.0);
  const auto merged = merged_partition(coarse, fine);
  EXPECT_EQ(merged, fine);
}

TEST(AdaptiveTransform, RefinesPreviousPartition) {
  const std::vector<double> previous{0.0, 0.5, 1.0, 2.0};
  const std::vector<double> pattern{4.0, 2.0};
  const std::vector<double> refined =
      adaptive_partition(pattern, previous, 1.0, 2.0, /*headroom=*/1.0);
  EXPECT_TRUE(quad::is_valid_partition(refined));
  const auto counts = count_per_subregion(refined, 1.0, 2);
  EXPECT_GE(counts[0], 4u);
  EXPECT_GE(counts[1], 2u);
  // Previous breakpoints survive (refinement, not regeneration).
  bool has_half = false;
  for (double b : refined) has_half |= (b == 0.5);
  EXPECT_TRUE(has_half);
}

TEST(AdaptiveTransform, FallsBackWithoutPrevious) {
  const std::vector<double> pattern{2.0, 2.0};
  EXPECT_EQ(adaptive_partition(pattern, {}, 1.0, 2.0, 1.0),
            uniform_partition(pattern, 1.0, 2.0, 1.0));
}

// Property: for any pattern, the generated partition spans [0, r_max] and
// provisions at least the rounded predicted count per subregion.
class TransformSweep : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(TransformSweep, ProvisionsAtLeastPrediction) {
  const auto pattern = GetParam();
  const double r_max = static_cast<double>(pattern.size());
  const auto breaks = uniform_partition(pattern, 1.0, r_max, 1.0);
  EXPECT_TRUE(quad::is_valid_partition(breaks));
  EXPECT_DOUBLE_EQ(breaks.front(), 0.0);
  EXPECT_DOUBLE_EQ(breaks.back(), r_max);
  const auto counts = count_per_subregion(
      breaks, 1.0, static_cast<std::uint32_t>(pattern.size()));
  for (std::size_t j = 0; j < pattern.size(); ++j) {
    EXPECT_EQ(counts[j], round_pow2(pattern[j])) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, TransformSweep,
    ::testing::Values(std::vector<double>{1.0},
                      std::vector<double>{0.2, 1.7, 9.3},
                      std::vector<double>{32.0, 16.0, 8.0, 4.0},
                      std::vector<double>{0.0, 0.0, 64.0},
                      std::vector<double>{2.5, 2.5, 2.5, 2.5, 2.5}));

/// Smallest interval of a partition.
double min_width(const std::vector<double>& breaks) {
  double w = breaks.back() - breaks.front();
  for (std::size_t i = 0; i + 1 < breaks.size(); ++i) {
    w = std::min(w, breaks[i + 1] - breaks[i]);
  }
  return w;
}

std::vector<double> random_pattern(util::Rng& rng, std::size_t kappa) {
  std::vector<double> pattern(kappa);
  for (double& v : pattern) v = rng.uniform(0.0, 12.0);
  return pattern;
}

// The production transforms against the reference ones, bit for bit, on
// random patterns at non-dyadic subregion widths (where lo + w can round
// below (j+1)·w), with `previous` built the way the solver builds it: a
// uniform partition, half of the time MERGE-LISTS-merged with a second
// one. Also checks that every written length stays within its bound and
// that no transform emits a sliver interval.
TEST(ForecastOracle, TransformsMatchReferenceAtNonDyadicWidths) {
  util::Rng rng(16);
  std::size_t uniform_mismatch = 0, adaptive_mismatch = 0, slivers = 0;
  int first_uniform = -1, first_adaptive = -1;
  for (int trial = 0; trial < 20000; ++trial) {
    const auto kappa = static_cast<std::size_t>(rng.uniform(1.0, 15.0));
    const double w = rng.uniform(0.25, 2.25);
    const double r_max = w * static_cast<double>(kappa);
    const std::vector<double> pattern = random_pattern(rng, kappa);

    const std::vector<double> uniform =
        uniform_partition(pattern, w, r_max);
    ASSERT_LE(uniform.size(), pattern_to_partition_bound(pattern));
    if (uniform != oracle::pattern_to_partition(pattern, w, r_max)) {
      if (uniform_mismatch++ == 0) first_uniform = trial;
    }
    if (min_width(uniform) < 1e-9 * w) ++slivers;

    std::vector<double> previous =
        uniform_partition(random_pattern(rng, kappa), w, r_max);
    if (rng.uniform() < 0.5) {
      previous = merged_partition(
          previous, uniform_partition(random_pattern(rng, kappa), w, r_max));
    }
    const std::vector<double> adaptive =
        adaptive_partition(pattern, previous, w, r_max);
    ASSERT_LE(adaptive.size(), pattern_to_partition_adaptive_bound(
                                   pattern, previous, w, r_max));
    if (adaptive !=
        oracle::pattern_to_partition_adaptive(pattern, previous, w, r_max)) {
      if (adaptive_mismatch++ == 0) first_adaptive = trial;
    }
    if (min_width(adaptive) < 1e-9 * w) ++slivers;
  }
  EXPECT_EQ(uniform_mismatch, 0u) << "first at trial " << first_uniform;
  EXPECT_EQ(adaptive_mismatch, 0u) << "first at trial " << first_adaptive;
  EXPECT_EQ(slivers, 0u);
}

// Adaptive transform against the reference on previous partitions that
// are themselves adaptive outputs (the step-to-step chain of the
// adaptive solver), at the shipped unit width and at non-dyadic widths.
TEST(ForecastOracle, AdaptiveChainMatchesReference) {
  util::Rng rng(61);
  for (int chain = 0; chain < 400; ++chain) {
    const auto kappa = static_cast<std::size_t>(rng.uniform(1.0, 13.0));
    const double w = chain % 2 == 0 ? 1.0 : rng.uniform(0.25, 2.25);
    const double r_max = w * static_cast<double>(kappa);
    std::vector<double> previous;
    for (int step = 0; step < 6; ++step) {
      const std::vector<double> pattern = random_pattern(rng, kappa);
      const std::vector<double> next =
          adaptive_partition(pattern, previous, w, r_max);
      ASSERT_EQ(next, oracle::pattern_to_partition_adaptive(pattern, previous,
                                                            w, r_max))
          << "chain " << chain << " step " << step;
      ASSERT_TRUE(quad::is_valid_partition(next));
      previous = next;
    }
  }
}

}  // namespace
}  // namespace bd::core
