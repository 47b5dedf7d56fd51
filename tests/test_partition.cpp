/// Tests for the partition algebra (MERGE-LISTS and the §III-C2
/// pattern↔partition transforms' building blocks). Behaviour tests run the
/// production functions; the counting and clipping checkers are the
/// reference ones from tests/oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/forecast.hpp"
#include "oracles/partition_oracle.hpp"
#include "quad/partition.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bd::quad {
namespace {

using bd::testing::adaptive_partition;
using bd::testing::merged_partition;
using bd::testing::uniform_partition;
using oracle::clip_partition;
using oracle::count_per_subregion;

/// Pattern whose rounded counts (headroom 1) are exactly `counts`, for
/// power-of-two counts; 0 still means one interval.
std::vector<double> as_pattern(const std::vector<std::uint32_t>& counts) {
  return std::vector<double>(counts.begin(), counts.end());
}

TEST(Partition, MergeSortedUnique) {
  const std::vector<double> a{0.0, 1.0, 2.0};
  const std::vector<double> b{0.5, 1.0, 3.0};
  const std::vector<double> m = merged_partition(a, b);
  EXPECT_EQ(m, (std::vector<double>{0.0, 0.5, 1.0, 2.0, 3.0}));
}

TEST(Partition, MergeWithEmpty) {
  const std::vector<double> a{0.0, 1.0};
  EXPECT_EQ(merged_partition(a, {}), a);
  EXPECT_EQ(merged_partition({}, a), a);
}

TEST(Partition, MergeEpsilonDeduplicates) {
  const std::vector<double> a{0.0, 1.0};
  const std::vector<double> b{1.0 + 1e-15};
  const std::vector<double> m = merged_partition(a, b, 1e-12);
  EXPECT_EQ(m.size(), 2u);
}

TEST(Partition, MergeOfDyadicPartitionsNests) {
  // Dyadic partitions of the same interval: the union equals the finer
  // one — the property the pow2-rounding of COMPUTE-PARTITION exploits.
  std::vector<double> coarse, fine;
  for (int i = 0; i <= 4; ++i) coarse.push_back(i / 4.0);
  for (int i = 0; i <= 8; ++i) fine.push_back(i / 8.0);
  const std::vector<double> m = merged_partition(coarse, fine);
  EXPECT_EQ(m, fine);
}

TEST(Partition, CountPerSubregionAttributesByMidpoint) {
  // Subregions of width 1: [0,1), [1,2), [2,3).
  const std::vector<double> breaks{0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 3.0};
  const auto counts = count_per_subregion(breaks, 1.0, 3);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{3, 1, 2}));
}

TEST(Partition, CountPerSubregionClampsOverhang) {
  const std::vector<double> breaks{0.0, 5.0};
  const auto counts = count_per_subregion(breaks, 1.0, 2);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Partition, CountHandlesDegenerateInputs) {
  EXPECT_EQ(count_per_subregion({}, 1.0, 3),
            (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(count_per_subregion({0.5}, 1.0, 2),
            (std::vector<std::uint32_t>{0, 0}));
}

TEST(Partition, FromCountsProducesRequestedStructure) {
  const std::vector<std::uint32_t> counts{2, 1, 4};
  const std::vector<double> breaks =
      uniform_partition(as_pattern(counts), 1.0, 3.0, 1.0);
  EXPECT_TRUE(is_valid_partition(breaks));
  EXPECT_DOUBLE_EQ(breaks.front(), 0.0);
  EXPECT_DOUBLE_EQ(breaks.back(), 3.0);
  EXPECT_EQ(count_per_subregion(breaks, 1.0, 3),
            (std::vector<std::uint32_t>{2, 1, 4}));
}

TEST(Partition, FromCountsClipsAtRmax) {
  const std::vector<std::uint32_t> counts{2, 2, 2, 2};
  const std::vector<double> breaks =
      uniform_partition(as_pattern(counts), 1.0, 2.5, 1.0);
  EXPECT_DOUBLE_EQ(breaks.back(), 2.5);
  EXPECT_TRUE(is_valid_partition(breaks));
}

TEST(Partition, FromCountsZeroBecomesOne) {
  const std::vector<std::uint32_t> counts{0, 0};
  const std::vector<double> breaks =
      uniform_partition(as_pattern(counts), 1.0, 2.0, 1.0);
  EXPECT_EQ(breaks, (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(Partition, RefineSubdividesPreviousIntervals) {
  // Previous: one interval per unit subregion; target 2 and 4.
  const std::vector<double> previous{0.0, 1.0, 2.0};
  const std::vector<std::uint32_t> counts{2, 4};
  const std::vector<double> refined =
      adaptive_partition(as_pattern(counts), previous, 1.0, 2.0, 1.0);
  EXPECT_TRUE(is_valid_partition(refined));
  const auto c = count_per_subregion(refined, 1.0, 2);
  EXPECT_GE(c[0], 2u);
  EXPECT_GE(c[1], 4u);
}

TEST(Partition, RefineFallsBackWithoutPrevious) {
  const std::vector<std::uint32_t> counts{2, 2};
  const std::vector<double> refined =
      adaptive_partition(as_pattern(counts), {}, 1.0, 2.0, 1.0);
  EXPECT_EQ(refined, uniform_partition(as_pattern(counts), 1.0, 2.0, 1.0));
}

TEST(Partition, ClipInsertsEndpoints) {
  const std::vector<double> breaks{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> clipped = clip_partition(breaks, 0.5, 2.5);
  EXPECT_EQ(clipped, (std::vector<double>{0.5, 1.0, 2.0, 2.5}));
}

TEST(Partition, ClipNonOverlappingIsEmpty) {
  const std::vector<double> breaks{0.0, 1.0};
  EXPECT_TRUE(clip_partition(breaks, 2.0, 3.0).empty());
  EXPECT_TRUE(clip_partition({}, 0.0, 1.0).empty());
}

TEST(Partition, IsValidPartitionChecksOrdering) {
  const auto valid = [](std::initializer_list<double> breaks) {
    return is_valid_partition(std::vector<double>(breaks));
  };
  EXPECT_TRUE(valid({0.0, 1.0}));
  EXPECT_FALSE(valid({0.0}));
  EXPECT_FALSE(valid({0.0, 0.0}));
  EXPECT_FALSE(valid({1.0, 0.0}));
}

// MERGE-LISTS against the reference std::merge + dedup: random sorted
// lists with shared values, values within and just beyond eps of each
// other, and empty sides, bit for bit.
TEST(PartitionOracle, MergeIntoMatchesReference) {
  util::Rng rng(2024);
  const double eps = 1e-12;
  std::vector<double> out;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> a, b;
    const auto na = static_cast<std::size_t>(rng.uniform(0.0, 12.0));
    const auto nb = static_cast<std::size_t>(rng.uniform(0.0, 12.0));
    for (std::size_t i = 0; i < na; ++i) a.push_back(rng.uniform(0.0, 4.0));
    std::sort(a.begin(), a.end());
    for (std::size_t i = 0; i < nb; ++i) {
      const double pick = rng.uniform();
      if (!a.empty() && pick < 0.5) {
        // Reuse a value of `a`: exactly, or nudged by about eps.
        const double base = a[static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(a.size())))];
        const double nudge = pick < 0.2   ? 0.0
                             : pick < 0.3 ? 0.5 * eps
                             : pick < 0.4 ? -0.5 * eps
                                          : 2.0 * eps;
        b.push_back(base + nudge);
      } else {
        b.push_back(rng.uniform(0.0, 4.0));
      }
    }
    std::sort(b.begin(), b.end());
    const std::vector<double> expected = oracle::merge_partitions(a, b, eps);
    merge_partitions_into(a, b, out, eps);
    ASSERT_EQ(out, expected) << "trial " << trial;
    ASSERT_LE(out.size(), a.size() + b.size());
  }
}

// Property: for any power-of-two counts, the generated partition is valid
// and reproduces the counts (when not clipped), also at a non-dyadic
// subregion width.
class CountsRoundTrip
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(CountsRoundTrip, RoundTrips) {
  const auto counts = GetParam();
  const double sub_width = 0.7;
  const double r_max = sub_width * static_cast<double>(counts.size());
  const std::vector<double> pattern = as_pattern(counts);
  const std::vector<double> breaks =
      uniform_partition(pattern, sub_width, r_max, 1.0);
  EXPECT_TRUE(is_valid_partition(breaks));
  EXPECT_EQ(breaks.back(), r_max);
  const auto round_trip = count_per_subregion(
      breaks, sub_width, static_cast<std::uint32_t>(counts.size()));
  for (std::size_t j = 0; j < counts.size(); ++j) {
    EXPECT_EQ(round_trip[j], core::round_pow2(pattern[j])) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CountsRoundTrip,
    ::testing::Values(std::vector<std::uint32_t>{1},
                      std::vector<std::uint32_t>{4, 2, 1},
                      std::vector<std::uint32_t>{8, 8, 8, 8},
                      std::vector<std::uint32_t>{1, 16, 2, 32, 4},
                      std::vector<std::uint32_t>{0, 3, 0, 7}));

}  // namespace
}  // namespace bd::quad
