#pragma once
/// \file partition_oracle.hpp
/// Reference partition algebra and COMPUTE-PARTITION transforms (test
/// oracle). These are the straightforward vector-returning forms of
/// §III-C2: count, clip, build and refine partitions one step at a time.
/// Production runs the allocation-free quad::merge_partitions_into and the
/// core::pattern_to_partition_*_into transforms, which must match these bit
/// for bit.

#include <cstdint>
#include <span>
#include <vector>

#include "core/forecast.hpp"

namespace bd::quad::oracle {

/// Sorted-unique merge of two sorted breakpoint lists (MERGE-LISTS).
/// Values closer than `eps` are duplicates.
std::vector<double> merge_partitions(const std::vector<double>& a,
                                     const std::vector<double>& b,
                                     double eps = 1e-12);

/// Count partition intervals per subregion: subregion j covers
/// [j·sub_width, (j+1)·sub_width). An interval is attributed to the
/// subregion containing its midpoint; overhang goes to the last one.
std::vector<std::uint32_t> count_per_subregion(
    const std::vector<double>& breakpoints, double sub_width,
    std::uint32_t num_subregions);

/// Uniform partitioning (method 1): subregion j is divided into counts[j]
/// equal intervals (0 counts as 1), clipped to [0, r_max].
std::vector<double> partition_from_counts(
    const std::vector<std::uint32_t>& counts, double sub_width, double r_max);

/// Adaptive partitioning (method 2): each interval of `previous` in
/// subregion j is subdivided into ceil(counts[j] / d_j) equal pieces, d_j
/// being the number of previous intervals in that subregion. Falls back to
/// partition_from_counts without a previous partition.
std::vector<double> refine_partition(const std::vector<double>& previous,
                                     const std::vector<std::uint32_t>& counts,
                                     double sub_width, double r_max);

/// Restrict a partition to [lo, hi], inserting the endpoints. Empty when
/// the partition does not overlap the window.
std::vector<double> clip_partition(const std::vector<double>& breakpoints,
                                   double lo, double hi);

}  // namespace bd::quad::oracle

namespace bd::core::oracle {

/// Uniform transform: subregion j gets round_pow2(headroom · pattern[j])
/// equal intervals.
std::vector<double> pattern_to_partition(std::span<const double> pattern,
                                         double sub_width, double r_max,
                                         double headroom = kPartitionHeadroom);

/// Adaptive transform: refine `previous` to the rounded predicted counts;
/// uniform transform when there is no previous partition.
std::vector<double> pattern_to_partition_adaptive(
    std::span<const double> pattern, const std::vector<double>& previous,
    double sub_width, double r_max, double headroom = kPartitionHeadroom);

}  // namespace bd::core::oracle
