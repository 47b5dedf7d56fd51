#include "oracles/partition_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/check.hpp"

namespace bd::quad::oracle {

std::vector<double> merge_partitions(const std::vector<double>& a,
                                     const std::vector<double>& b,
                                     double eps) {
  std::vector<double> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged));
  std::vector<double> unique;
  unique.reserve(merged.size());
  for (double x : merged) {
    if (unique.empty() || x - unique.back() > eps) {
      unique.push_back(x);
    }
  }
  return unique;
}

std::vector<std::uint32_t> count_per_subregion(
    const std::vector<double>& breakpoints, double sub_width,
    std::uint32_t num_subregions) {
  BD_CHECK(sub_width > 0.0);
  std::vector<std::uint32_t> counts(num_subregions, 0);
  if (breakpoints.size() < 2 || num_subregions == 0) return counts;
  for (std::size_t i = 0; i + 1 < breakpoints.size(); ++i) {
    const double mid = 0.5 * (breakpoints[i] + breakpoints[i + 1]);
    auto j = static_cast<std::int64_t>(std::floor(mid / sub_width));
    j = std::clamp<std::int64_t>(j, 0, num_subregions - 1);
    ++counts[static_cast<std::size_t>(j)];
  }
  return counts;
}

std::vector<double> partition_from_counts(
    const std::vector<std::uint32_t>& counts, double sub_width, double r_max) {
  BD_CHECK(sub_width > 0.0 && r_max > 0.0);
  std::vector<double> breaks;
  breaks.push_back(0.0);
  for (std::size_t j = 0; j < counts.size(); ++j) {
    const double lo = static_cast<double>(j) * sub_width;
    if (lo >= r_max) break;
    const double hi =
        std::min(static_cast<double>(j + 1) * sub_width, r_max);
    const std::uint32_t n = std::max<std::uint32_t>(1, counts[j]);
    for (std::uint32_t i = 1; i <= n; ++i) {
      const double x = lo + (hi - lo) * static_cast<double>(i) / n;
      if (x > breaks.back()) breaks.push_back(x);
    }
    if (hi >= r_max) break;
  }
  if (breaks.back() < r_max) breaks.push_back(r_max);
  return breaks;
}

std::vector<double> refine_partition(const std::vector<double>& previous,
                                     const std::vector<std::uint32_t>& counts,
                                     double sub_width, double r_max) {
  BD_CHECK(sub_width > 0.0 && r_max > 0.0);
  if (previous.size() < 2) {
    return partition_from_counts(counts, sub_width, r_max);
  }
  const std::vector<std::uint32_t> prev_counts = count_per_subregion(
      previous, sub_width, static_cast<std::uint32_t>(counts.size()));

  std::vector<double> breaks;
  breaks.push_back(0.0);
  // Walk previous intervals clipped to [0, r_max]; subdivide each according
  // to the ratio of the target count to the previous count in its subregion.
  const std::vector<double> prev = clip_partition(previous, 0.0, r_max);
  for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
    const double lo = prev[i];
    const double hi = prev[i + 1];
    const double mid = 0.5 * (lo + hi);
    auto j = static_cast<std::int64_t>(std::floor(mid / sub_width));
    j = std::clamp<std::int64_t>(j, 0,
                                 static_cast<std::int64_t>(counts.size()) - 1);
    const std::uint32_t target =
        std::max<std::uint32_t>(1, counts[static_cast<std::size_t>(j)]);
    const std::uint32_t have =
        std::max<std::uint32_t>(1, prev_counts[static_cast<std::size_t>(j)]);
    const std::uint32_t pieces =
        std::max<std::uint32_t>(1, (target + have - 1) / have);
    for (std::uint32_t s = 1; s <= pieces; ++s) {
      const double x = lo + (hi - lo) * static_cast<double>(s) / pieces;
      if (x > breaks.back()) breaks.push_back(x);
    }
  }
  if (breaks.back() < r_max) breaks.push_back(r_max);
  return breaks;
}

std::vector<double> clip_partition(const std::vector<double>& breakpoints,
                                   double lo, double hi) {
  BD_CHECK(lo <= hi);
  std::vector<double> out;
  if (breakpoints.empty() || breakpoints.front() >= hi ||
      breakpoints.back() <= lo) {
    return out;
  }
  out.push_back(lo);
  for (double x : breakpoints) {
    if (x > lo && x < hi) out.push_back(x);
  }
  if (hi > out.back()) out.push_back(hi);
  return out;
}

}  // namespace bd::quad::oracle

namespace bd::core::oracle {

namespace {
std::vector<std::uint32_t> rounded_counts(std::span<const double> pattern,
                                          double headroom) {
  std::vector<std::uint32_t> counts;
  counts.reserve(pattern.size());
  for (double n : pattern) counts.push_back(round_pow2(headroom * n));
  return counts;
}
}  // namespace

std::vector<double> pattern_to_partition(std::span<const double> pattern,
                                         double sub_width, double r_max,
                                         double headroom) {
  BD_CHECK(sub_width > 0.0 && r_max > 0.0 && headroom > 0.0);
  return quad::oracle::partition_from_counts(
      rounded_counts(pattern, headroom), sub_width, r_max);
}

std::vector<double> pattern_to_partition_adaptive(
    std::span<const double> pattern, const std::vector<double>& previous,
    double sub_width, double r_max, double headroom) {
  if (previous.size() < 2) {
    return pattern_to_partition(pattern, sub_width, r_max, headroom);
  }
  return quad::oracle::refine_partition(
      previous, rounded_counts(pattern, headroom), sub_width, r_max);
}

}  // namespace bd::core::oracle
