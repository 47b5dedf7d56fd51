#pragma once
/// \file partition.hpp
/// Partition algebra for the outer dimension of the rp-integral.
///
/// A partition is a sorted list of breakpoints r_0 < r_1 < ... < r_n over
/// an integration region. The paper represents each grid point's data
/// access pattern by the number of partition intervals n_j that fall inside
/// each radial subregion S_j = [j·w, (j+1)·w] (w = cΔt), and reconstructs
/// partitions from (predicted) patterns with the transforms of §III-C2
/// (core/forecast.hpp).

#include <span>
#include <vector>

namespace bd::quad {

/// MERGE-LISTS: writes the sorted-unique merge of the sorted breakpoint
/// lists `a` and `b` into `out` (cleared first, capacity reused). Values
/// within `eps` of the last kept value are duplicates; on a tie the value
/// from `a` comes first. `out` must not alias the inputs.
void merge_partitions_into(std::span<const double> a,
                           std::span<const double> b,
                           std::vector<double>& out, double eps = 1e-12);

/// True if breakpoints are strictly increasing.
bool is_valid_partition(std::span<const double> breakpoints);

}  // namespace bd::quad
