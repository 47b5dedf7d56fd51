#pragma once
/// \file forecast.hpp
/// COMPUTE-PARTITION (paper §III-C2): transform a (predicted) access
/// pattern into an rp-integral partition. Counts are rounded up to powers
/// of two so partitions of similar patterns share breakpoints — unions of
/// dyadic partitions nest, which keeps the per-warp merged partition
/// (MERGE-LISTS over the warp's members) close to the finest member
/// instead of blowing up.

#include <cstdint>
#include <span>

namespace bd::quad {
class PartitionSet;
}  // namespace bd::quad

namespace bd::core {

struct RpProblem;
struct SolverScratch;

/// Partition transform selector (§III-C2).
enum class PartitionTransform {
  kUniform,   ///< method 1: n_j equal (dyadic) pieces per subregion
  kAdaptive,  ///< method 2: refine the previous step's partition
};

/// Round to the *nearest* power of two in log space (0 -> 1). Nearest —
/// not ceiling — so kNN-averaged counts between two dyadic levels do not
/// systematically escalate to the higher level (which would ratchet the
/// partitions finer every step).
std::uint32_t round_pow2(double count);

/// Provisioning headroom applied to predicted counts before rounding —
/// biases toward the next dyadic level so marginal predictions do not fall
/// through to the (divergent) adaptive fallback every step.
inline constexpr double kPartitionHeadroom = 1.3;

// The *_bound functions return a breakpoint-count upper bound for one
// point, so a PartitionSet can lay out all rows in a single serial pass;
// the *_into functions then fill each row slot in parallel, allocation
// free. The reference vector-returning transforms they must match bit for
// bit live in tests/oracles/partition_oracle.hpp.

/// Breakpoint-count bound of the uniform transform.
std::size_t pattern_to_partition_bound(std::span<const double> pattern,
                                       double headroom = kPartitionHeadroom);

/// Uniform transform (method 1): subregion j = [j·w, (j+1)·w] is cut into
/// round_pow2(headroom · pattern[j]) equal intervals (at least one).
/// Writes breakpoints over [0, r_max] into a caller-provided slot (>= the
/// bound) and returns how many were written.
std::size_t pattern_to_partition_into(std::span<const double> pattern,
                                      double sub_width, double r_max,
                                      std::span<double> out,
                                      double headroom = kPartitionHeadroom);

/// Breakpoint-count bound of the adaptive transform.
std::size_t pattern_to_partition_adaptive_bound(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max, double headroom = kPartitionHeadroom);

/// Adaptive transform (method 2): every interval of `previous` in
/// subregion j is split into ceil(n_j / d_j) equal pieces, where n_j is the
/// rounded predicted count and d_j the number of previous intervals in S_j
/// (attributed by midpoint). `previous` must span [0, r_max], as every
/// solver-built partition does; with fewer than two breakpoints it falls
/// back to the uniform transform. Writes into a caller-provided slot (>=
/// the bound) and returns the number of breakpoints written.
std::size_t pattern_to_partition_adaptive_into(
    std::span<const double> pattern, std::span<const double> previous,
    double sub_width, double r_max, std::span<double> out,
    double headroom = kPartitionHeadroom);

/// The coarse first-level partition of Two-Phase-RP and of every solver's
/// bootstrap step: one interval per subregion (the uniform transform of an
/// all-ones pattern, no headroom), stored once in `set` and bound to all of
/// `problem`'s points. Staging uses `scratch`, so steady-state calls do not
/// allocate.
void bind_coarse_partition(const RpProblem& problem, SolverScratch& scratch,
                           quad::PartitionSet& set);

}  // namespace bd::core
