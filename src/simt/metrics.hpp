#pragma once
/// \file metrics.hpp
/// KernelMetrics — the profiler-style aggregate counters the paper reports
/// (Table I, Fig. 4): warp execution efficiency, global load efficiency,
/// L1 hit rate, DRAM traffic, arithmetic intensity and GFlop/s.

#include <cstdint>

#include "simt/cache.hpp"

namespace bd::simt {

/// Raw counters accumulated by the executor, plus derived metrics.
struct KernelMetrics {
  // --- raw counters -------------------------------------------------------
  std::uint64_t flops = 0;              ///< useful double-precision flops
  std::uint64_t warp_instructions = 0;  ///< issued warp-level instructions
  std::uint64_t active_lane_slots = 0;  ///< sum of active lanes over issues
  std::uint64_t lane_slots = 0;         ///< warp_instructions * warp_size
  std::uint64_t branch_events = 0;      ///< warp-level branch instructions
  std::uint64_t divergent_branches = 0; ///< branches with mixed outcomes
  std::uint64_t load_instructions = 0;  ///< warp-level load instructions
  std::uint64_t bytes_requested = 0;    ///< lane-requested load bytes
  std::uint64_t bytes_transferred = 0;  ///< line transactions * line size
  std::uint64_t l1_transactions = 0;    ///< L1 line accesses
  CacheStats l1;                        ///< per-SM L1, merged over SMs
  CacheStats l2;                        ///< shared L2
  std::uint64_t dram_bytes = 0;         ///< L2 miss traffic to DRAM

  std::uint32_t warp_size = 32;

  // --- timing filled in by the time model / host timers -------------------
  double modeled_seconds = 0.0;         ///< modeled GPU kernel time

  // --- derived metrics -----------------------------------------------------

  /// Ratio of average active threads per warp to the warp size
  /// (profiler: warp_execution_efficiency). 1.0 = no divergence.
  double warp_execution_efficiency() const;

  /// Requested bytes / transferred bytes (profiler: gld_efficiency).
  /// Can exceed 1.0 when lanes of a warp request overlapping words.
  double global_load_efficiency() const;

  /// L1 hit rate for global loads.
  double l1_hit_rate() const { return l1.hit_rate(); }

  /// L2 hit rate.
  double l2_hit_rate() const { return l2.hit_rate(); }

  /// Fraction of branch instructions that diverged.
  double branch_divergence_rate() const;

  /// Flops per DRAM byte accessed.
  double arithmetic_intensity() const;

  /// Achieved GFlop/s given modeled_seconds (0 if no timing yet).
  double gflops() const;

  /// Merge counters from another launch/warp (timings are summed).
  KernelMetrics& operator+=(const KernelMetrics& other);
};

}  // namespace bd::simt
