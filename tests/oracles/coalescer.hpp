#pragma once
/// \file coalescer.hpp
/// Reference warp memory coalescer (test oracle): converts the per-lane
/// addresses of one warp-level load instruction into the set of cache-line
/// transactions the hardware would issue, exactly as the CUDA profiler's
/// gld_efficiency metric models. simt::WarpRecorder computes the same
/// transactions incrementally; tests compare the two.

#include <cstdint>
#include <vector>

namespace bd::simt::oracle {

/// One lane's contribution to a warp load.
struct LaneAccess {
  std::uint64_t addr;
  std::uint32_t bytes;
};

/// Result of coalescing one warp-level load.
struct CoalesceResult {
  std::vector<std::uint64_t> line_addrs;  ///< unique line base addresses
  std::uint64_t bytes_requested = 0;      ///< sum of lane request widths
  std::uint64_t bytes_transferred = 0;    ///< lines * line_bytes
};

/// Coalesce the accesses of the active lanes of one warp instruction into
/// unique `line_bytes`-sized transactions. Accesses that straddle a line
/// boundary touch multiple lines (each counted once per warp instruction).
CoalesceResult coalesce(const std::vector<LaneAccess>& accesses,
                        std::uint32_t line_bytes);

}  // namespace bd::simt::oracle
