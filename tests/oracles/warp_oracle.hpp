#pragma once
/// \file warp_oracle.hpp
/// Reference SIMT model (test oracle). The warp analyzer is the hash-map
/// implementation that simt::WarpRecorder replaced: it groups recorded
/// lane events by (site, occurrence) in unordered_maps, sorts the load
/// groups by the position where their first lane issued them, and
/// coalesces each group with oracle::coalesce. reference_launch runs a
/// whole launch serially through it, a round-robin cursor scan over
/// nested line lists and naive LRU caches. Slow and allocation-heavy, but
/// written straight from the definitions, so simt::launch is checked
/// against it.

#include <cstdint>
#include <vector>

#include "oracles/lru_cache.hpp"
#include "simt/device.hpp"
#include "simt/executor.hpp"
#include "simt/metrics.hpp"
#include "simt/trace.hpp"

namespace bd::simt::oracle {

/// Coalesced line addresses per warp-level load instruction, in program
/// order.
using LineLists = std::vector<std::vector<std::uint64_t>>;

/// Analyze one warp of per-lane traces: adds divergence and coalescing
/// counters to `out` and returns the warp's replay lines.
LineLists analyze_warp_groups(const std::vector<const LaneTrace*>& traces,
                              const DeviceSpec& spec, KernelMetrics& out);

/// Replay warps through an L1, one instruction per warp per round in warp
/// order; L1 hits/misses go to `out`, miss lines to `l2_misses`.
void replay_round_robin_l1(const std::vector<LineLists>& warps,
                           LruCache& l1, KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses);

/// simt::launch, serially: every lane into a LaneTrace, every warp through
/// analyze_warp_groups, blocks round-robin over SMs with `resident`
/// consecutive blocks interleaving in the SM's L1, the L1 misses of SM 0,
/// 1, ... through one L2, then the time model.
KernelMetrics reference_launch(const DeviceSpec& spec,
                               const LaunchConfig& config,
                               const KernelFn& kernel);

}  // namespace bd::simt::oracle
