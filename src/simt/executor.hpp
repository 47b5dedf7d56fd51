#pragma once
/// \file executor.hpp
/// SIMT executor: runs a per-thread kernel function over a (blocks × threads)
/// launch grid on the host while modeling GPU execution. The lanes of each
/// warp are aligned into warp instructions as they run; warps are analyzed
/// for divergence and their memory traffic is replayed through per-SM L1
/// caches and the shared L2. Blocks are assigned to SMs round-robin,
/// matching the hardware's greedy block scheduler closely enough for
/// aggregate cache statistics.
///
/// Execution is a two-pass pipeline, each stage on the process thread pool
/// (util/parallel.hpp, BD_NUM_THREADS):
///
///  1. *Lane execution* (parallel over warps): one pool task runs one
///     warp. The worker hands its WarpRecorder (simt/warp.hpp) to the
///     warp's lanes in turn; the recorder groups every load, loop and
///     branch with the same (site, occurrence) of the warp's earlier lanes
///     as it arrives, so no per-lane trace is kept. At warp end it emits
///     the divergence and coalescing counters and the warp's coalesced
///     lines as a CSR stream in the warp's output. This is where all the
///     quadrature time goes; scheduling warps rather than blocks keeps the
///     pool busy when a launch has few or uneven blocks.
///  2. *Cache replay* (simt::ShardedReplay): each SM's warps replay through
///     its private L1, SMs in parallel (simt.l1_replay), bucketing every
///     L1 miss by the L2 set group it maps to; then the L2 merge replays
///     the buckets through fixed set-group shards of the shared L2, shards
///     in parallel, each walking SM 0, 1, ... in order (simt.l2_merge).
///     Every L2 set sees the access order of a serial SM-major replay, so
///     cache state and every KernelMetrics counter are independent of
///     scheduling and of BD_NUM_THREADS.
///
/// Lane-concurrency contract (what kernel bodies must obey, mirroring a
/// real GPU): the lanes of one warp run serially, in lane order, on a
/// single thread; lanes of *different warps* — of the same block or of
/// different blocks — may run concurrently. A kernel may therefore freely
/// mutate state indexed by warp_id / global_id, but writes to state shared
/// across warps (a per-block accumulator, or a per-point array that two
/// warps can touch) must be restructured as per-warp or per-item partials
/// reduced serially after launch() returns — see core/rp_kernels.cpp.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/probe.hpp"
#include "simt/timemodel.hpp"

namespace bd::simt {

/// Kernel launch geometry.
struct LaunchConfig {
  std::uint32_t num_blocks = 1;
  std::uint32_t threads_per_block = 32;

  /// Warps per block: threads_per_block rounded up to whole warps.
  std::uint32_t warps_per_block(std::uint32_t warp_size) const {
    return (threads_per_block + warp_size - 1) / warp_size;
  }
  /// Warps in the launch; ThreadCtx::warp_id runs over [0, num_warps).
  std::size_t num_warps(std::uint32_t warp_size) const {
    return static_cast<std::size_t>(num_blocks) * warps_per_block(warp_size);
  }
};

/// Identity of the executing thread, mirroring blockIdx/threadIdx.
struct ThreadCtx {
  std::uint32_t block_id = 0;
  std::uint32_t thread_id = 0;   ///< within the block
  std::uint32_t global_id = 0;   ///< block_id * threads_per_block + thread_id
  /// Launch-wide warp index: block_id * warps_per_block +
  /// thread_id / warp_size. Lanes with the same warp_id run serially.
  std::uint32_t warp_id = 0;
};

/// The kernel body: executed once per thread with its private probe.
using KernelFn = std::function<void(const ThreadCtx&, LaneProbe&)>;

/// Execute the kernel under the SIMT model and return profiler-style
/// metrics with the modeled kernel time already applied.
///
/// Deterministic: identical inputs produce identical metrics — bit for bit,
/// for any BD_NUM_THREADS — because divergence/coalescing counters are
/// integer sums over warps, per-SM L1 replay is self-contained per SM,
/// and each L2 set-group shard replays its sets' accesses in the fixed
/// SM-major order.
///
/// Observability: every launch emits a `simt.launch` trace span (geometry
/// plus the headline KernelMetrics as span args) with `simt.lane_pass`,
/// `simt.l1_replay` and `simt.l2_merge` child spans, and updates the
/// `simt.*` metrics — see docs/METRICS.md. Capture is observational only
/// and never perturbs the returned metrics
/// (tests/test_determinism.cpp).
KernelMetrics launch(const DeviceSpec& spec, const LaunchConfig& config,
                     const KernelFn& kernel);

}  // namespace bd::simt
