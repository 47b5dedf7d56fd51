#include "simt/executor.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "simt/warp.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/telemetry.hpp"

namespace bd::simt {

namespace {

/// Everything pass 1 produces for one warp: its divergence and coalescing
/// counters and the coalesced transaction stream pass 2 replays.
struct WarpOutput {
  KernelMetrics analysis;
  LineStreams streams;
};

/// The buffers of a thread's launches, reused from launch to launch so
/// they stop allocating after warm-up. launch() never runs nested on one
/// thread: kernel lanes do not launch kernels.
struct LaunchBuffers {
  std::vector<WarpOutput> warps;
  std::vector<SmWarps> sms;
  ShardedReplay replay;
};

}  // namespace

KernelMetrics launch(const DeviceSpec& spec, const LaunchConfig& config,
                     const KernelFn& kernel) {
  BD_CHECK_MSG(config.num_blocks > 0, "launch needs at least one block");
  BD_CHECK_MSG(config.threads_per_block > 0 &&
                   config.threads_per_block <= spec.max_threads_per_block,
               "threads per block out of range");
  BD_CHECK(kernel != nullptr);
  const std::uint32_t warps_per_block = config.warps_per_block(spec.warp_size);
  const std::size_t num_warps = config.num_warps(spec.warp_size);
  BD_CHECK_MSG(num_warps <= std::numeric_limits<std::uint32_t>::max(),
               "launch exceeds 2^32 warps");

  // Purely observational: spans/counters never feed back into the model,
  // so captured and uncaptured runs produce bit-identical KernelMetrics
  // (asserted by tests/test_determinism.cpp).
  namespace telemetry = util::telemetry;
  telemetry::TraceSpan launch_span("simt.launch", "simt");
  launch_span.arg("blocks", static_cast<std::uint64_t>(config.num_blocks));
  launch_span.arg("threads_per_block",
                  static_cast<std::uint64_t>(config.threads_per_block));
  telemetry::counter_add("simt.launches");

  const std::uint32_t resident = std::max<std::uint32_t>(
      1, spec.resident_warps_per_sm / warps_per_block);

  // A named reference: a lambda naming the thread_local itself would
  // reach the running worker's instance, not the launching thread's.
  thread_local LaunchBuffers launch_buffers;
  LaunchBuffers& buffers = launch_buffers;
  if (buffers.warps.size() < num_warps) buffers.warps.resize(num_warps);
  if (buffers.sms.size() < spec.num_sms) buffers.sms.resize(spec.num_sms);

  // --- Pass 1 (parallel): execute lanes, align them into warps ----------
  // One task per warp. A warp's lanes run serially in lane order on one
  // thread; lanes of different warps may run concurrently (the contract
  // kernels must obey, see executor.hpp). Each lane runs straight into the
  // worker's WarpRecorder, which aligns it with the warp's earlier lanes as
  // it goes; the task writes only its warp's output, so pass 1 shares no
  // mutable state between tasks. Warp-sized tasks keep the pool balanced
  // when blocks are few or uneven.
  telemetry::TraceSession& session = telemetry::current_trace();
  double stage_start = session.enabled() ? session.now_us() : 0.0;
  const auto end_stage = [&](const char* name) {
    if (!session.enabled()) return;
    const double now = session.now_us();
    session.record_complete(name, "simt", stage_start, now - stage_start, "");
    stage_start = now;
  };
  util::parallel_for_chunked(
      0, num_warps, 1, [&](std::size_t lo, std::size_t hi) {
        WarpRecorder& recorder = worker_recorder();
        for (std::size_t w = lo; w < hi; ++w) {
          const auto warp = static_cast<std::uint32_t>(w);
          const std::uint32_t block = warp / warps_per_block;
          const std::uint32_t lane_begin =
              (warp % warps_per_block) * spec.warp_size;
          const std::uint32_t lane_end = std::min(
              lane_begin + spec.warp_size, config.threads_per_block);
          WarpOutput& out = buffers.warps[w];
          out.analysis = KernelMetrics{};
          out.streams.clear();
          recorder.begin_warp(spec);
          for (std::uint32_t t = lane_begin; t < lane_end; ++t) {
            recorder.begin_lane();
            ThreadCtx ctx;
            ctx.block_id = block;
            ctx.thread_id = t;
            ctx.global_id = block * config.threads_per_block + t;
            ctx.warp_id = warp;
            kernel(ctx, recorder);
          }
          recorder.end_warp(out.analysis, out.streams);
        }
      });
  end_stage("simt.lane_pass");

  // --- Pass 2 (parallel): replay memory traffic through the caches -------
  // Blocks are distributed round-robin over SMs (block b runs on SM
  // b % num_sms); on each SM, groups of `resident` consecutive blocks are
  // co-resident and their warps' streams interleave in the private L1.
  // The analysis counters are integer sums, so their order is free.
  KernelMetrics metrics;
  metrics.warp_size = spec.warp_size;
  for (std::size_t w = 0; w < num_warps; ++w) {
    metrics += buffers.warps[w].analysis;
  }
  const std::span<SmWarps> sms(buffers.sms.data(), spec.num_sms);
  for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
    SmWarps& work = sms[sm];
    work.clear();
    std::uint32_t in_group = 0;
    for (std::uint32_t block = sm; block < config.num_blocks;
         block += spec.num_sms) {
      const std::size_t first = static_cast<std::size_t>(block) *
                                warps_per_block;
      for (std::size_t w = first; w < first + warps_per_block; ++w) {
        work.warps.push_back(WarpStream::of(buffers.warps[w].streams));
      }
      if (++in_group == resident || block + spec.num_sms >= config.num_blocks) {
        work.group_end.push_back(static_cast<std::uint32_t>(work.warps.size()));
        in_group = 0;
      }
    }
  }
  buffers.replay.replay_l1(spec, sms);
  end_stage("simt.l1_replay");
  buffers.replay.merge_l2(metrics);
  end_stage("simt.l2_merge");
  telemetry::histogram_record(
      "simt.replay_shards",
      static_cast<double>(std::min(spec.num_sms, config.num_blocks)));

  apply_time_model(metrics, spec);

  // KernelMetrics ride along as span args / registry metrics so the trace
  // carries the same profiler aggregates the paper's tables report.
  launch_span.arg("modeled_ms", metrics.modeled_seconds * 1e3);
  launch_span.arg("warp_exec_eff", metrics.warp_execution_efficiency());
  launch_span.arg("l1_hit_rate", metrics.l1_hit_rate());
  launch_span.arg("flops", metrics.flops);
  launch_span.arg("dram_bytes", metrics.dram_bytes);
  telemetry::counter_add("simt.flops", metrics.flops);
  telemetry::histogram_record("simt.modeled_kernel_ms",
                              metrics.modeled_seconds * 1e3);
  return metrics;
}

}  // namespace bd::simt
