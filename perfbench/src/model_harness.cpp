#include "model_harness.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <vector>

#include "beam/wake.hpp"
#include "core/forecast.hpp"
#include "core/rp_kernels.hpp"
#include "quad/simpson.hpp"
#include "simt/cache.hpp"
#include "simt/executor.hpp"
#include "simt/probe.hpp"
#include "simt/timemodel.hpp"
#include "simt/trace.hpp"
#include "simt/warp.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

using namespace bd;

constexpr std::uint32_t kIntervalLoop = simt::site_id("perfbench/interval-loop");
constexpr std::uint32_t kAcceptSite = simt::site_id("perfbench/accept");
// The Two-Phase block size (baselines::TwoPhaseOptions::block_size).
constexpr std::uint32_t kBlockThreads = 128;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Everything the analysis layer produces for one block, as in launch.
struct BlockOutput {
  simt::KernelMetrics analysis;
  std::vector<simt::WarpReplay> replays;
};

}  // namespace

std::vector<double> coarse_partition(const core::RpProblem& problem) {
  const std::vector<double> ones(problem.num_subregions, 1.0);
  std::vector<double> breaks(core::pattern_to_partition_bound(ones, 1.0));
  breaks.resize(core::pattern_to_partition_into(
      ones, problem.sub_width, problem.r_max(), breaks, 1.0));
  return breaks;
}

ModelLayers measure_model_layers(const simt::DeviceSpec& device,
                                 const core::RpProblem& problem) {
  const std::size_t num_points = problem.num_points();
  const std::vector<double> coarse = coarse_partition(problem);
  const std::uint64_t intervals = coarse.size() - 1;

  std::vector<std::uint64_t> evals(num_points, 0);
  const simt::KernelFn kernel = [&](const simt::ThreadCtx& ctx,
                                    simt::LaneProbe& probe) {
    const std::size_t point = ctx.global_id;
    if (point >= num_points) {
      probe.loop_trip(kIntervalLoop, 0);  // resident but idle lane
      return;
    }
    double x = 0.0, y = 0.0;
    problem.point_coords(point, x, y);
    const beam::WakeIntegrand integrand(*problem.history, *problem.model, x,
                                        y, problem.step, problem.sub_width);
    probe.loop_trip(kIntervalLoop, intervals);
    evals[point] = quad::simpson_sweep(
        integrand, coarse, probe,
        [&](std::size_t, double a, double b, const quad::QuadEstimate& est,
            const quad::SimpsonSamples&) {
          probe.branch(kAcceptSite,
                       est.error <= core::local_tolerance(problem, a, b));
        });
  };

  simt::LaunchConfig config;
  config.threads_per_block = kBlockThreads;
  config.num_blocks = static_cast<std::uint32_t>(
      (num_points + kBlockThreads - 1) / kBlockThreads);
  const std::uint32_t warp = device.warp_size;
  const std::uint32_t warps_per_block = (kBlockThreads + warp - 1) / warp;
  const std::uint32_t resident = std::max<std::uint32_t>(
      1, device.resident_warps_per_sm / warps_per_block);
  auto run_block = [&](std::size_t b, auto&& probe_of_lane) {
    for (std::uint32_t t = 0; t < kBlockThreads; ++t) {
      simt::ThreadCtx ctx;
      ctx.block_id = static_cast<std::uint32_t>(b);
      ctx.thread_id = t;
      ctx.global_id = ctx.block_id * kBlockThreads + t;
      kernel(ctx, probe_of_lane(t));
    }
  };

  ModelLayers out;
  using clock = std::chrono::steady_clock;

  // Layer 0: the physics alone.
  auto start = clock::now();
  util::parallel_for(0, config.num_blocks, [&](std::size_t b) {
    run_block(b, [](std::uint32_t) -> simt::LaneProbe& {
      return simt::NullProbe::instance();
    });
  });
  out.kernel_ms = ms_since(start);
  for (const std::uint64_t e : evals) out.evaluations += e;

  // Layer 1: the same lanes recording their event streams.
  std::vector<std::vector<simt::LaneTrace>> traces(config.num_blocks);
  start = clock::now();
  util::parallel_for(0, config.num_blocks, [&](std::size_t b) {
    traces[b].resize(kBlockThreads);
    run_block(b, [&](std::uint32_t t) -> simt::LaneProbe& {
      return traces[b][t];
    });
  });
  out.trace_ms = ms_since(start);
  std::size_t trace_bytes = 0;
  for (const auto& block : traces) {
    for (const simt::LaneTrace& lane : block) {
      trace_bytes += lane.footprint_bytes();
      out.lane_events +=
          lane.loads().size() + lane.loops().size() + lane.branches().size();
    }
  }
  out.trace_peak_mb = static_cast<double>(trace_bytes) / (1024.0 * 1024.0);

  // Layer 2: warp analysis (divergence, coalescing) per block.
  std::vector<BlockOutput> blocks(config.num_blocks);
  start = clock::now();
  util::parallel_for(0, config.num_blocks, [&](std::size_t b) {
    BlockOutput& block = blocks[b];
    block.replays.reserve(warps_per_block);
    for (std::uint32_t w = 0; w < warps_per_block; ++w) {
      std::vector<const simt::LaneTrace*> lanes;
      for (std::uint32_t t = w * warp;
           t < std::min(kBlockThreads, (w + 1) * warp); ++t) {
        lanes.push_back(&traces[b][t]);
      }
      block.replays.push_back(
          simt::analyze_warp_groups(lanes, device, block.analysis));
    }
  });
  out.analyze_ms = ms_since(start);
  traces.clear();
  for (const BlockOutput& block : blocks) {
    for (const simt::WarpReplay& replay : block.replays) {
      for (const auto& lines : replay.instructions) {
        out.replay_lines += lines.size();
      }
    }
  }

  // Layer 3: per-SM L1 replay, blocks round-robin over SMs, `resident`
  // consecutive blocks of an SM interleaving in its L1.
  struct SmShard {
    simt::KernelMetrics partial;
    std::vector<std::uint64_t> l2_misses;
  };
  std::vector<SmShard> shards(device.num_sms);
  start = clock::now();
  util::parallel_for(0, device.num_sms, [&](std::size_t sm) {
    SmShard& shard = shards[sm];
    simt::SetAssocCache l1(device.l1_bytes, device.l1_line_bytes,
                           device.l1_ways);
    std::vector<std::uint32_t> mine;
    for (auto b = static_cast<std::uint32_t>(sm); b < config.num_blocks;
         b += device.num_sms) {
      mine.push_back(b);
    }
    for (std::size_t chunk = 0; chunk < mine.size(); chunk += resident) {
      std::vector<simt::WarpReplay> replays;
      for (std::size_t i = chunk;
           i < std::min(mine.size(), chunk + resident); ++i) {
        BlockOutput& block = blocks[mine[i]];
        shard.partial += block.analysis;
        for (simt::WarpReplay& replay : block.replays) {
          replays.push_back(std::move(replay));
        }
      }
      simt::replay_interleaved_l1(replays, device, l1, shard.partial,
                                  shard.l2_misses);
    }
  });
  out.l1_replay_ms = ms_since(start);

  // Layer 4: the shared L2, fed SM-major, then the time model.
  start = clock::now();
  out.staged.warp_size = device.warp_size;
  simt::SetAssocCache l2(device.l2_bytes, device.l2_line_bytes,
                         device.l2_ways);
  for (const SmShard& shard : shards) {
    out.staged += shard.partial;
    simt::replay_l2_lines(shard.l2_misses, device, l2, out.staged);
    out.l2_lines += shard.l2_misses.size();
  }
  simt::apply_time_model(out.staged, device);
  out.l2_merge_ms = ms_since(start);

  // The whole model, as the solvers run it.
  start = clock::now();
  out.launched = simt::launch(device, config, kernel);
  out.launch_ms = ms_since(start);
  return out;
}

std::string metrics_mismatch(const simt::KernelMetrics& a,
                             const simt::KernelMetrics& b) {
  const std::pair<const char*, bool> fields[] = {
      {"flops", a.flops == b.flops},
      {"warp_instructions", a.warp_instructions == b.warp_instructions},
      {"active_lane_slots", a.active_lane_slots == b.active_lane_slots},
      {"lane_slots", a.lane_slots == b.lane_slots},
      {"branch_events", a.branch_events == b.branch_events},
      {"divergent_branches", a.divergent_branches == b.divergent_branches},
      {"load_instructions", a.load_instructions == b.load_instructions},
      {"bytes_requested", a.bytes_requested == b.bytes_requested},
      {"bytes_transferred", a.bytes_transferred == b.bytes_transferred},
      {"l1_transactions", a.l1_transactions == b.l1_transactions},
      {"l1.hits", a.l1.hits == b.l1.hits},
      {"l1.misses", a.l1.misses == b.l1.misses},
      {"l2.hits", a.l2.hits == b.l2.hits},
      {"l2.misses", a.l2.misses == b.l2.misses},
      {"dram_bytes", a.dram_bytes == b.dram_bytes},
      {"warp_size", a.warp_size == b.warp_size},
      {"modeled_seconds", std::bit_cast<std::uint64_t>(a.modeled_seconds) ==
                              std::bit_cast<std::uint64_t>(b.modeled_seconds)},
  };
  for (const auto& [name, equal] : fields) {
    if (!equal) return name;
  }
  return {};
}

}  // namespace perfbench
