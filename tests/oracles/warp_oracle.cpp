#include "oracles/warp_oracle.hpp"

#include <algorithm>
#include <unordered_map>

#include "oracles/coalescer.hpp"
#include "simt/timemodel.hpp"
#include "util/check.hpp"

namespace bd::simt::oracle {

namespace {

/// Key identifying one warp-level instruction: the n-th occurrence of a
/// static site across a lane's program order.
struct SiteOcc {
  std::uint32_t site;
  std::uint32_t occ;
  bool operator==(const SiteOcc&) const = default;
};

struct SiteOccHash {
  std::size_t operator()(const SiteOcc& k) const {
    return (static_cast<std::size_t>(k.site) << 32) ^ k.occ;
  }
};

/// A warp-level load instruction being assembled from lane events.
struct LoadGroup {
  std::uint64_t order = 0;  // first-appearance program position
  std::vector<LaneAccess> accesses;
};

/// A warp-level branch instruction.
struct BranchGroup {
  std::uint32_t taken = 0;
  std::uint32_t not_taken = 0;
};

/// A warp-level counted loop.
struct LoopGroup {
  std::uint64_t max_trips = 0;
  std::uint64_t sum_trips = 0;
};

}  // namespace

LineLists analyze_warp_groups(const std::vector<const LaneTrace*>& traces,
                              const DeviceSpec& spec, KernelMetrics& out) {
  BD_CHECK_MSG(!traces.empty() && traces.size() <= spec.warp_size,
               "warp must hold 1..warp_size lanes");
  const std::uint32_t warp_size = spec.warp_size;
  out.warp_size = warp_size;

  // ---- group loads by (site, occurrence) ---------------------------------
  std::unordered_map<SiteOcc, LoadGroup, SiteOccHash> load_groups;
  std::unordered_map<std::uint32_t, std::uint32_t> occ_counter;
  std::uint64_t order = 0;
  for (const LaneTrace* lane : traces) {
    occ_counter.clear();
    std::uint64_t lane_pos = 0;
    for (const LoadEvent& ev : lane->loads()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      LoadGroup& group = load_groups[SiteOcc{ev.site, occ}];
      if (group.accesses.empty()) group.order = (order << 32) | lane_pos;
      group.accesses.push_back(LaneAccess{ev.addr, ev.bytes});
      ++lane_pos;
    }
    ++order;
  }

  // Program order: order of first appearance in the first lane that
  // executed the instruction.
  std::vector<const LoadGroup*> ordered;
  ordered.reserve(load_groups.size());
  for (const auto& [key, group] : load_groups) ordered.push_back(&group);
  std::sort(ordered.begin(), ordered.end(),
            [](const LoadGroup* a, const LoadGroup* b) {
              return a->order < b->order;
            });

  LineLists replay;
  replay.reserve(ordered.size());
  for (const LoadGroup* group : ordered) {
    CoalesceResult res = coalesce(group->accesses, spec.l1_line_bytes);
    out.load_instructions += 1;
    out.warp_instructions += 1;
    out.active_lane_slots += group->accesses.size();
    out.lane_slots += warp_size;
    out.bytes_requested += res.bytes_requested;
    out.bytes_transferred += res.bytes_transferred;
    out.l1_transactions += res.line_addrs.size();
    replay.push_back(std::move(res.line_addrs));
  }

  // ---- loops: divergence from trip-count spread --------------------------
  std::unordered_map<SiteOcc, LoopGroup, SiteOccHash> loop_groups;
  for (const LaneTrace* lane : traces) {
    occ_counter.clear();
    for (const LoopEvent& ev : lane->loops()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      LoopGroup& group = loop_groups[SiteOcc{ev.site, occ}];
      group.max_trips = std::max(group.max_trips, ev.trips);
      group.sum_trips += ev.trips;
    }
  }
  for (const auto& [key, group] : loop_groups) {
    out.warp_instructions += group.max_trips;
    out.lane_slots += group.max_trips * warp_size;
    out.active_lane_slots += group.sum_trips;
  }

  // ---- branches -----------------------------------------------------------
  std::unordered_map<SiteOcc, BranchGroup, SiteOccHash> branch_groups;
  for (const LaneTrace* lane : traces) {
    occ_counter.clear();
    for (const BranchEvent& ev : lane->branches()) {
      const std::uint32_t occ = occ_counter[ev.site]++;
      BranchGroup& group = branch_groups[SiteOcc{ev.site, occ}];
      if (ev.taken) {
        ++group.taken;
      } else {
        ++group.not_taken;
      }
    }
  }
  for (const auto& [key, group] : branch_groups) {
    out.branch_events += 1;
    out.warp_instructions += 1;
    out.lane_slots += warp_size;
    out.active_lane_slots += group.taken + group.not_taken;
    if (group.taken > 0 && group.not_taken > 0) ++out.divergent_branches;
  }

  // ---- flops ---------------------------------------------------------------
  for (const LaneTrace* lane : traces) out.flops += lane->flops();

  return replay;
}

void replay_round_robin_l1(const std::vector<LineLists>& warps,
                           LruCache& l1, KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses) {
  std::vector<std::size_t> cursor(warps.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t w = 0; w < warps.size(); ++w) {
      if (cursor[w] >= warps[w].size()) continue;
      progressed = true;
      for (std::uint64_t line : warps[w][cursor[w]]) {
        if (l1.access(line)) {
          ++out.l1.hits;
        } else {
          ++out.l1.misses;
          l2_misses.push_back(line);
        }
      }
      ++cursor[w];
    }
  }
}

KernelMetrics reference_launch(const DeviceSpec& spec,
                               const LaunchConfig& config,
                               const KernelFn& kernel) {
  const std::uint32_t warps_per_block =
      (config.threads_per_block + spec.warp_size - 1) / spec.warp_size;
  const std::uint32_t resident = std::max<std::uint32_t>(
      1, spec.resident_warps_per_sm / warps_per_block);

  KernelMetrics metrics;
  metrics.warp_size = spec.warp_size;
  std::vector<std::vector<LineLists>> block_warps(config.num_blocks);
  for (std::uint32_t b = 0; b < config.num_blocks; ++b) {
    std::vector<LaneTrace> traces(config.threads_per_block);
    for (std::uint32_t t = 0; t < config.threads_per_block; ++t) {
      ThreadCtx ctx;
      ctx.block_id = b;
      ctx.thread_id = t;
      ctx.global_id = b * config.threads_per_block + t;
      ctx.warp_id = b * warps_per_block + t / spec.warp_size;
      kernel(ctx, traces[t]);
    }
    for (std::uint32_t w = 0; w < warps_per_block; ++w) {
      std::vector<const LaneTrace*> lanes;
      for (std::uint32_t t = w * spec.warp_size;
           t < std::min(config.threads_per_block, (w + 1) * spec.warp_size);
           ++t) {
        lanes.push_back(&traces[t]);
      }
      block_warps[b].push_back(analyze_warp_groups(lanes, spec, metrics));
    }
  }

  LruCache l2(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  for (std::uint32_t sm = 0; sm < spec.num_sms; ++sm) {
    LruCache l1(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways);
    std::vector<std::uint32_t> mine;
    for (std::uint32_t b = sm; b < config.num_blocks; b += spec.num_sms) {
      mine.push_back(b);
    }
    std::vector<std::uint64_t> misses;
    for (std::size_t chunk = 0; chunk < mine.size(); chunk += resident) {
      std::vector<LineLists> warps;
      for (std::size_t i = chunk; i < std::min(mine.size(), chunk + resident);
           ++i) {
        for (LineLists& warp : block_warps[mine[i]]) {
          warps.push_back(std::move(warp));
        }
      }
      replay_round_robin_l1(warps, l1, metrics, misses);
    }
    for (std::uint64_t line : misses) {
      for (std::uint32_t off = 0; off < spec.l1_line_bytes;
           off += spec.l2_line_bytes) {
        if (l2.access(line + off)) {
          ++metrics.l2.hits;
        } else {
          ++metrics.l2.misses;
          metrics.dram_bytes += spec.l2_line_bytes;
        }
      }
    }
  }
  apply_time_model(metrics, spec);
  return metrics;
}

}  // namespace bd::simt::oracle
