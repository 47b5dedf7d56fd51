#include "simt/warp.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::simt {

// ---- LineStreams -----------------------------------------------------------

void LineStreams::push_back(std::span<const std::uint64_t> lines) {
  if (offsets_.empty()) offsets_.push_back(0);
  lines_.insert(lines_.end(), lines.begin(), lines.end());
  BD_CHECK_MSG(lines_.size() <= std::numeric_limits<std::uint32_t>::max(),
               "line stream exceeds 32-bit offsets");
  offsets_.push_back(static_cast<std::uint32_t>(lines_.size()));
}

void LineStreams::clear() {
  offsets_.clear();
  lines_.clear();
}

// ---- WarpRecorder ----------------------------------------------------------

WarpRecorder::Site& WarpRecorder::SiteTable::find_slow(std::uint32_t id) {
  for (std::size_t i = 0; i < live; ++i) {
    if (sites[i].id == id) {
      last = i;
      return sites[i];
    }
  }
  if (live == sites.size()) sites.emplace_back();
  Site& site = sites[live];
  site.id = id;
  site.lane_occ = 0;
  site.group.clear();
  last = live++;
  return site;
}

void WarpRecorder::begin_warp(const DeviceSpec& spec) {
  BD_CHECK_MSG(std::has_single_bit(spec.l1_line_bytes),
               "line size must be a power of two");
  warp_size_ = spec.warp_size;
  line_bytes_ = spec.l1_line_bytes;
  line_mask_ = ~static_cast<std::uint64_t>(line_bytes_ - 1);
  lanes_ = 0;
  load_sites_.reset_warp();
  loop_sites_.reset_warp();
  branch_sites_.reset_warp();
  load_groups_.clear();
  loop_max_trips_.clear();
  branch_outcomes_.clear();
  events_.clear();
  flops_ = load_events_ = load_bytes_ = loop_trips_ = branch_events_ = 0;
}

void WarpRecorder::begin_lane() {
  ++lanes_;
  load_sites_.reset_lane();
  loop_sites_.reset_lane();
  branch_sites_.reset_lane();
}

void WarpRecorder::load_run(std::uint32_t site, const void* const* addrs,
                            std::uint32_t bytes, std::size_t count) {
  if (count == 0) return;
  Site& run_site = load_sites_.find(site);
  for (std::size_t i = 0; i < count; ++i) {
    record_site_load(run_site, reinterpret_cast<std::uint64_t>(addrs[i]),
                     bytes);
  }
}

void WarpRecorder::loop_trip(std::uint32_t site, std::uint64_t trips) {
  const std::uint32_t g =
      loop_sites_.find(site).next_slot(loop_max_trips_.size());
  if (g == loop_max_trips_.size()) loop_max_trips_.push_back(0);
  loop_max_trips_[g] = std::max(loop_max_trips_[g], trips);
  loop_trips_ += trips;
}

void WarpRecorder::branch(std::uint32_t site, bool taken) {
  const std::uint32_t g =
      branch_sites_.find(site).next_slot(branch_outcomes_.size());
  if (g == branch_outcomes_.size()) branch_outcomes_.push_back(0);
  branch_outcomes_[g] |= taken ? 1u : 2u;
  ++branch_events_;
}

void WarpRecorder::end_warp(KernelMetrics& out, LineStreams& streams) {
  BD_CHECK_MSG(lanes_ > 0 && lanes_ <= warp_size_,
               "warp must hold 1..warp_size lanes");
  out.warp_size = warp_size_;

  // ---- loads: one instruction per group ----------------------------------
  // Groups are numbered in creation order: lane-major, then each lane's
  // program order. That is the order of (first lane << 32 | position in
  // that lane), the position where the warp issues the instruction, so the
  // groups are already in program order and the caches downstream see the
  // same access sequence as a sort by that key would give.
  const std::size_t groups = load_groups_.size();

  // Counting sort of the line events by group into the sort buffer.
  cursor_.resize(groups);
  std::size_t total = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    cursor_[g] = static_cast<std::uint32_t>(total);
    total += load_groups_[g].lines;
  }
  if (sorted_.size() < total) sorted_.resize(total);
  for (const LineEvent& e : events_) sorted_[cursor_[e.group]++] = e.line;

  // Per group: sort + unique (the coalesced transactions), compacted left,
  // then appended to the CSR stream in one copy.
  std::vector<std::uint64_t>& lines = streams.lines_;
  std::vector<std::uint32_t>& offsets = streams.offsets_;
  const std::size_t base = lines.size();
  BD_CHECK_MSG(base + total <= std::numeric_limits<std::uint32_t>::max(),
               "line stream exceeds 32-bit offsets");
  if (offsets.empty()) offsets.push_back(static_cast<std::uint32_t>(base));
  std::size_t read = 0, write = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = sorted_.begin() + static_cast<std::ptrdiff_t>(read);
    const auto end = first + load_groups_[g].lines;
    std::sort(first, end);
    const auto unique_end = std::unique(first, end);
    if (write != read) {
      std::copy(first, unique_end,
                sorted_.begin() + static_cast<std::ptrdiff_t>(write));
    }
    read += load_groups_[g].lines;
    write += static_cast<std::size_t>(unique_end - first);
    offsets.push_back(static_cast<std::uint32_t>(base + write));
  }
  lines.insert(lines.end(), sorted_.begin(),
               sorted_.begin() + static_cast<std::ptrdiff_t>(write));
  const std::uint64_t transactions = write;

  out.load_instructions += groups;
  out.warp_instructions += groups;
  out.active_lane_slots += load_events_;
  out.lane_slots += groups * warp_size_;
  out.bytes_requested += load_bytes_;
  out.bytes_transferred += transactions * line_bytes_;
  out.l1_transactions += transactions;

  // ---- loops: divergence from trip-count spread --------------------------
  // The warp executes max_trips iterations; a lane is active only for its
  // own trip count. One issue slot per iteration models the body.
  for (const std::uint64_t max_trips : loop_max_trips_) {
    out.warp_instructions += max_trips;
    out.lane_slots += max_trips * warp_size_;
  }
  out.active_lane_slots += loop_trips_;

  // ---- branches ------------------------------------------------------------
  const std::size_t branches = branch_outcomes_.size();
  out.branch_events += branches;
  out.warp_instructions += branches;
  out.lane_slots += branches * warp_size_;
  out.active_lane_slots += branch_events_;
  for (const std::uint8_t outcome : branch_outcomes_) {
    if (outcome == 3) ++out.divergent_branches;
  }

  out.flops += flops_;
}

WarpRecorder& worker_recorder() {
  thread_local WarpRecorder recorder;
  return recorder;
}

// ---- LaneTrace adapter -----------------------------------------------------

WarpReplay analyze_warp_groups(const std::vector<const LaneTrace*>& traces,
                               const DeviceSpec& spec, KernelMetrics& out) {
  BD_CHECK_MSG(!traces.empty() && traces.size() <= spec.warp_size,
               "warp must hold 1..warp_size lanes");
  WarpRecorder& recorder = worker_recorder();
  recorder.begin_warp(spec);
  for (const LaneTrace* lane : traces) {
    recorder.begin_lane();
    for (const LoadEvent& ev : lane->loads()) {
      recorder.record_load(ev.site, ev.addr, ev.bytes);
    }
    for (const LoopEvent& ev : lane->loops()) {
      recorder.loop_trip(ev.site, ev.trips);
    }
    for (const BranchEvent& ev : lane->branches()) {
      recorder.branch(ev.site, ev.taken);
    }
    recorder.count_flops(lane->flops());
  }
  WarpReplay replay;
  recorder.end_warp(out, replay.instructions);
  return replay;
}

// ---- cache replay ----------------------------------------------------------

namespace {

/// The one L1 replay loop: warps interleave round-robin, one instruction
/// per warp per round in warp order, so round r issues instruction r of
/// every warp that still has one. Hits and misses go to `stats`, and every
/// miss line goes to on_miss in replay order. `active` is scratch.
template <typename OnMiss>
void replay_round_robin(std::span<const WarpStream> warps, SetAssocCache& l1,
                        CacheStats& stats, std::vector<WarpStream>& active,
                        OnMiss&& on_miss) {
  // `active` holds the warps with instructions left; finished ones drop
  // out in place.
  active.clear();
  for (const WarpStream& w : warps) {
    if (w.count > 0) active.push_back(w);
  }
  for (std::size_t r = 0; !active.empty(); ++r) {
    std::size_t keep = 0;
    for (const WarpStream& w : active) {
      for (std::uint32_t i = w.offsets[r]; i < w.offsets[r + 1]; ++i) {
        const std::uint64_t line = w.lines[i];
        if (l1.access(line)) {
          ++stats.hits;
        } else {
          ++stats.misses;
          on_miss(line);
        }
      }
      if (r + 1 < w.count) active[keep++] = w;
    }
    active.resize(keep);
  }
}

}  // namespace

void replay_interleaved_l1(const std::vector<WarpReplay>& replays,
                           const DeviceSpec& spec, SetAssocCache& l1,
                           KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses) {
  (void)spec;
  std::vector<WarpStream> warps, active;
  warps.reserve(replays.size());
  for (const WarpReplay& replay : replays) {
    warps.push_back(WarpStream::of(replay.instructions));
  }
  replay_round_robin(warps, l1, out.l1, active,
                     [&](std::uint64_t line) { l2_misses.push_back(line); });
}

// ---- ShardedReplay ---------------------------------------------------------

SmWarps SmWarps::one_group(const std::vector<WarpReplay>& replays) {
  SmWarps sm;
  sm.warps.reserve(replays.size());
  for (const WarpReplay& replay : replays) {
    sm.warps.push_back(WarpStream::of(replay.instructions));
  }
  sm.group_end.push_back(static_cast<std::uint32_t>(sm.warps.size()));
  return sm;
}

void ShardedReplay::replay_l1(const DeviceSpec& spec,
                              std::span<const SmWarps> sms) {
  BD_CHECK_MSG(sms.size() == spec.num_sms, "replay needs one SmWarps per SM");
  BD_CHECK_MSG(std::has_single_bit(spec.l1_line_bytes),
               "line size must be a power of two");
  const Geometry geometry{spec.num_sms, spec.l1_bytes,  spec.l1_line_bytes,
                          spec.l1_ways, spec.l2_bytes,  spec.l2_line_bytes,
                          spec.l2_ways};
  if (geometry == geometry_) {
    for (Sm& sm : sms_) sm.l1.flush();
    for (Shard& shard : shard_state_) shard.groups.flush();
  } else {
    // An L1 line covers line_sectors consecutive L2 sectors. With at
    // least that many sets it fills a group of group_sets_ consecutive
    // sets, one sector each; otherwise it wraps around all the sets,
    // keys_per_line_ sectors each. Shards take the groups round-robin.
    const std::uint32_t sets = SetAssocCache::sets_for(
        spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
    const std::uint32_t line_sectors =
        std::max<std::uint32_t>(1, spec.l1_line_bytes / spec.l2_line_bytes);
    group_sets_ = std::min(line_sectors, sets);
    keys_per_line_ = line_sectors / group_sets_;
    group_shift_ =
        static_cast<std::uint32_t>(std::countr_zero(spec.l2_line_bytes) +
                                   std::countr_zero(group_sets_));
    const std::uint32_t groups = sets / group_sets_;
    shards_ = std::min(kL2Shards, groups);
    shard_bits_ = static_cast<std::uint32_t>(std::countr_zero(shards_));
    sms_.resize(spec.num_sms);
    for (Sm& sm : sms_) {
      sm.l1 = SetAssocCache(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways);
    }
    shard_state_.resize(shards_);
    for (Shard& shard : shard_state_) {
      shard.groups =
          SetAssocCache(groups / shards_ * spec.l2_ways, 1, spec.l2_ways);
    }
    buckets_.resize(static_cast<std::size_t>(spec.num_sms) * shards_);
    geometry_ = geometry;
  }
  for (std::vector<std::uint64_t>& bucket : buckets_) bucket.clear();

  const std::uint64_t align_mask = spec.l1_line_bytes - 1;
  const std::uint32_t group_shift = group_shift_;
  const std::uint64_t shard_mask = shards_ - 1;
  util::parallel_for_chunked(
      0, spec.num_sms, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t sm = lo; sm < hi; ++sm) {
          Sm& state = sms_[sm];
          std::vector<std::uint64_t>* buckets = &buckets_[sm * shards_];
          const SmWarps& work = sms[sm];
          CacheStats stats;
          std::uint32_t begin = 0;
          for (const std::uint32_t end : work.group_end) {
            replay_round_robin(
                {work.warps.data() + begin, end - begin}, state.l1, stats,
                state.active, [&](std::uint64_t line) {
                  BD_CHECK_MSG((line & align_mask) == 0,
                               "replay lines must be L1-line aligned");
                  buckets[(line >> group_shift) & shard_mask].push_back(line);
                });
            begin = end;
          }
          state.stats = stats;
        }
      });
}

void ShardedReplay::merge_l2(KernelMetrics& out) {
  // Within a shard the group number without the shard bits is one-to-one,
  // and its low bits index the shard's sets. A line wrapping around the
  // sets (keys_per_line_ > 1, hence one group and one shard) puts its
  // sectors j, j + sets, ... in each set: keys group + 0, 1, ...
  util::parallel_for_chunked(0, shards_, 1, [&](std::size_t lo,
                                                std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      SetAssocCache& cache = shard_state_[s].groups;
      CacheStats stats;
      for (std::uint32_t sm = 0; sm < geometry_.num_sms; ++sm) {
        for (const std::uint64_t line : buckets_[sm * shards_ + s]) {
          const std::uint64_t key = line >> group_shift_ >> shard_bits_;
          for (std::uint32_t k = 0; k < keys_per_line_; ++k) {
            if (cache.access(key + k)) {
              ++stats.hits;
            } else {
              ++stats.misses;
            }
          }
        }
      }
      shard_state_[s].stats = stats;
    }
  });
  for (const Sm& sm : sms_) out.l1 += sm.stats;
  for (const Shard& shard : shard_state_) {
    out.l2.hits += shard.stats.hits * group_sets_;
    out.l2.misses += shard.stats.misses * group_sets_;
    out.dram_bytes +=
        shard.stats.misses * group_sets_ * geometry_.l2_line;
  }
}

void replay_l2_lines(const std::vector<std::uint64_t>& lines,
                     const DeviceSpec& spec, SetAssocCache& l2,
                     KernelMetrics& out) {
  for (std::uint64_t line : lines) {
    // An L1 miss fetches the line as L2-sector transactions.
    for (std::uint32_t off = 0; off < spec.l1_line_bytes;
         off += spec.l2_line_bytes) {
      if (l2.access(line + off)) {
        ++out.l2.hits;
      } else {
        ++out.l2.misses;
        out.dram_bytes += spec.l2_line_bytes;
      }
    }
  }
}

void replay_interleaved(const std::vector<WarpReplay>& replays,
                        const DeviceSpec& spec, SetAssocCache& l1,
                        SetAssocCache& l2, KernelMetrics& out) {
  std::vector<std::uint64_t> l2_misses;
  replay_interleaved_l1(replays, spec, l1, out, l2_misses);
  replay_l2_lines(l2_misses, spec, l2, out);
}

void analyze_warp(const std::vector<const LaneTrace*>& traces,
                  const DeviceSpec& spec, SetAssocCache& l1,
                  SetAssocCache& l2, KernelMetrics& out) {
  std::vector<WarpReplay> replays;
  replays.push_back(analyze_warp_groups(traces, spec, out));
  replay_interleaved(replays, spec, l1, l2, out);
}

}  // namespace bd::simt
