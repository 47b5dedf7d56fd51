#pragma once
/// \file warp.hpp
/// Warp analyzer: reconstructs lockstep SIMT execution from the lanes of a
/// warp. Events are aligned by (site, occurrence-within-site): lanes that
/// recorded the n-th event at a static site are the lanes that were active
/// when the warp issued that instruction. The analyzer derives divergence
/// statistics and replays coalesced memory traffic through the SM's L1 and
/// the shared L2.
///
/// WarpRecorder does the alignment as the lanes run: simt::launch hands it
/// to each lane of a warp in turn, so no per-lane event stream is kept.
/// analyze_warp_groups feeds recorded LaneTraces through the same recorder.

#include <cstdint>
#include <span>
#include <vector>

#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/probe.hpp"
#include "simt/trace.hpp"

namespace bd::simt {

/// Coalesced line addresses of a sequence of warp-level load instructions,
/// in CSR form: instruction i touches lines()[offsets()[i] ..
/// offsets()[i + 1]) (WarpRecorder emits them ascending and unique).
/// Iterating yields one std::span of line addresses per instruction, in
/// program order.
class LineStreams {
 public:
  class iterator {
   public:
    using value_type = std::span<const std::uint64_t>;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const LineStreams* owner, std::size_t i) : owner_(owner), i_(i) {}
    value_type operator*() const { return (*owner_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }

   private:
    const LineStreams* owner_ = nullptr;
    std::size_t i_ = 0;
  };

  /// Number of instructions.
  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::span<const std::uint64_t> operator[](std::size_t i) const {
    return {lines_.data() + offsets_[i], lines_.data() + offsets_[i + 1]};
  }
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

  /// Append one instruction touching `lines`; replay walks them in the
  /// order given.
  void push_back(std::span<const std::uint64_t> lines);

  /// size() + 1 offsets into lines(); none before anything is appended.
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }
  const std::vector<std::uint64_t>& lines() const { return lines_; }

  void clear();

 private:
  friend class WarpRecorder;

  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint64_t> lines_;
};

/// The coalesced memory stream of one warp: line addresses per warp-level
/// load instruction, in program order — ready for cache replay.
struct WarpReplay {
  LineStreams instructions;
};

/// A LaneProbe that aligns the lanes of one warp into warp instructions as
/// they run. Lanes must be recorded serially, in lane order:
///
///   begin_warp(spec); for each lane { begin_lane(); run lane; }
///   end_warp(out, streams);
///
/// Each static site maps to a dense index, and each (site, occurrence)
/// gets a group slot the first time a lane reaches it. A load updates its
/// group and appends the line(s) it touches unless a line equals the
/// group's last one. end_warp sorts the lines per group into CSR form and
/// adds the warp's divergence and coalescing counters to `out`.
///
/// Holds no state between warps except reusable buffers, so one recorder
/// per worker thread serves every warp of every launch without allocating
/// after warm-up (see worker_recorder()).
class WarpRecorder final : public LaneProbe {
 public:
  void begin_warp(const DeviceSpec& spec);
  void begin_lane();

  void count_flops(std::uint64_t n) override { flops_ += n; }
  void load(std::uint32_t site, const void* addr,
            std::uint32_t bytes) override {
    record_load(site, reinterpret_cast<std::uint64_t>(addr), bytes);
  }
  void load_run(std::uint32_t site, const void* const* addrs,
                std::uint32_t bytes, std::size_t count) override;
  void loop_trip(std::uint32_t site, std::uint64_t trips) override;
  void branch(std::uint32_t site, bool taken) override;

  /// One load of `bytes` at virtual address `addr`; load() forwards here,
  /// and analyze_warp_groups replays LoadEvents through it.
  void record_load(std::uint32_t site, std::uint64_t addr,
                   std::uint32_t bytes) {
    record_site_load(load_sites_.find(site), addr, bytes);
  }

  /// Close the warp: add its counters to `out` and append one instruction
  /// per load group to `streams`, in program order.
  void end_warp(KernelMetrics& out, LineStreams& streams);

 private:
  /// A static site of the warp: its dense index is its table position.
  struct Site {
    std::uint32_t id = 0;
    std::uint32_t lane_occ = 0;        ///< occurrences in the current lane
    std::vector<std::uint32_t> group;  ///< group slot per occurrence

    /// Group slot of the site's next occurrence in the current lane. A
    /// lane reaching an occurrence no earlier lane reached opens slot
    /// `groups` (the caller's group count), so slots are numbered in
    /// creation order.
    std::uint32_t next_slot(std::size_t groups) {
      const std::uint32_t occ = lane_occ++;
      if (occ < group.size()) return group[occ];
      group.push_back(static_cast<std::uint32_t>(groups));
      return group.back();
    }
  };
  /// Per-kind table of the static sites seen in this warp. Entries past
  /// `live` keep their buffers for later warps.
  struct SiteTable {
    std::vector<Site> sites;
    std::size_t live = 0;  ///< sites[0, live) are in use this warp
    std::size_t last = 0;  ///< index of the most recent lookup
    void reset_warp() { live = last = 0; }
    void reset_lane() {
      for (std::size_t i = 0; i < live; ++i) sites[i].lane_occ = 0;
    }
    Site& find(std::uint32_t id) {
      if (last < live && sites[last].id == id) return sites[last];
      return find_slow(id);
    }
    Site& find_slow(std::uint32_t id);
  };
  /// A warp-level load instruction being assembled.
  struct LoadGroup {
    std::uint64_t last_line;  ///< most recent line appended
    std::uint32_t lines;      ///< lines appended (before sort/unique)
  };
  /// A line appended to a load group, in arrival order.
  struct LineEvent {
    std::uint64_t line;
    std::uint32_t group;
  };

  /// record_load with the site already looked up; load_run looks its site
  /// up once for the whole run.
  void record_site_load(Site& site, std::uint64_t addr, std::uint32_t bytes) {
    const std::uint32_t g = site.next_slot(load_groups_.size());
    if (g == load_groups_.size()) load_groups_.push_back(LoadGroup{0, 0});
    ++load_events_;
    load_bytes_ += bytes;
    if (bytes == 0) return;
    LoadGroup& group = load_groups_[g];
    const std::uint64_t last = (addr + bytes - 1) & line_mask_;
    for (std::uint64_t line = addr & line_mask_;; line += line_bytes_) {
      // Neighbouring lanes mostly touch the line their predecessor
      // touched; dropping repeats keeps the events near the unique count.
      if (group.lines == 0 || group.last_line != line) {
        group.last_line = line;
        ++group.lines;
        events_.push_back(LineEvent{line, g});
      }
      if (line == last) break;
    }
  }

  std::uint32_t warp_size_ = 0;
  std::uint32_t line_bytes_ = 0;
  std::uint64_t line_mask_ = 0;
  std::uint32_t lanes_ = 0;

  SiteTable load_sites_, loop_sites_, branch_sites_;
  std::vector<LoadGroup> load_groups_;
  std::vector<std::uint64_t> loop_max_trips_;
  std::vector<std::uint8_t> branch_outcomes_;  ///< bit 0 taken, bit 1 not

  std::vector<LineEvent> events_;
  // end_warp's counting sort: per-group write cursor, lines by group.
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint64_t> sorted_;

  std::uint64_t flops_ = 0;
  std::uint64_t load_events_ = 0;
  std::uint64_t load_bytes_ = 0;
  std::uint64_t loop_trips_ = 0;
  std::uint64_t branch_events_ = 0;
};

/// The calling thread's recorder: one per worker, reused across warps and
/// launches. Not re-entrant — a kernel lane must not start another warp.
WarpRecorder& worker_recorder();

/// Reconstruct warp-level execution from per-lane traces: accumulates
/// divergence/coalescing statistics into `out` and returns the warp's
/// transaction stream for cache replay. Replays the traces into
/// worker_recorder(), so the result equals recording the lanes directly.
WarpReplay analyze_warp_groups(const std::vector<const LaneTrace*>& traces,
                               const DeviceSpec& spec, KernelMetrics& out);

/// One warp's instructions inside CSR storage: instruction i touches
/// lines[offsets[i] .. offsets[i + 1]).
struct WarpStream {
  const std::uint32_t* offsets = nullptr;  ///< count + 1 entries
  const std::uint64_t* lines = nullptr;
  std::size_t count = 0;

  /// The stream of a LineStreams holding one warp's instructions.
  static WarpStream of(const LineStreams& s) {
    return {s.offsets().data(), s.lines().data(), s.size()};
  }
};

/// The warps one SM replays, as groups of co-resident warps in issue
/// order: group g is warps[group_end[g - 1], group_end[g]) (the first
/// group starts at 0). A group's warps interleave in the SM's L1, and the
/// L1 keeps its state from one group to the next.
struct SmWarps {
  std::vector<WarpStream> warps;
  std::vector<std::uint32_t> group_end;

  /// One group holding every warp of `replays`, in order.
  static SmWarps one_group(const std::vector<WarpReplay>& replays);

  void clear() {
    warps.clear();
    group_end.clear();
  }
};

/// Shards the L2 merge splits the shared L2 into. A fixed count, so the
/// split never depends on the pool width; an L2 with fewer set groups
/// than this uses one shard per group.
inline constexpr std::uint32_t kL2Shards = 64;

/// Pass 2 of simt::launch, both stages on the thread pool; the result
/// equals replaying each SM's warps through replay_interleaved, SM after
/// SM, with one L2 shared by all SMs.
///
///  1. replay_l1: every SM replays its groups through its private L1, SMs
///     in parallel. Each L1 miss line goes to a bucket per (SM, L2 shard),
///     in replay order.
///  2. merge_l2: under LRU the L2 sets are independent, so only the order
///     of the accesses within a set matters. An L1 line's sectors fall in
///     one group of consecutive L2 sets (every set, if the line is wider
///     than the L2 has sets), and each shard owns a fixed subset of the
///     groups. Shards run in parallel; each replays its buckets of SM 0,
///     1, ... in order. Every set therefore sees the serial access order,
///     and the counters are integer sums, so KernelMetrics are
///     bit-identical to the serial merge for any BD_NUM_THREADS.
///
/// Within a group, every access is a whole L1 line that touches each set
/// of the group alike: set j receives sector j of the line (and the same
/// number of sectors per line, if the line wraps around the sets). The
/// sets of a group therefore see the same sequence of lines, hold the same
/// lines in the same recency order, and hit or miss together. The merge
/// replays one set per group, keyed by the line, and counts each outcome
/// once per set of the group; tests/test_cache.cpp checks it against the
/// sector-by-sector replay_l2_lines on several geometries.
///
/// Holds only reusable buffers between calls, so one instance serves every
/// launch of a thread without allocating after warm-up. Line addresses
/// must be L1-line aligned, as WarpRecorder emits them.
class ShardedReplay {
 public:
  /// Stage 1: start from empty caches and replay `sms` (one entry per SM,
  /// spec.num_sms entries) through the per-SM L1s.
  void replay_l1(const DeviceSpec& spec, std::span<const SmWarps> sms);

  /// Stage 2: replay the buckets of the last replay_l1 through the shared
  /// L2, and add the L1 and L2 counters and DRAM bytes to `out`.
  void merge_l2(KernelMetrics& out);

  /// Shards in use: kL2Shards, or the L2's set-group count if smaller.
  std::uint32_t shards() const { return shards_; }

 private:
  // Each is written by one pool task at a time; a cache line each keeps
  // the tasks' counter updates apart.
  struct alignas(64) Sm {
    SetAssocCache l1{1, 1, 1};
    CacheStats stats;
    std::vector<WarpStream> active;  ///< round-robin scratch
  };
  struct alignas(64) Shard {
    /// One set per group of the shard, keyed by group number (line size 1).
    SetAssocCache groups{1, 1, 1};
    CacheStats stats;  ///< per group access, before scaling to sets
  };

  /// The cache geometry the buffers are laid out for.
  struct Geometry {
    std::uint32_t num_sms, l1_bytes, l1_line, l1_ways, l2_bytes, l2_line,
        l2_ways;
    bool operator==(const Geometry&) const = default;
  };

  Geometry geometry_{};
  std::uint32_t shards_ = 0;
  std::uint32_t shard_bits_ = 0;     ///< log2 shards_
  std::uint32_t group_shift_ = 0;    ///< line >> group_shift_: group number
  std::uint32_t group_sets_ = 0;     ///< L2 sets per group
  std::uint32_t keys_per_line_ = 0;  ///< sectors a line puts in each set
  std::vector<Sm> sms_;
  std::vector<Shard> shard_state_;
  /// buckets_[sm * shards_ + shard]: that SM's miss lines for that shard.
  std::vector<std::vector<std::uint64_t>> buckets_;
};

/// Replay several warps' transaction streams through the SM's L1 and the
/// shared L2, interleaving round-robin one instruction at a time — the
/// concurrency model of an SM's warp schedulers. Scattered per-warp
/// streams thrash the shared L1; streams touching common lines share it.
/// Composition of replay_interleaved_l1 + replay_l2_lines.
void replay_interleaved(const std::vector<WarpReplay>& replays,
                        const DeviceSpec& spec, SetAssocCache& l1,
                        SetAssocCache& l2, KernelMetrics& out);

/// L1 stage of replay_interleaved: interleaves the warps through the SM's
/// private L1, accumulating L1 hit/miss counters into `out` and appending
/// the line address of every L1 miss to `l2_misses` in replay order
/// instead of touching the shared L2. ShardedReplay::replay_l1 runs the
/// same replay loop.
void replay_interleaved_l1(const std::vector<WarpReplay>& replays,
                           const DeviceSpec& spec, SetAssocCache& l1,
                           KernelMetrics& out,
                           std::vector<std::uint64_t>& l2_misses);

/// L2 stage: replays recorded L1-miss lines through the shared L2 as
/// sector transactions (l2_line_bytes each), accumulating L2 hit/miss
/// counters and DRAM traffic into `out`. Fed each SM's miss stream in
/// SM-major order, it is the serial reference for
/// ShardedReplay::merge_l2.
void replay_l2_lines(const std::vector<std::uint64_t>& lines,
                     const DeviceSpec& spec, SetAssocCache& l2,
                     KernelMetrics& out);

/// Convenience for tests: analyze one warp and replay it alone.
void analyze_warp(const std::vector<const LaneTrace*>& traces,
                  const DeviceSpec& spec, SetAssocCache& l1,
                  SetAssocCache& l2, KernelMetrics& out);

}  // namespace bd::simt
