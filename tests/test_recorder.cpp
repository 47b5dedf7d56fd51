/// Differential tests of the fused warp recorder: simt::WarpRecorder (lanes
/// recorded live, as simt::launch runs them, and the LaneTrace adapter
/// analyze_warp_groups) against the reference hash-map analyzer in
/// tests/oracles, on randomized warps. Counters must agree bit for bit and
/// the replay line streams must be identical; simt::launch must match the
/// serial reference launch.

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "oracles/warp_oracle.hpp"
#include "simt/executor.hpp"
#include "simt/warp.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bd::simt {
namespace {

constexpr std::uint32_t kLoadSites[] = {site_id("recorder/load-a"),
                                        site_id("recorder/load-b"),
                                        site_id("recorder/load-c")};
// The loop and branch kinds reuse a load site id: occurrences are counted
// per kind, so the same id must not merge instructions across kinds.
constexpr std::uint32_t kLoopSites[] = {site_id("recorder/load-a"),
                                        site_id("recorder/loop")};
constexpr std::uint32_t kBranchSites[] = {site_id("recorder/branch"),
                                          site_id("recorder/load-b")};
// Widths: zero-byte loads, sub-word, word, and wide loads that straddle
// one or two 128 B line boundaries.
constexpr std::uint32_t kWidths[] = {0, 1, 4, 8, 8, 8, 16, 24, 200};

/// Address of one load: a lane-strided sweep (coalesces), a scattered word
/// (does not), or a word placed across a line boundary.
std::uint64_t draw_address(util::Rng& rng, std::uint32_t lane,
                           std::uint64_t step) {
  switch (rng.uniform_index(3)) {
    case 0:
      return 0x10000 + step * 256 + lane * 8;
    case 1:
      return 0x80000 + rng.uniform_index(1 << 14) * 4;
    default:
      return 0x40000 + (1 + rng.uniform_index(64)) * 128 -
             rng.uniform_index(8);
  }
}

/// One lane of a random warp program. The op sequence comes from the
/// warp's seed, so lanes mostly agree on it; each lane then skips ops with
/// probability `skip` and stops after a lane-dependent count, which gives
/// skipped sites and unequal occurrence counts across lanes.
void run_lane(LaneProbe& probe, std::uint64_t seed, std::uint32_t lane,
              double skip) {
  util::Rng program(seed);
  util::Rng own(seed * 7919 + lane + 1);
  const std::uint64_t ops = 8 + own.uniform_index(24);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = program.uniform_index(6);
    const std::uint64_t which = program.uniform_index(6);
    const std::uint32_t bytes = kWidths[program.uniform_index(9)];
    if (own.uniform() < skip) continue;
    switch (kind) {
      case 0:
      case 1:
        probe.load(kLoadSites[which % 3],
                   reinterpret_cast<const void*>(draw_address(own, lane, op)),
                   bytes);
        break;
      case 2: {
        std::vector<const void*> addrs(own.uniform_index(5));  // may be 0
        for (std::size_t i = 0; i < addrs.size(); ++i) {
          addrs[i] =
              reinterpret_cast<const void*>(draw_address(own, lane, op + i));
        }
        probe.load_run(kLoadSites[which % 3], addrs.data(), bytes,
                       addrs.size());
        break;
      }
      case 3:
        probe.loop_trip(kLoopSites[which % 2], own.uniform_index(12));
        break;
      case 4:
        probe.branch(kBranchSites[which % 2], own.uniform_index(2) == 1);
        break;
      default:
        probe.count_flops(own.uniform_index(100));
        break;
    }
  }
}

/// Empty when every counter and the modeled time agree bit for bit;
/// otherwise the name of the first field that differs.
std::string mismatch(const KernelMetrics& a, const KernelMetrics& b) {
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

bool same_lines(const LineStreams& streams, const oracle::LineLists& ref) {
  if (streams.size() != ref.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto lines = streams[i];
    if (!std::equal(lines.begin(), lines.end(), ref[i].begin(),
                    ref[i].end())) {
      return false;
    }
  }
  return true;
}

/// One random warp, analyzed three ways.
struct WarpCase {
  KernelMetrics oracle, adapter, live;
  oracle::LineLists oracle_lines;
  WarpReplay adapter_replay;
  LineStreams live_lines;

  WarpCase(const DeviceSpec& spec, std::uint64_t seed, std::uint32_t lanes,
           double skip) {
    std::vector<LaneTrace> traces(lanes);
    std::vector<const LaneTrace*> ptrs;
    for (std::uint32_t l = 0; l < lanes; ++l) {
      run_lane(traces[l], seed, l, skip);
      ptrs.push_back(&traces[l]);
    }
    oracle_lines = oracle::analyze_warp_groups(ptrs, spec, oracle);
    adapter_replay = analyze_warp_groups(ptrs, spec, adapter);

    WarpRecorder recorder;
    recorder.begin_warp(spec);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      recorder.begin_lane();
      run_lane(recorder, seed, l, skip);
    }
    recorder.end_warp(live, live_lines);
  }
};

TEST(WarpRecorderOracle, RandomWarpsMatchOracle) {
  for (const DeviceSpec& spec : {tesla_k40(), test_device()}) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      const auto lanes = static_cast<std::uint32_t>(1 + seed % 32);
      const double skip = 0.1 * static_cast<double>(seed % 5);
      const WarpCase c(spec, seed, lanes, skip);
      ASSERT_EQ(mismatch(c.adapter, c.oracle), "") << "seed " << seed;
      ASSERT_EQ(mismatch(c.live, c.oracle), "") << "seed " << seed;
      ASSERT_TRUE(same_lines(c.adapter_replay.instructions, c.oracle_lines))
          << "seed " << seed;
      ASSERT_TRUE(same_lines(c.live_lines, c.oracle_lines)) << "seed " << seed;
    }
  }
}

TEST(WarpRecorderOracle, CasesExerciseEveryEventShape) {
  // Guard against a generator that silently stops producing the shapes
  // the differential test is meant to cover.
  const DeviceSpec spec = tesla_k40();
  KernelMetrics totals;
  std::size_t empty_instructions = 0, adjacent_lines = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const WarpCase c(spec, seed, static_cast<std::uint32_t>(1 + seed % 32),
                     0.1 * static_cast<double>(seed % 5));
    totals += c.oracle;
    for (const auto& lines : c.oracle_lines) {
      if (lines.empty()) ++empty_instructions;
      for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i] == lines[i - 1] + spec.l1_line_bytes) ++adjacent_lines;
      }
    }
  }
  EXPECT_GT(empty_instructions, 0u);  // zero-byte-only instructions
  EXPECT_GT(adjacent_lines, 0u);      // e.g. line-straddling loads
  EXPECT_GT(totals.divergent_branches, 0u);
  EXPECT_LT(totals.divergent_branches, totals.branch_events);
  EXPECT_LT(totals.active_lane_slots, totals.lane_slots);  // divergence
}

TEST(WarpRecorderOracle, ZeroByteLoadsStillIssue) {
  const DeviceSpec spec = tesla_k40();
  WarpRecorder recorder;
  recorder.begin_warp(spec);
  for (int lane = 0; lane < 3; ++lane) {
    recorder.begin_lane();
    recorder.load(kLoadSites[0], reinterpret_cast<const void*>(0x100), 0);
  }
  KernelMetrics m;
  LineStreams lines;
  recorder.end_warp(m, lines);
  EXPECT_EQ(m.load_instructions, 1u);
  EXPECT_EQ(m.active_lane_slots, 3u);
  EXPECT_EQ(m.l1_transactions, 0u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].empty());
}

TEST(WarpRecorderOracle, RecorderIsReusableAcrossWarps) {
  // The same recorder closes warp after warp into one CSR stream, as a
  // launch worker does; each warp's slice equals a fresh recorder's.
  const DeviceSpec spec = tesla_k40();
  WarpRecorder shared;
  LineStreams all;
  KernelMetrics all_metrics, fresh_metrics;
  std::vector<std::size_t> ends;
  oracle::LineLists expected;
  for (std::uint64_t seed = 40; seed < 60; ++seed) {
    shared.begin_warp(spec);
    for (std::uint32_t l = 0; l < 32; ++l) {
      shared.begin_lane();
      run_lane(shared, seed, l, 0.2);
    }
    shared.end_warp(all_metrics, all);
    ends.push_back(all.size());

    WarpRecorder fresh;
    LineStreams own;
    fresh.begin_warp(spec);
    for (std::uint32_t l = 0; l < 32; ++l) {
      fresh.begin_lane();
      run_lane(fresh, seed, l, 0.2);
    }
    fresh.end_warp(fresh_metrics, own);
    for (const auto lines : own) {
      expected.emplace_back(lines.begin(), lines.end());
    }
  }
  EXPECT_EQ(mismatch(all_metrics, fresh_metrics), "");
  EXPECT_TRUE(same_lines(all, expected));
  EXPECT_EQ(ends.back(), expected.size());
}

TEST(WarpRecorderOracle, RejectsEmptyAndOversizedWarps) {
  const DeviceSpec spec = test_device();
  WarpRecorder recorder;
  KernelMetrics m;
  LineStreams lines;
  recorder.begin_warp(spec);
  EXPECT_THROW(recorder.end_warp(m, lines), CheckError);
  recorder.begin_warp(spec);
  for (std::uint32_t l = 0; l <= spec.warp_size; ++l) recorder.begin_lane();
  EXPECT_THROW(recorder.end_warp(m, lines), CheckError);
}

/// A random kernel for whole launches: every lane runs a warp program
/// seeded by its warp, so blocks differ and warps are internally aligned.
KernelFn random_kernel(std::uint64_t seed, std::uint32_t warp_size) {
  return [seed, warp_size](const ThreadCtx& ctx, LaneProbe& probe) {
    const std::uint64_t warp = ctx.global_id / warp_size;
    run_lane(probe, seed * 1000 + warp, ctx.thread_id % warp_size, 0.15);
  };
}

TEST(WarpRecorderOracle, LaunchMatchesReferenceLaunch) {
  // Partial warps (80 threads = 32 + 32 + 16), several resident chunks
  // per SM on the test device, and a K40 launch spread over its 15 SMs.
  struct Shape {
    DeviceSpec spec;
    LaunchConfig config;
  };
  const Shape shapes[] = {
      {test_device(), {23, 80}},
      {tesla_k40(), {37, 96}},
      {tesla_k40(), {3, 32}},
  };
  for (unsigned threads : {1u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    for (const Shape& shape : shapes) {
      for (std::uint64_t seed : {3ull, 11ull}) {
        const KernelFn kernel = random_kernel(seed, shape.spec.warp_size);
        const KernelMetrics got = launch(shape.spec, shape.config, kernel);
        const KernelMetrics want =
            oracle::reference_launch(shape.spec, shape.config, kernel);
        ASSERT_GT(want.l1.misses, 0u);
        EXPECT_EQ(mismatch(got, want), "")
            << shape.config.num_blocks << "x" << shape.config.threads_per_block
            << " seed " << seed << ", " << threads << " threads";
      }
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(WarpRecorderOracle, ConcurrentAdaptersMatchOracle) {
  // analyze_warp_groups on many pool workers at once: each worker has its
  // own recorder, so results must not depend on which worker ran a warp.
  util::ThreadPool::set_global_threads(8);
  const DeviceSpec spec = tesla_k40();
  constexpr std::size_t kWarps = 64;
  std::vector<KernelMetrics> got(kWarps);
  std::vector<WarpReplay> replays(kWarps);
  std::vector<std::vector<LaneTrace>> traces(kWarps);
  for (std::size_t w = 0; w < kWarps; ++w) {
    traces[w].resize(32);
    for (std::uint32_t l = 0; l < 32; ++l) run_lane(traces[w][l], w, l, 0.2);
  }
  util::parallel_for(0, kWarps, [&](std::size_t w) {
    std::vector<const LaneTrace*> ptrs;
    for (const LaneTrace& t : traces[w]) ptrs.push_back(&t);
    replays[w] = analyze_warp_groups(ptrs, spec, got[w]);
  });
  for (std::size_t w = 0; w < kWarps; ++w) {
    std::vector<const LaneTrace*> ptrs;
    for (const LaneTrace& t : traces[w]) ptrs.push_back(&t);
    KernelMetrics want;
    const oracle::LineLists lines =
        oracle::analyze_warp_groups(ptrs, spec, want);
    EXPECT_EQ(mismatch(got[w], want), "") << "warp " << w;
    EXPECT_TRUE(same_lines(replays[w].instructions, lines)) << "warp " << w;
  }
  util::ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace bd::simt
