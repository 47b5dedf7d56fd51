/// Tests for the set-associative LRU cache model and for the set-sharded
/// replay simt::launch runs through it.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "oracles/lru_cache.hpp"
#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "simt/warp.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bd::simt {
namespace {

TEST(Cache, FirstAccessMisses) {
  SetAssocCache cache(1024, 128, 2);
  EXPECT_FALSE(cache.access(0));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Cache, SecondAccessHits) {
  SetAssocCache cache(1024, 128, 2);
  cache.access(0);
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(64));  // same 128B line
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(Cache, DistinctLinesMiss) {
  SetAssocCache cache(1024, 128, 2);
  cache.access(0);
  EXPECT_FALSE(cache.access(128));
  EXPECT_FALSE(cache.access(256));
}

TEST(Cache, LruEvictionWithinSet) {
  // 1024B / 128B lines / 2 ways = 4 sets. Lines mapping to set 0:
  // addresses 0, 4*128=512, 8*128=1024, ...
  SetAssocCache cache(1024, 128, 2);
  ASSERT_EQ(cache.num_sets(), 4u);
  cache.access(0);      // A
  cache.access(512);    // B — set full
  EXPECT_TRUE(cache.access(0));     // touch A; B is now LRU
  cache.access(1024);   // C evicts B
  EXPECT_TRUE(cache.access(0));     // A survives
  EXPECT_FALSE(cache.access(512));  // B was evicted
}

TEST(Cache, FlushInvalidatesEverything) {
  SetAssocCache cache(1024, 128, 2);
  cache.access(0);
  cache.access(128);
  cache.flush();
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(128));
}

TEST(Cache, StatsHitRate) {
  SetAssocCache cache(1024, 128, 2);
  cache.access(0);
  cache.access(0);
  cache.access(0);
  cache.access(0);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.75);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses(), 0u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
}

TEST(Cache, StatsAccumulate) {
  CacheStats a{3, 1};
  CacheStats b{1, 5};
  a += b;
  EXPECT_EQ(a.hits, 4u);
  EXPECT_EQ(a.misses, 6u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.4);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(1024, 100, 2), CheckError);  // non-pow2 line
  EXPECT_THROW(SetAssocCache(128, 128, 2), CheckError);   // capacity < ways
  EXPECT_THROW(SetAssocCache(1024, 128, 0), CheckError);  // zero ways
}

TEST(Cache, FullyAssociativeWorks) {
  // 4 lines, 4 ways -> 1 set.
  SetAssocCache cache(512, 128, 4);
  EXPECT_EQ(cache.num_sets(), 1u);
  for (int i = 0; i < 4; ++i) cache.access(static_cast<std::uint64_t>(i) * 128);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.access(static_cast<std::uint64_t>(i) * 128));
  }
  cache.access(4 * 128);                  // evicts line 0 (LRU)
  EXPECT_FALSE(cache.access(0));
}

class CacheCapacitySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheCapacitySweep, WorkingSetWithinCapacityAlwaysHitsOnSecondPass) {
  const std::uint32_t lines = GetParam();
  SetAssocCache cache(lines * 128, 128, 4);
  // Sequential working set equal to capacity: second pass must fully hit
  // (LRU with power-of-two sets and sequential addresses is conflict-free).
  const std::uint32_t resident = cache.num_sets() * cache.ways();
  for (std::uint32_t i = 0; i < resident; ++i) cache.access(i * 128ull);
  cache.reset_stats();
  for (std::uint32_t i = 0; i < resident; ++i) cache.access(i * 128ull);
  EXPECT_EQ(cache.stats().misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(4u, 8u, 16u, 64u, 256u));

struct Geometry {
  const char* name;
  std::uint32_t capacity_bytes, line_bytes, ways;
};

TEST(CacheOracle, RandomStreamsMatchNaiveLru) {
  // Access by access, the flat cache must give the hit/miss answers of a
  // naive true-LRU list per set, through flush() and reset_stats().
  const DeviceSpec k40 = tesla_k40(), tiny = test_device();
  const Geometry geometries[] = {
      {"k40-l1", k40.l1_bytes, k40.l1_line_bytes, k40.l1_ways},
      {"k40-l2", k40.l2_bytes, k40.l2_line_bytes, k40.l2_ways},
      {"tiny-l1", tiny.l1_bytes, tiny.l1_line_bytes, tiny.l1_ways},
      {"tiny-l2", tiny.l2_bytes, tiny.l2_line_bytes, tiny.l2_ways},
  };
  for (const Geometry& g : geometries) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SetAssocCache cache(g.capacity_bytes, g.line_bytes, g.ways);
      oracle::LruCache naive(g.capacity_bytes, g.line_bytes, g.ways);
      util::Rng rng(seed);
      // Working sets from half to four times the capacity, swept and
      // sampled, so sets both fit and thrash.
      const std::uint64_t span = g.capacity_bytes * seed / 2;
      std::uint64_t sweep = 0;
      for (int i = 0; i < 40000; ++i) {
        if (i % 9001 == 9000) {
          cache.flush();
          naive.flush();
        }
        if (i % 7001 == 7000) {
          cache.reset_stats();
          naive.reset_stats();
        }
        std::uint64_t addr;
        if (rng.uniform_index(2) == 0) {
          addr = rng.uniform_index(span);
        } else {
          sweep = (sweep + g.line_bytes / 2) % span;
          addr = sweep;
        }
        ASSERT_EQ(cache.access(addr), naive.access(addr))
            << g.name << " seed " << seed << " access " << i;
      }
      EXPECT_EQ(cache.stats().hits, naive.hits()) << g.name;
      EXPECT_EQ(cache.stats().misses, naive.misses()) << g.name;
      EXPECT_GT(naive.hits(), 0u) << g.name;
      EXPECT_GT(naive.misses(), 0u) << g.name;
    }
  }
}


/// Random per-SM warp streams of L1-line-aligned addresses over a window of
/// `window_lines` lines: wide enough that the L1s miss often, and the L2
/// both hits and misses.
std::vector<std::vector<WarpReplay>> random_sm_streams(
    const DeviceSpec& spec, std::uint64_t seed, std::uint64_t window_lines) {
  util::Rng rng(seed);
  std::vector<std::vector<WarpReplay>> streams(spec.num_sms);
  std::vector<std::uint64_t> lines;
  for (std::vector<WarpReplay>& sm : streams) {
    sm.resize(1 + rng.uniform_index(6));
    for (WarpReplay& warp : sm) {
      const std::uint64_t instructions = rng.uniform_index(40);
      for (std::uint64_t i = 0; i < instructions; ++i) {
        lines.clear();
        const std::uint64_t base = rng.uniform_index(window_lines);
        const std::uint64_t count = 1 + rng.uniform_index(6);
        for (std::uint64_t k = 0; k < count; ++k) {
          // Half the lines run on from a base, half scatter.
          const std::uint64_t line = rng.uniform_index(2) == 0
                                         ? (base + k) % window_lines
                                         : rng.uniform_index(window_lines);
          lines.push_back(line * spec.l1_line_bytes);
        }
        warp.instructions.push_back(lines);
      }
    }
  }
  return streams;
}

/// The serial reference: each SM's warps through its L1, the misses of
/// SM 0, 1, ... through one L2 by replay_l2_lines.
KernelMetrics serial_replay(const DeviceSpec& spec,
                            const std::vector<std::vector<WarpReplay>>& sms) {
  KernelMetrics out;
  SetAssocCache l2(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways);
  for (const std::vector<WarpReplay>& warps : sms) {
    SetAssocCache l1(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways);
    std::vector<std::uint64_t> misses;
    replay_interleaved_l1(warps, spec, l1, out, misses);
    replay_l2_lines(misses, spec, l2, out);
  }
  return out;
}

TEST(ShardedReplay, MatchesSerialMergeOnRandomStreams) {
  // Every L2 set must see the serial SM-major access order, whatever the
  // geometry and the pool width, so every counter matches bit for bit.
  const DeviceSpec k40 = tesla_k40();
  const DeviceSpec tiny = test_device();
  // L1 line == L2 sector, and only 16 set groups for 64 shards.
  DeviceSpec equal_lines = test_device();
  equal_lines.num_sms = 3;
  equal_lines.l1_line_bytes = 64;
  equal_lines.l1_bytes = 64 * 8;
  equal_lines.l2_line_bytes = 64;
  equal_lines.l2_bytes = 64 * 16 * 4;
  // One L1 line covers more sectors than the L2 has sets: one group.
  DeviceSpec wide_lines = test_device();
  wide_lines.l1_line_bytes = 256;
  wide_lines.l1_bytes = 256 * 4;
  wide_lines.l2_ways = 16;
  wide_lines.l2_bytes = 32 * 2 * 16;
  // L1 line narrower than an L2 sector: one access per line.
  DeviceSpec narrow_lines = test_device();
  narrow_lines.num_sms = 5;
  narrow_lines.l1_line_bytes = 32;
  narrow_lines.l1_bytes = 32 * 8;
  narrow_lines.l2_line_bytes = 64;
  narrow_lines.l2_bytes = 64 * 128 * 4;
  const struct {
    const char* name;
    DeviceSpec spec;
    std::uint32_t shards;
  } cases[] = {{"k40", k40, kL2Shards},
               {"test-device", tiny, 8},
               {"equal-lines", equal_lines, 16},
               {"wide-lines", wide_lines, 1},
               {"narrow-lines", narrow_lines, kL2Shards}};

  for (const auto& c : cases) {
    const DeviceSpec& spec = c.spec;
    // Twice the L2's line capacity: it holds about half the window.
    const std::uint64_t window =
        std::max<std::uint64_t>(8, 2 * spec.l2_bytes / spec.l1_line_bytes);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto streams = random_sm_streams(spec, seed, window);
      const KernelMetrics want = serial_replay(spec, streams);
      ASSERT_GT(want.l2.hits, 0u) << c.name;
      ASSERT_GT(want.l2.misses, 0u) << c.name;
      std::vector<SmWarps> sms;
      for (const auto& warps : streams) {
        sms.push_back(SmWarps::one_group(warps));
      }
      for (unsigned threads : {1u, 8u}) {
        util::ThreadPool::set_global_threads(threads);
        ShardedReplay replay;
        KernelMetrics got;
        // Twice through one instance: the second run reuses its buffers.
        for (int run = 0; run < 2; ++run) {
          got = KernelMetrics{};
          replay.replay_l1(spec, sms);
          replay.merge_l2(got);
          EXPECT_EQ(replay.shards(), c.shards) << c.name;
          EXPECT_EQ(got.l1.hits, want.l1.hits) << c.name << " " << threads;
          EXPECT_EQ(got.l1.misses, want.l1.misses) << c.name << " " << threads;
          EXPECT_EQ(got.l2.hits, want.l2.hits) << c.name << " " << threads;
          EXPECT_EQ(got.l2.misses, want.l2.misses) << c.name << " " << threads;
          EXPECT_EQ(got.dram_bytes, want.dram_bytes) << c.name << " "
                                                     << threads;
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(ShardedReplay, ReusedAcrossGeometries) {
  // One instance replaying for one geometry, then another, then the first
  // again, answers as a fresh instance would each time.
  const DeviceSpec k40 = tesla_k40(), tiny = test_device();
  ShardedReplay replay;
  for (const DeviceSpec* spec : {&k40, &tiny, &k40}) {
    const auto streams = random_sm_streams(*spec, 7, 4096);
    std::vector<SmWarps> sms;
    for (const auto& warps : streams) sms.push_back(SmWarps::one_group(warps));
    const KernelMetrics want = serial_replay(*spec, streams);
    KernelMetrics got;
    replay.replay_l1(*spec, sms);
    replay.merge_l2(got);
    EXPECT_EQ(got.l1.hits, want.l1.hits) << spec->name;
    EXPECT_EQ(got.l2.hits, want.l2.hits) << spec->name;
    EXPECT_EQ(got.l2.misses, want.l2.misses) << spec->name;
    EXPECT_EQ(got.dram_bytes, want.dram_bytes) << spec->name;
  }
}

TEST(ShardedReplay, RejectsUnalignedLinesAndWrongSmCount) {
  const DeviceSpec spec = test_device();
  std::vector<WarpReplay> warps(1);
  const std::uint64_t unaligned[] = {spec.l1_line_bytes + 8};
  warps[0].instructions.push_back(unaligned);
  std::vector<SmWarps> sms(spec.num_sms);
  sms[0] = SmWarps::one_group(warps);
  ShardedReplay replay;
  EXPECT_THROW(replay.replay_l1(spec, sms), CheckError);
  sms.pop_back();
  EXPECT_THROW(replay.replay_l1(spec, sms), CheckError);
}

}  // namespace
}  // namespace bd::simt
