/// Tests for the set-associative LRU cache model.

#include <gtest/gtest.h>

#include "oracles/lru_cache.hpp"
#include "simt/cache.hpp"
#include "simt/device.hpp"
#include "util/check.hpp"
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

}  // namespace
}  // namespace bd::simt
