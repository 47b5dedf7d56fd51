/// Tests for the profiler-style kernel metrics.

#include <gtest/gtest.h>

#include "simt/metrics.hpp"

namespace bd::simt {
namespace {

TEST(Metrics, WarpExecutionEfficiency) {
  KernelMetrics m;
  m.lane_slots = 64;
  m.active_lane_slots = 48;
  EXPECT_DOUBLE_EQ(m.warp_execution_efficiency(), 0.75);
}

TEST(Metrics, WarpEfficiencyDefaultsToOne) {
  KernelMetrics m;
  EXPECT_DOUBLE_EQ(m.warp_execution_efficiency(), 1.0);
}

TEST(Metrics, GlobalLoadEfficiencyCanExceedOne) {
  KernelMetrics m;
  m.bytes_requested = 256;
  m.bytes_transferred = 128;
  EXPECT_DOUBLE_EQ(m.global_load_efficiency(), 2.0);
}

TEST(Metrics, BranchDivergenceRate) {
  KernelMetrics m;
  m.branch_events = 10;
  m.divergent_branches = 3;
  EXPECT_DOUBLE_EQ(m.branch_divergence_rate(), 0.3);
  KernelMetrics none;
  EXPECT_DOUBLE_EQ(none.branch_divergence_rate(), 0.0);
}

TEST(Metrics, ArithmeticIntensity) {
  KernelMetrics m;
  m.flops = 2200;
  m.dram_bytes = 1000;
  EXPECT_DOUBLE_EQ(m.arithmetic_intensity(), 2.2);
  KernelMetrics no_traffic;
  no_traffic.flops = 5;
  EXPECT_DOUBLE_EQ(no_traffic.arithmetic_intensity(), 0.0);
}

TEST(Metrics, GflopsFromModeledTime) {
  KernelMetrics m;
  m.flops = 4'000'000'000ull;
  m.modeled_seconds = 2.0;
  EXPECT_DOUBLE_EQ(m.gflops(), 2.0);
  KernelMetrics untimed;
  untimed.flops = 100;
  EXPECT_DOUBLE_EQ(untimed.gflops(), 0.0);
}

TEST(Metrics, MergeSumsAllCounters) {
  KernelMetrics a;
  a.flops = 10;
  a.warp_instructions = 2;
  a.active_lane_slots = 30;
  a.lane_slots = 64;
  a.branch_events = 1;
  a.divergent_branches = 1;
  a.load_instructions = 3;
  a.bytes_requested = 100;
  a.bytes_transferred = 200;
  a.l1_transactions = 4;
  a.l1 = CacheStats{3, 1};
  a.l2 = CacheStats{2, 2};
  a.dram_bytes = 64;
  a.modeled_seconds = 0.5;

  KernelMetrics b = a;
  a += b;
  EXPECT_EQ(a.flops, 20u);
  EXPECT_EQ(a.warp_instructions, 4u);
  EXPECT_EQ(a.active_lane_slots, 60u);
  EXPECT_EQ(a.lane_slots, 128u);
  EXPECT_EQ(a.l1.hits, 6u);
  EXPECT_EQ(a.l2.misses, 4u);
  EXPECT_EQ(a.dram_bytes, 128u);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, 1.0);
}

}  // namespace
}  // namespace bd::simt
