/// Tests for the SIMT executor: launch geometry, determinism, divergence
/// and cache behaviour of simple synthetic kernels.

#include <gtest/gtest.h>

#include <bit>
#include <thread>
#include <vector>

#include "simt/executor.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace bd::simt {
namespace {

constexpr std::uint32_t kLoad = site_id("exec/load");
constexpr std::uint32_t kLoop = site_id("exec/loop");

TEST(Executor, RunsEveryThreadExactlyOnce) {
  const DeviceSpec spec = test_device();
  std::vector<int> visits(256, 0);
  launch(spec, LaunchConfig{4, 64}, [&](const ThreadCtx& ctx, LaneProbe&) {
    ++visits[ctx.global_id];
    BD_CHECK(ctx.thread_id < 64);
    BD_CHECK(ctx.block_id < 4);
    BD_CHECK(ctx.global_id == ctx.block_id * 64 + ctx.thread_id);
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Executor, DeterministicMetrics) {
  const DeviceSpec spec = test_device();
  std::vector<double> data(4096, 1.0);
  auto kernel = [&](const ThreadCtx& ctx, LaneProbe& probe) {
    const std::size_t base = (ctx.global_id * 37) % 4000;
    probe.load(kLoad, &data[base], 8);
    probe.count_flops(4);
  };
  const KernelMetrics m1 = launch(spec, LaunchConfig{8, 32}, kernel);
  const KernelMetrics m2 = launch(spec, LaunchConfig{8, 32}, kernel);
  EXPECT_EQ(m1.flops, m2.flops);
  EXPECT_EQ(m1.l1.hits, m2.l1.hits);
  EXPECT_EQ(m1.l2.misses, m2.l2.misses);
  EXPECT_EQ(m1.dram_bytes, m2.dram_bytes);
  EXPECT_DOUBLE_EQ(m1.modeled_seconds, m2.modeled_seconds);
}

TEST(Executor, UniformKernelHasPerfectWarpEfficiency) {
  const DeviceSpec spec = test_device();
  const KernelMetrics m =
      launch(spec, LaunchConfig{2, 64}, [](const ThreadCtx&, LaneProbe& p) {
        p.loop_trip(kLoop, 10);
        p.count_flops(100);
      });
  EXPECT_DOUBLE_EQ(m.warp_execution_efficiency(), 1.0);
  EXPECT_EQ(m.flops, 2u * 64u * 100u);
}

TEST(Executor, DataDependentTripsReduceEfficiency) {
  const DeviceSpec spec = test_device();
  const KernelMetrics m =
      launch(spec, LaunchConfig{2, 64}, [](const ThreadCtx& ctx, LaneProbe& p) {
        p.loop_trip(kLoop, 1 + (ctx.thread_id % 32));  // 1..32 per warp
      });
  // Sum of 1..32 active over 32 iterations of 32 lanes.
  const double expected = (32.0 * 33.0 / 2.0) / (32.0 * 32.0);
  EXPECT_NEAR(m.warp_execution_efficiency(), expected, 1e-12);
}

TEST(Executor, SharedReadsAcrossBlocksHitL2) {
  DeviceSpec spec = test_device();
  spec.num_sms = 1;  // all blocks share one L1 too
  std::vector<double> table(16, 1.0);
  const KernelMetrics m =
      launch(spec, LaunchConfig{8, 32}, [&](const ThreadCtx&, LaneProbe& p) {
        p.load(kLoad, table.data(), 8);
      });
  // One compulsory miss; every other block/warp hits.
  EXPECT_EQ(m.l1.misses, 1u);
  EXPECT_GT(m.l1.hits, 0u);
  EXPECT_EQ(m.dram_bytes, 128u);
}

TEST(Executor, ValidatesLaunchConfig) {
  const DeviceSpec spec = test_device();
  auto noop = [](const ThreadCtx&, LaneProbe&) {};
  EXPECT_THROW(launch(spec, LaunchConfig{0, 32}, noop), CheckError);
  EXPECT_THROW(launch(spec, LaunchConfig{1, 0}, noop), CheckError);
  EXPECT_THROW(launch(spec, LaunchConfig{1, 4096}, noop), CheckError);
}

TEST(Executor, PartialLastWarpAccounted) {
  const DeviceSpec spec = test_device();
  // 40 threads = one full warp + one 8-lane warp.
  const KernelMetrics m =
      launch(spec, LaunchConfig{1, 40}, [](const ThreadCtx&, LaneProbe& p) {
        p.loop_trip(kLoop, 4);
      });
  // Full warp: 4*32 slots active 4*32; partial: 4*32 slots active 4*8.
  EXPECT_EQ(m.lane_slots, 8u * 32u);
  EXPECT_EQ(m.active_lane_slots, 4u * 32u + 4u * 8u);
}

TEST(Executor, TimeModelApplied) {
  const DeviceSpec spec = test_device();
  const KernelMetrics m =
      launch(spec, LaunchConfig{1, 32}, [](const ThreadCtx&, LaneProbe& p) {
        p.count_flops(1000);
      });
  EXPECT_GT(m.modeled_seconds, 0.0);
  EXPECT_GT(m.gflops(), 0.0);
}

TEST(Executor, BlocksRoundRobinOverSms) {
  // Two SMs: blocks 0,2 on SM0 and 1,3 on SM1. Each block reads its own
  // disjoint data; private L1s mean every block's first read misses, and
  // re-reads within the block hit.
  DeviceSpec spec = test_device();
  spec.num_sms = 2;
  std::vector<double> data(4 * 64, 0.0);
  const KernelMetrics m =
      launch(spec, LaunchConfig{4, 32}, [&](const ThreadCtx& ctx, LaneProbe& p) {
        p.load(kLoad, &data[ctx.block_id * 64], 8);
        p.load(kLoad, &data[ctx.block_id * 64], 8);
      });
  EXPECT_EQ(m.l1.misses, 4u);
  EXPECT_EQ(m.l1.hits, 4u);
}

TEST(Executor, UnequalBlocksBitwiseIdenticalAcrossThreadCounts) {
  // Blocks of very different cost, as Predictive-RP's clusters are: warps
  // finish out of order on a wide pool, yet every counter and the modeled
  // time must match the 1-thread launch bit for bit.
  const DeviceSpec spec = tesla_k40();
  std::vector<double> data(1 << 16, 1.0);
  auto kernel = [&](const ThreadCtx& ctx, LaneProbe& p) {
    const std::uint32_t trips = (ctx.block_id * ctx.block_id) % 7 * 40 +
                                (ctx.thread_id % 5) + 1;
    p.loop_trip(kLoop, trips);
    for (std::uint32_t i = 0; i < trips; ++i) {
      const std::size_t at =
          (ctx.global_id * 97 + i * (1 + ctx.block_id) * 131) % data.size();
      p.load(kLoad, &data[at], 8);
    }
    p.count_flops(trips * 3);
  };
  const LaunchConfig config{8, 512};
  util::ThreadPool::set_global_threads(1);
  const KernelMetrics serial = launch(spec, config, kernel);
  util::ThreadPool::set_global_threads(8);
  const KernelMetrics parallel = launch(spec, config, kernel);
  util::ThreadPool::set_global_threads(0);
  ASSERT_GT(serial.l2.hits, 0u);
  ASSERT_GT(serial.l2.misses, 0u);
  EXPECT_EQ(parallel.flops, serial.flops);
  EXPECT_EQ(parallel.warp_instructions, serial.warp_instructions);
  EXPECT_EQ(parallel.active_lane_slots, serial.active_lane_slots);
  EXPECT_EQ(parallel.lane_slots, serial.lane_slots);
  EXPECT_EQ(parallel.load_instructions, serial.load_instructions);
  EXPECT_EQ(parallel.bytes_requested, serial.bytes_requested);
  EXPECT_EQ(parallel.bytes_transferred, serial.bytes_transferred);
  EXPECT_EQ(parallel.l1_transactions, serial.l1_transactions);
  EXPECT_EQ(parallel.l1.hits, serial.l1.hits);
  EXPECT_EQ(parallel.l1.misses, serial.l1.misses);
  EXPECT_EQ(parallel.l2.hits, serial.l2.hits);
  EXPECT_EQ(parallel.l2.misses, serial.l2.misses);
  EXPECT_EQ(parallel.dram_bytes, serial.dram_bytes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.modeled_seconds),
            std::bit_cast<std::uint64_t>(serial.modeled_seconds));
}

TEST(Executor, LanesOfAWarpRunInLaneOrderOnOneThread) {
  // The lane-concurrency contract: a warp's lanes run serially, in lane
  // order, on one thread. Each warp logs into its own slot, which the
  // contract makes race-free.
  util::ThreadPool::set_global_threads(8);
  const DeviceSpec spec = test_device();
  const LaunchConfig config{6, 80};  // 3 warps per block, the last partial
  const std::uint32_t warps_per_block = config.warps_per_block(spec.warp_size);
  ASSERT_EQ(warps_per_block, 3u);
  struct Entry {
    std::thread::id thread;
    ThreadCtx ctx;
  };
  std::vector<std::vector<Entry>> log(config.num_warps(spec.warp_size));
  launch(spec, config, [&](const ThreadCtx& ctx, LaneProbe&) {
    log[ctx.warp_id].push_back(Entry{std::this_thread::get_id(), ctx});
  });
  util::ThreadPool::set_global_threads(0);
  for (std::uint32_t w = 0; w < log.size(); ++w) {
    const std::uint32_t block = w / warps_per_block;
    const std::uint32_t first = (w % warps_per_block) * spec.warp_size;
    const std::uint32_t lanes =
        std::min(spec.warp_size, config.threads_per_block - first);
    ASSERT_EQ(log[w].size(), lanes) << "warp " << w;
    for (std::uint32_t i = 0; i < lanes; ++i) {
      const Entry& e = log[w][i];
      EXPECT_EQ(e.thread, log[w][0].thread) << "warp " << w;
      EXPECT_EQ(e.ctx.block_id, block);
      EXPECT_EQ(e.ctx.thread_id, first + i);
      EXPECT_EQ(e.ctx.global_id, block * config.threads_per_block + first + i);
      EXPECT_EQ(e.ctx.warp_id, w);
    }
  }
}

}  // namespace
}  // namespace bd::simt
