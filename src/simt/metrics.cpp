#include "simt/metrics.hpp"

namespace bd::simt {

double KernelMetrics::warp_execution_efficiency() const {
  if (lane_slots == 0) return 1.0;
  return static_cast<double>(active_lane_slots) /
         static_cast<double>(lane_slots);
}

double KernelMetrics::global_load_efficiency() const {
  if (bytes_transferred == 0) return 1.0;
  return static_cast<double>(bytes_requested) /
         static_cast<double>(bytes_transferred);
}

double KernelMetrics::branch_divergence_rate() const {
  if (branch_events == 0) return 0.0;
  return static_cast<double>(divergent_branches) /
         static_cast<double>(branch_events);
}

double KernelMetrics::arithmetic_intensity() const {
  if (dram_bytes == 0) return 0.0;
  return static_cast<double>(flops) / static_cast<double>(dram_bytes);
}

double KernelMetrics::gflops() const {
  if (modeled_seconds <= 0.0) return 0.0;
  return static_cast<double>(flops) / modeled_seconds / 1e9;
}

KernelMetrics& KernelMetrics::operator+=(const KernelMetrics& other) {
  flops += other.flops;
  warp_instructions += other.warp_instructions;
  active_lane_slots += other.active_lane_slots;
  lane_slots += other.lane_slots;
  branch_events += other.branch_events;
  divergent_branches += other.divergent_branches;
  load_instructions += other.load_instructions;
  bytes_requested += other.bytes_requested;
  bytes_transferred += other.bytes_transferred;
  l1_transactions += other.l1_transactions;
  l1 += other.l1;
  l2 += other.l2;
  dram_bytes += other.dram_bytes;
  modeled_seconds += other.modeled_seconds;
  return *this;
}

}  // namespace bd::simt
