#pragma once
/// \file model_harness.hpp
/// Outside-in split of the SIMT model's cost. A harness kernel — one lane
/// per grid point sweeping the Two-Phase coarse partition with the public
/// beam::WakeIntegrand + quad::simpson_sweep — is run through each model
/// layer separately (lanes under NullProbe, lanes under LaneTrace, warp
/// analysis, per-SM L1 replay, SM-major L2 merge, time model) with the
/// same block/SM/resident grouping and pool parallelism as simt::launch,
/// and then through simt::launch itself. The summed counters of the staged
/// layers must equal launch's KernelMetrics bit for bit: that identity is
/// what makes the per-layer times a split of the same program.

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"

namespace perfbench {

/// Wall time, counts and memory of each model layer for one kernel.
struct ModelLayers {
  double kernel_ms = 0.0;     ///< lanes under NullProbe (physics only)
  double trace_ms = 0.0;      ///< lanes under simt::LaneTrace
  double analyze_ms = 0.0;    ///< simt::analyze_warp_groups, every warp
  double l1_replay_ms = 0.0;  ///< simt::replay_interleaved_l1, every SM
  double l2_merge_ms = 0.0;   ///< simt::replay_l2_lines, SM-major
  double launch_ms = 0.0;     ///< simt::launch on the same kernel
  std::uint64_t evaluations = 0;   ///< integrand evaluations per pass
  std::uint64_t lane_events = 0;   ///< loads + loops + branches recorded
  std::uint64_t replay_lines = 0;  ///< coalesced lines handed to L1 replay
  std::uint64_t l2_lines = 0;      ///< L1-miss lines handed to the L2
  double trace_peak_mb = 0.0;      ///< lane-trace bytes of the whole launch
  bd::simt::KernelMetrics staged;    ///< summed counters of the layers
  bd::simt::KernelMetrics launched;  ///< simt::launch's metrics
};

/// The Two-Phase coarse partition of `problem`: one interval per radial
/// subregion, as core::pattern_to_partition_into builds it from unit
/// patterns.
std::vector<double> coarse_partition(const bd::core::RpProblem& problem);

/// Run the harness kernel over `problem` through every model layer and
/// through simt::launch.
ModelLayers measure_model_layers(const bd::simt::DeviceSpec& device,
                                 const bd::core::RpProblem& problem);

/// Empty when `a` and `b` agree bit for bit in every counter and in the
/// modeled time; otherwise the name of the first field that differs.
std::string metrics_mismatch(const bd::simt::KernelMetrics& a,
                             const bd::simt::KernelMetrics& b);

}  // namespace perfbench
