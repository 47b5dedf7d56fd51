/// Outside-in host benchmark of the simulator: step throughput end to end
/// and a per-layer split of SIMT-model, solver, PIC and checkpoint cost.
/// It drives the library only through public functions and times calls
/// into each module from outside. See perfbench/README.md.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///   perfbench --selftest
///
/// The last line of standard output is one JSON object
/// {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
/// any correctness check failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "beam/analytic.hpp"
#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/clustering.hpp"
#include "core/fleet.hpp"
#include "core/rp_kernels.hpp"
#include "core/solver_scratch.hpp"
#include "model_harness.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bd;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 20170801;
/// Setups per run; setup_s reports their median.
constexpr int kSetups = 3;
/// Fewest measured steps (solo) or fleet rounds in a run, whatever
/// --seconds says.
constexpr std::size_t kMinSteps = 6;
constexpr std::size_t kMinRounds = 2;
/// Correctness bounds on the relative RMS error of the on-axis
/// longitudinal force against beam::analytic_force.
constexpr double kRigidForceBound = 0.08;
constexpr double kFleetForceBound = 0.35;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Median of `n` timed calls of `fn`, in milliseconds.
template <typename Fn>
double median_ms(int n, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const auto start = Clock::now();
    fn();
    ms.push_back(seconds_since(start) * 1e3);
  }
  return median(ms);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

unsigned pool_threads() { return util::ThreadPool::global().num_threads(); }

/// Relative RMS error of the on-axis longitudinal force grid against the
/// continuum solution, as bench_fig2_validation computes it.
double force_rel_err(const core::Simulation& sim) {
  const beam::Grid2D& force = sim.force_s();
  const beam::GridSpec& spec = force.spec();
  const core::SimConfig& config = sim.config();
  const std::uint32_t iy = spec.ny / 2;
  std::vector<double> computed, exact;
  for (std::uint32_t ix = 2; ix + 2 < spec.nx; ++ix) {
    computed.push_back(force.at(ix, iy));
    exact.push_back(beam::analytic_force(
        spec.x_at(ix), spec.y_at(iy), config.longitudinal, config.beam,
        config.sub_width * config.num_subregions, 1e-10));
  }
  return std::sqrt(util::mean_squared_error(computed, exact)) /
         util::rms(exact);
}

/// Metrics in print order, plus the run's correctness tally.
struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Printed with the metrics but not part of the result JSON.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> shown;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void add(const std::string& name, double value, const std::string& unit,
           bool in_json = true) {
    (in_json ? metrics : shown).push_back({name, {value, unit}});
  }
  /// Record a failed check.
  void violation(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    violations.push_back(what);
  }
  /// A violation that no failed operation accounts for still counts as
  /// one, so every violation shows in `failed`.
  void settle() {
    if (!violations.empty()) failed = std::max<std::uint64_t>(failed, 1);
    attempted = std::max(attempted, failed);
  }
  bool correct() const { return violations.empty() && failed == 0; }
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

void print_result(const Result& r) {
  for (const auto* list : {&r.metrics, &r.shown}) {
    for (const auto& [name, vu] : *list) {
      std::printf("%-28s %16s %s\n", name.c_str(), number(vu.first).c_str(),
                  vu.second.c_str());
    }
  }
  std::printf("%-28s %16s %s\n", "failed_fraction",
              number(r.attempted ? static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted)
                                 : 1.0)
                  .c_str(),
              "1");
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
            number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// --- per-layer harness calls ----------------------------------------------

/// Run the model-layer harness on `problem`, check the decomposition
/// identity, and add the simt.* metrics.
void add_model_layers(const core::RpProblem& problem, Result& r) {
  const perfbench::ModelLayers m =
      perfbench::measure_model_layers(simt::tesla_k40(), problem);
  const std::string diff = perfbench::metrics_mismatch(m.staged, m.launched);
  if (!diff.empty()) {
    r.violation("decomposition identity: staged model layers differ from "
                "simt::launch in " + diff);
  }
  r.add("simt.kernel_ms", m.kernel_ms, "ms");
  r.add("simt.trace_ms", m.trace_ms, "ms");
  r.add("simt.analyze_ms", m.analyze_ms, "ms");
  r.add("simt.l1_replay_ms", m.l1_replay_ms, "ms");
  r.add("simt.l2_merge_ms", m.l2_merge_ms, "ms");
  r.add("simt.launch_ms", m.launch_ms, "ms");
  r.add("simt.model_overhead_x", m.launch_ms / m.kernel_ms, "x");
  r.add("simt.lane_events", static_cast<double>(m.lane_events), "count");
  r.add("simt.replay_lines", static_cast<double>(m.replay_lines), "count");
  r.add("simt.l2_lines", static_cast<double>(m.l2_lines), "count");
  r.add("simt.trace_peak_mb", m.trace_peak_mb, "MiB");
  r.add("quad.null_ns_per_eval",
        m.kernel_ms * 1e6 / static_cast<double>(m.evaluations), "ns");
}

/// Time the two Two-Phase kernels (COMPUTE-RP-INTEGRAL over the coarse
/// partition, then RP-ADAPTIVEQUADRATURE) on a harness-owned scratch.
void add_kernel_layers(core::RpProblem problem, Result& r) {
  const simt::DeviceSpec device = simt::tesla_k40();
  core::SolverScratch scratch;
  problem.scratch = &scratch;
  quad::PartitionSet parts;
  parts.reset(problem.num_points());
  parts.bind_all(parts.add_row(perfbench::coarse_partition(problem)));
  const core::ClusterAssignment blocks =
      core::chunk_clustering(problem.num_points(), 128);
  core::RpKernelInput input;
  input.problem = &problem;
  input.clusters = &blocks;
  input.source = core::PartitionSource::kPerPoint;
  input.partitions = &parts;

  // The first round sizes the scratch arena; the second is timed.
  double kernel1_ms = 0.0, fallback_ms = 0.0;
  std::uint64_t evals = 0;
  for (int round = 0; round < 2; ++round) {
    auto start = Clock::now();
    core::RpKernelOutput k1 =
        core::run_compute_rp_integral(device, input, scratch);
    kernel1_ms = seconds_since(start) * 1e3;
    start = Clock::now();
    const core::FallbackOutput fb = core::run_adaptive_fallback(
        device, problem, k1.failed, k1.integral, k1.error, k1.contributions,
        scratch);
    fallback_ms = seconds_since(start) * 1e3;
    evals = k1.evaluations + fb.evaluations;
    if (!all_finite(k1.integral)) {
      r.violation("harness kernels produced a non-finite potential");
    }
  }
  r.add("core.kernel1_ms", kernel1_ms, "ms");
  r.add("core.fallback_ms", fallback_ms, "ms");
  r.add("quad.evals", static_cast<double>(evals), "count");
  r.add("quad.ns_per_eval",
        (kernel1_ms + fallback_ms) * 1e6 / static_cast<double>(evals), "ns");
}

/// Time PredictiveSolver::forecast() and rp_clustering_tiled (on a
/// harness-owned ClusteringCache, configured as the solver configures it).
void add_forecast_layers(const core::PredictiveSolver& solver,
                         const core::RpProblem& problem, Result& r) {
  const simt::DeviceSpec device = simt::tesla_k40();
  core::PatternField forecast;
  r.add("core.forecast_call_ms",
        median_ms(3, [&] { forecast = solver.forecast(problem); }), "ms");
  core::ClusteringCache cache;
  core::TiledClusteringOptions options;
  options.clusters = std::min<std::size_t>(
      std::clamp<std::size_t>(
          problem.num_points() /
              (device.resident_warps_per_sm * device.warp_size),
          4, 1024),
      problem.num_points());
  options.accel.enabled = true;
  options.accel.cache = &cache;
  r.add("core.cluster_call_ms", median_ms(3, [&] {
          core::rp_clustering_tiled(forecast, problem.grid(), options);
        }),
        "ms");
}

/// Save and restore `sim` through the public checkpoint API, and CRC a
/// buffer of the checkpoint's size.
void add_checkpoint_layers(core::Simulation& sim, const fs::path& dir,
                           Result& r) {
  const std::string path =
      (dir / ("harness-" + std::to_string(getpid()) + ".ckpt")).string();
  r.add("ckpt.save_ms", median_ms(3, [&] { core::save_checkpoint(sim, path); }),
        "ms");
  r.add("ckpt.restore_ms",
        median_ms(3, [&] { core::restore_checkpoint(sim, path); }), "ms");
  const auto bytes = static_cast<std::size_t>(fs::file_size(path));
  fs::remove(path);
  r.add("ckpt.mb", static_cast<double>(bytes) / (1024.0 * 1024.0), "MiB");
  std::vector<std::byte> buffer(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    buffer[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  }
  std::uint32_t crc = 0;
  r.add("util.crc32_ms", median_ms(3, [&] { crc = util::crc32(buffer); }),
        "ms");
  std::printf("# crc32 of the %zu-byte buffer: %08x\n", bytes, crc);
}

/// The numbers of one measured step (solo) or job-step (fleet) that the
/// metrics are built from. Only scalars are kept, so the record does not
/// add grid-sized memory per step to the measured process.
struct StepRecord {
  double step_ms = 0.0;  ///< step() wall time (solo) or phase total (fleet)
  bool traced = false;
  bool finite = true;    ///< every potential value finite
  double gpu_ms = 0.0;
  double forecast_ms = 0.0;
  double cluster_ms = 0.0;
  double learn_ms = 0.0;
  double forecast_mae = 0.0;
  double intervals = 0.0;
  double fallback = 0.0;
  double solve_ms = 0.0;
  double deposit_ms = 0.0;
  double gather_ms = 0.0;
  double push_ms = 0.0;
};

StepRecord step_record(const core::StepStats& stats, double step_ms,
                       bool traced) {
  const core::SolveResult& solve = stats.longitudinal;
  StepRecord rec;
  rec.step_ms = step_ms;
  rec.traced = traced;
  rec.finite = all_finite(solve.values.data());
  rec.gpu_ms = solve.gpu_seconds * 1e3;
  rec.forecast_ms = solve.forecast_seconds * 1e3;
  rec.cluster_ms = solve.clustering_seconds * 1e3;
  rec.learn_ms = solve.train_seconds * 1e3;
  rec.forecast_mae = solve.forecast_mae;
  rec.intervals = static_cast<double>(solve.kernel_intervals);
  rec.fallback = static_cast<double>(solve.fallback_items);
  rec.solve_ms = stats.phase_ms.solve_ms;
  rec.deposit_ms = stats.phase_ms.deposit_ms;
  rec.gather_ms = stats.phase_ms.gather_ms;
  rec.push_ms = stats.phase_ms.push_ms;
  return rec;
}

std::vector<double> field(const std::vector<StepRecord>& steps,
                          double StepRecord::*member) {
  std::vector<double> values;
  for (const StepRecord& s : steps) values.push_back(s.*member);
  return values;
}

void add_step_layers(const std::vector<StepRecord>& steps, bool from_steps,
                     Result& r) {
  if (from_steps) {
    r.add("core.forecast_ms", median(field(steps, &StepRecord::forecast_ms)),
          "ms");
    r.add("core.cluster_ms", median(field(steps, &StepRecord::cluster_ms)),
          "ms");
    r.add("core.learn_ms", median(field(steps, &StepRecord::learn_ms)), "ms");
    r.add("core.forecast_mae", mean(field(steps, &StepRecord::forecast_mae)),
          "1");
  }
  r.add("core.solve_ms", median(field(steps, &StepRecord::solve_ms)), "ms");
  const double intervals = mean(field(steps, &StepRecord::intervals));
  const double fallback = mean(field(steps, &StepRecord::fallback));
  r.add("core.kernel_intervals", intervals, "count");
  r.add("core.fallback_items", fallback, "count");
  r.add("core.kernel1_accept_ratio", 1.0 - fallback / intervals, "1");
  r.add("beam.deposit_ms", median(field(steps, &StepRecord::deposit_ms)), "ms");
  r.add("beam.gather_ms", median(field(steps, &StepRecord::gather_ms)), "ms");
  r.add("beam.push_ms", median(field(steps, &StepRecord::push_ms)), "ms");
}

/// Predictive-RP's host layers on a problem whose own solver never runs
/// them: a harness solver bootstraps on the problem, then solves it again
/// with its freshly trained model.
void add_predictive_layers_by_harness(core::RpProblem problem, Result& r) {
  core::SolverScratch scratch;
  problem.scratch = &scratch;
  core::PredictiveSolver solver(simt::tesla_k40());
  solver.solve(problem);
  const core::SolveResult res = solver.solve(problem);
  r.add("core.forecast_ms", res.forecast_seconds * 1e3, "ms");
  r.add("core.cluster_ms", res.clustering_seconds * 1e3, "ms");
  r.add("core.learn_ms", res.train_seconds * 1e3, "ms");
  r.add("core.forecast_mae", res.forecast_mae, "1");
  add_forecast_layers(solver, problem, r);
}

// --- workloads -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  fs::path out_dir = "perfbench/out";
};

struct SoloWorkload {
  const char* solver;
  std::uint32_t grid;
  std::size_t particles;
  std::size_t warmup;  ///< steps before the measured window
};

/// Tracing overhead of a run whose measured units (steps or fleet rounds)
/// alternate untraced and traced: median time per traced unit over median
/// time per untraced unit, as a percentage above 100. Medians keep a
/// fleet round stalled on disk I/O from posing as tracing cost.
double trace_overhead_pct(const std::vector<double>& untraced_s,
                          const std::vector<double>& traced_s) {
  return 100.0 * (median(traced_s) / median(untraced_s) - 1.0);
}

void run_solo(const SoloWorkload& w, const Args& args, Result& r) {
  core::SimConfig config =
      bench::bench_config(w.grid, w.particles, 1e-6, /*rigid=*/true);
  config.seed = args.seed;
  const simt::DeviceSpec device = simt::tesla_k40();

  std::vector<double> setup_s;
  std::unique_ptr<core::Simulation> sim;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    sim.reset();
    const auto start = Clock::now();
    sim = std::make_unique<core::Simulation>(
        config, bench::make_solver(w.solver, device));
    sim->initialize();
    for (std::size_t k = 0; k < w.warmup; ++k) sim->step();
    setup_s.push_back(seconds_since(start));
  }

  // The measured window. In the traced run every other step also records
  // the library's own trace spans, so the run prices its tracing.
  util::telemetry::TraceSession& session =
      util::telemetry::TraceSession::global();
  std::vector<StepRecord> steps;
  const double cpu0 = cpu_seconds();
  const auto window = Clock::now();
  bool stopped = false;
  while (!stopped &&
         (steps.size() < kMinSteps || seconds_since(window) < args.seconds)) {
    const bool traced = args.trace && steps.size() % 2 == 1;
    if (traced) session.start();
    const auto start = Clock::now();
    ++r.attempted;
    core::StepStats stats;
    try {
      stats = sim->step();
    } catch (const std::exception& e) {
      r.violation(std::string("step threw: ") + e.what());
      ++r.failed;
      stopped = true;
    }
    const double step_ms = seconds_since(start) * 1e3;
    if (traced) {
      session.stop();
      session.clear();
    }
    if (stopped) break;
    steps.push_back(step_record(stats, step_ms, traced));
    if (!steps.back().finite || !all_finite(sim->force_s().data())) {
      ++r.failed;
      r.violation("non-finite potential or force at step " +
                  std::to_string(stats.step));
    }
  }
  const double wall = seconds_since(window);
  const double cpu = cpu_seconds() - cpu0;

  const double err = force_rel_err(*sim);
  if (!(err < kRigidForceBound)) {
    ++r.failed;  // the last step's forces are wrong
    r.violation("force_rel_err " + number(err) + " over bound " +
                number(kRigidForceBound));
  }

  std::vector<double> untraced_s, traced_s;
  for (const StepRecord& s : steps) {
    (s.traced ? traced_s : untraced_s).push_back(s.step_ms);
  }
  const std::vector<double> step_ms = field(steps, &StepRecord::step_ms);
  const std::vector<double> gpu_ms = field(steps, &StepRecord::gpu_ms);
  std::printf("# measured %zu steps in %.3f s; setups %zu\n", steps.size(),
              wall, setup_s.size());
  if (!args.trace) {
    r.add("steps_per_s", static_cast<double>(steps.size()) / wall, "1/s");
    r.add("step_ms_p50", median(step_ms), "ms");
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("modeled_gpu_ms_per_step", mean(gpu_ms), "ms");
    r.add("force_rel_err", err, "1", /*in_json=*/false);
    return;
  }

  r.add("force_rel_err", err, "1");
  const core::RpProblem problem =
      sim->make_problem(sim->config().longitudinal);
  if (auto* predictive =
          dynamic_cast<core::PredictiveSolver*>(&sim->solver())) {
    add_step_layers(steps, /*from_steps=*/true, r);
    add_forecast_layers(*predictive, problem, r);
  } else {
    add_step_layers(steps, /*from_steps=*/false, r);
    add_predictive_layers_by_harness(problem, r);
  }
  add_kernel_layers(problem, r);
  add_model_layers(problem, r);
  add_checkpoint_layers(*sim, args.out_dir, r);
  r.add("fleet.evictions", 0.0, "count");
  r.add("fleet.resumes", 0.0, "count");
  r.add("fleet.quanta", 0.0, "count");
  r.add("util.cpu_busy_fraction", cpu / (wall * pool_threads()), "1");
  r.add("trace_overhead_pct", trace_overhead_pct(untraced_s, traced_s), "%");
}

// The fleet workload: drifting Predictive-RP jobs, checkpointed every
// quantum and evicted down to two resident simulations.
constexpr std::size_t kFleetJobs = 6;
constexpr std::uint32_t kFleetGrid = 16;
constexpr std::size_t kFleetParticles = 1000000;
constexpr std::size_t kFleetStepsPerJob = 6;

std::unique_ptr<core::Simulation> fleet_job_sim(std::uint64_t seed,
                                                std::size_t job) {
  core::SimConfig config = bench::bench_config(kFleetGrid, kFleetParticles,
                                               1e-6, /*rigid=*/false);
  config.seed = seed + 7919 * job;
  return std::make_unique<core::Simulation>(
      config, bench::make_solver("predictive", simt::tesla_k40()));
}

std::uint64_t counter(const util::telemetry::MetricsSnapshot& snap,
                      const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

void run_fleet(const Args& args, Result& r) {
  // The oracle: job 0 alone, outside any timed window. Its chained digest
  // must equal the fleet's; its first-step forces are checked against the
  // continuum solution before the bunch has moved.
  std::uint32_t oracle_digest = 0;
  double err = 0.0;
  {
    auto sim = fleet_job_sim(args.seed, 0);
    sim->initialize();
    for (std::size_t k = 0; k < kFleetStepsPerJob; ++k) {
      const core::StepStats stats = sim->step();
      oracle_digest = core::fleet_digest_step(stats, oracle_digest);
      if (k == 0) err = force_rel_err(*sim);
      if (!all_finite(sim->force_s().data())) {
        r.violation("oracle produced a non-finite force");
      }
    }
  }
  if (!(err < kFleetForceBound)) {
    r.violation("fleet force_rel_err " + number(err) + " over bound " +
                number(kFleetForceBound));
  }

  util::telemetry::TraceSession& session =
      util::telemetry::TraceSession::global();
  const util::telemetry::MetricsSnapshot before =
      util::telemetry::MetricsRegistry::global().snapshot();
  std::vector<double> round_s, setup_s, untraced_s, traced_s;
  std::vector<StepRecord> steps;
  std::size_t job_steps = 0;
  const double cpu0 = cpu_seconds();
  const auto window = Clock::now();
  for (std::size_t round = 0;
       round < kMinRounds || seconds_since(window) < args.seconds; ++round) {
    // A fresh pid-unique spool per round: a leftover fleet.journal would
    // be replayed by recover() and change the work done.
    const fs::path spool = args.out_dir / ("spool-" + std::to_string(getpid()) +
                                           "-" + std::to_string(round));
    fs::remove_all(spool);
    fs::create_directories(spool);
    const bool traced = args.trace && round % 2 == 1;
    if (traced) session.start();

    std::mutex mu;
    std::optional<Clock::time_point> first_step;
    std::vector<StepRecord> round_steps;
    const auto start = Clock::now();
    std::vector<core::FleetJobStatus> status;
    {
      core::FleetOptions options;
      options.max_resident = 2;
      options.spool_dir = spool.string();
      options.quantum_steps = 2;
      options.checkpoint_every_quanta = 1;
      core::SimulationFleet fleet(options);
      std::vector<core::SimulationFleet::JobId> ids;
      for (std::size_t j = 0; j < kFleetJobs; ++j) {
        core::FleetJobSpec spec;
        spec.name = "job" + std::to_string(j);
        spec.factory = [seed = args.seed, j] { return fleet_job_sim(seed, j); };
        spec.target_steps = kFleetStepsPerJob;
        spec.fault_spec = "none";
        spec.on_step = [&](const core::StepStats& stats) {
          const auto now = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          if (!first_step) first_step = now;
          round_steps.push_back(
              step_record(stats, stats.phase_ms.total_ms(), traced));
        };
        ids.push_back(fleet.submit(std::move(spec)));
      }
      fleet.wait_all();
      const double seconds = seconds_since(start);
      round_s.push_back(seconds);
      (traced ? traced_s : untraced_s).push_back(seconds);
      for (const auto id : ids) status.push_back(fleet.poll(id));
    }
    if (traced) {
      session.stop();
      session.clear();
    }
    fs::remove_all(spool);
    // Let the file system finish the removed spool's work (journal commit,
    // block discards) before the next round is timed, so no round pays
    // for its predecessor's I/O.
    sync();
    if (first_step) {
      setup_s.push_back(
          std::chrono::duration<double>(*first_step - start).count());
    }

    r.attempted += kFleetJobs * kFleetStepsPerJob;
    job_steps += kFleetJobs * kFleetStepsPerJob;
    for (std::size_t j = 0; j < status.size(); ++j) {
      const core::FleetJobStatus& s = status[j];
      if (s.state != core::FleetJobState::kDone || s.attempts != 0) {
        r.failed += kFleetStepsPerJob;
        r.violation("fleet job " + std::to_string(j) + " ended in state " +
                    std::to_string(static_cast<int>(s.state)) + " after " +
                    std::to_string(s.attempts) + " attempts: " + s.error);
      } else if (j == 0 && s.digest != oracle_digest) {
        r.failed += kFleetStepsPerJob;
        r.violation("fleet job 0 digest differs from its solo run");
      }
    }
    for (const StepRecord& rec : round_steps) {
      if (!rec.finite) {
        ++r.failed;
        r.violation("fleet job-step produced a non-finite potential");
      }
      steps.push_back(rec);
    }
  }
  const double wall = seconds_since(window);
  const double cpu = cpu_seconds() - cpu0;
  r.failed = std::min(r.failed, r.attempted);

  double fleet_s = 0.0;
  std::vector<double> round_rate;
  for (const double s : round_s) {
    fleet_s += s;
    round_rate.push_back(static_cast<double>(kFleetJobs * kFleetStepsPerJob) /
                         s);
  }
  const std::vector<double> step_ms = field(steps, &StepRecord::step_ms);
  const std::vector<double> gpu_ms = field(steps, &StepRecord::gpu_ms);
  std::printf("# measured %zu fleet rounds, %zu job-steps in %.3f s; round s:",
              round_s.size(), job_steps, fleet_s);
  for (const double s : round_s) std::printf(" %.3f", s);
  std::printf("\n");
  if (!args.trace) {
    // Median over rounds: the spool's disk I/O makes an occasional round
    // several times slower than its neighbours.
    r.add("steps_per_s", median(round_rate), "1/s");
    r.add("step_ms_p50", median(step_ms), "ms");
    r.add("setup_s", median(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("modeled_gpu_ms_per_step", mean(gpu_ms), "ms");
    r.add("force_rel_err", err, "1", /*in_json=*/false);
    return;
  }

  r.add("force_rel_err", err, "1");
  const util::telemetry::MetricsSnapshot after =
      util::telemetry::MetricsRegistry::global().snapshot();
  const auto rounds = static_cast<double>(round_s.size());
  // Layers of one job-sized simulation: bootstrap, then one predictive
  // step so its forecaster is trained.
  auto sim = fleet_job_sim(args.seed, 0);
  sim->initialize();
  sim->step();
  sim->step();
  const core::RpProblem problem =
      sim->make_problem(sim->config().longitudinal);
  add_step_layers(steps, /*from_steps=*/true, r);
  add_forecast_layers(dynamic_cast<core::PredictiveSolver&>(sim->solver()),
                      problem, r);
  add_kernel_layers(problem, r);
  add_model_layers(problem, r);
  add_checkpoint_layers(*sim, args.out_dir, r);
  r.add("fleet.evictions",
        double(counter(after, "fleet.evictions") -
               counter(before, "fleet.evictions")) / rounds,
        "count");
  r.add("fleet.resumes",
        double(counter(after, "fleet.resumes") -
               counter(before, "fleet.resumes")) / rounds,
        "count");
  r.add("fleet.quanta",
        double(counter(after, "fleet.quanta") -
               counter(before, "fleet.quanta")) / rounds,
        "count");
  r.add("util.cpu_busy_fraction", cpu / (wall * pool_threads()), "1");
  r.add("trace_overhead_pct", trace_overhead_pct(untraced_s, traced_s),
        "%");
}

/// The decomposition identity at 16²: the staged model layers must sum to
/// simt::launch's KernelMetrics on a tiny rigid bunch.
void selftest(Result& r) {
  core::Simulation sim(bench::bench_config(16, 4000),
                       bench::make_solver("two-phase", simt::tesla_k40()));
  sim.initialize();
  sim.step();
  const perfbench::ModelLayers m = perfbench::measure_model_layers(
      simt::tesla_k40(), sim.make_problem(sim.config().longitudinal));
  ++r.attempted;
  const std::string diff = perfbench::metrics_mismatch(m.staged, m.launched);
  if (!diff.empty()) {
    ++r.failed;
    r.violation("16x16 decomposition identity fails in " + diff);
  }
  r.add("selftest.lane_events", static_cast<double>(m.lane_events), "count");
  r.add("selftest.modeled_ms", m.launched.modeled_seconds * 1e3, "ms");
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return args.selftest || !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> [--seed N] "
                   "[--seconds S] [--trace 0|1] [--out-dir DIR] | "
                   "--selftest\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  fs::create_directories(args.out_dir);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d threads=%u "
              "simd=%s build=%s nproc=%u\n",
              args.selftest ? "selftest" : args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, pool_threads(),
              simd::level_name(simd::active_level()), PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());

  Result result;
  try {
    // The decomposition identity at 16² runs in every invocation, before
    // anything is timed.
    Result identity;
    selftest(identity);
    for (const std::string& v : identity.violations) result.violation(v);
    if (args.selftest) {
      result = identity;
    } else if (args.workload == "rigid-predictive-64") {
      run_solo({"predictive", 64, 50000, 2}, args, result);
    } else if (args.workload == "rigid-twophase-96") {
      run_solo({"two-phase", 96, 75000, 1}, args, result);
    } else if (args.workload == "fleet-pic-16") {
      run_fleet(args, result);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  result.settle();
  print_result(result);
  return result.correct() ? 0 : 1;
}
