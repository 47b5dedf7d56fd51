#include "core/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "core/checkpoint.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"

namespace bd::core {

namespace telemetry = util::telemetry;

// ---------------------------------------------------------------------------
// Physics digest
// ---------------------------------------------------------------------------

namespace {

void digest_solve(util::BinaryWriter& out, const SolveResult& result) {
  out.write_f64_span(result.values.data());
  out.write_f64_span(result.errors.data());
  out.write_u64(result.fallback_items);
  out.write_u64(result.kernel_intervals);
  out.write_u64(result.sanitized_forecasts);
  out.write_f64(result.forecast_mae);
}

}  // namespace

std::uint32_t fleet_digest_step(const StepStats& stats, std::uint32_t prev) {
  util::BinaryWriter out;
  out.write_i64(stats.step);
  out.write_f64(stats.dropped_charge);
  digest_solve(out, stats.longitudinal);
  out.write_bool(stats.transverse.has_value());
  if (stats.transverse) digest_solve(out, *stats.transverse);
  return util::crc32(out.payload(), prev);
}

// ---------------------------------------------------------------------------
// Journal: one event type, one codec, one transition (docs/ROBUSTNESS.md
// documents the format and tabulates apply()).
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kJournalVersion = 1;

/// Payload layout: u8 kind, then kind-specific fields (BinaryWriter
/// encoding). The frame around each payload is util/serialize's
/// append_journal_record. New kinds bump kJournalVersion; a reader
/// rejects versions above its own (same policy as checkpoints).
enum class RecordKind : std::uint8_t {
  kHeader = 0,       ///< u32 version — always the first record
  kSubmit = 1,       ///< name, target u64, fault_spec, max_attempts, backoff
  kStart = 2,        ///< name — first quantum in this process began
  kCheckpoint = 3,   ///< name, step u64, digest u32 — precedes spool write
  kComplete = 4,     ///< name, steps u64, digest u32
  kFailAttempt = 5,  ///< name, attempt u32, error — a retry will follow
  kFailTerminal = 6, ///< name, error — setup or spool failure, never retried
  kQuarantine = 7,   ///< name, attempts u32, error — retry budget exhausted
  kCancel = 8,       ///< name
  kShutdown = 9,     ///< clean drain() — no payload beyond the kind
  kRetryState = 10,  ///< name, attempts u32, error — written by compaction
};

/// One journal record. Each kind carries the fields its RecordKind
/// comment lists; the rest stay default. A default Event is the header.
struct Event {
  explicit Event(RecordKind kind = RecordKind::kHeader, std::string name = {},
                 std::uint64_t step = 0, std::uint32_t digest = 0)
      : kind(kind), name(std::move(name)), step(step), digest(digest) {}

  RecordKind kind;
  std::string name;
  std::uint64_t step;          ///< submit: target steps; checkpoint, complete
  std::uint32_t digest;        ///< checkpoint, complete
  std::uint32_t attempts = 0;  ///< fail_attempt, quarantine, retry_state
  std::uint32_t version = kJournalVersion;  ///< header
  std::string text;            ///< submit: fault spec; otherwise the error
  RetryPolicy retry;           ///< submit
};

/// fail_attempt, fail_terminal, quarantine, retry_state
Event failure_event(RecordKind kind, const std::string& name,
                    std::uint32_t attempts, const std::string& error) {
  Event e(kind, name);
  e.attempts = attempts;
  e.text = error;
  return e;
}

Event submit_event(const std::string& name, std::uint64_t target_steps,
                   const std::string& fault_spec, const RetryPolicy& retry) {
  Event e(RecordKind::kSubmit, name, target_steps);
  e.text = fault_spec;
  e.retry = retry;
  return e;
}

/// The payload layout after the kind byte, walked field by field:
/// encode() and decode() share it, so the two cannot drift apart.
template <class Field, class E>
void walk_fields(E& e, Field&& field) {
  if (e.kind == RecordKind::kHeader) return field(e.version);
  if (e.kind == RecordKind::kShutdown) return;
  field(e.name);
  switch (e.kind) {
    case RecordKind::kSubmit:
      field(e.step);
      field(e.text);
      field(e.retry.max_attempts);
      field(e.retry.backoff_rounds);
      break;
    case RecordKind::kCheckpoint:
    case RecordKind::kComplete:
      field(e.step);
      field(e.digest);
      break;
    case RecordKind::kFailAttempt:
    case RecordKind::kQuarantine:
    case RecordKind::kRetryState:
      field(e.attempts);
      [[fallthrough]];
    case RecordKind::kFailTerminal:
      field(e.text);
      break;
    default:  // start, cancel: the name alone
      break;
  }
}

util::BinaryWriter encode(const Event& e) {
  util::BinaryWriter out;
  out.write_u8(static_cast<std::uint8_t>(e.kind));
  walk_fields(e, [&out]<class T>(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) out.write_string(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) out.write_u64(v);
    else out.write_u32(v);
  });
  return out;
}

/// Inverse of encode(). An unknown kind means the journal came from a
/// newer build.
Event decode(std::span<const std::byte> payload) {
  util::BinaryReader in(payload);
  const std::uint8_t kind = in.read_u8();
  BD_CHECK_MSG(kind <= static_cast<std::uint8_t>(RecordKind::kRetryState),
               "fleet journal: unknown record kind " << static_cast<int>(kind));
  Event e(static_cast<RecordKind>(kind));
  walk_fields(e, [&in]<class T>(T& v) {
    if constexpr (std::is_same_v<T, std::string>) v = in.read_string();
    else if constexpr (std::is_same_v<T, std::uint64_t>) v = in.read_u64();
    else v = in.read_u32();
  });
  return e;
}

/// Everything the journal knows about one job name.
struct JobRecord {
  explicit JobRecord(std::string name = {}) : name(std::move(name)) {}

  std::string name;
  std::uint64_t target_steps = 0;
  std::string fault_spec;
  RetryPolicy retry;
  std::map<std::uint64_t, std::uint32_t> checkpoints;  ///< step -> digest
  std::uint32_t attempts = 0;
  std::string error;
  /// kQueued = open (incomplete); otherwise the journaled terminal state.
  FleetJobState terminal = FleetJobState::kQueued;
  std::uint64_t final_steps = 0;   ///< from complete
  std::uint32_t final_digest = 0;  ///< from complete
};

/// The one job-state transition. Live code reaches it through commit()
/// (journal append, then apply); recover() applies decoded records.
/// Duplicate terminal records are idempotent (last wins).
void apply(JobRecord& r, const Event& e) {
  switch (e.kind) {
    case RecordKind::kSubmit:
      // Re-submitting a finished name starts a new job; re-submitting an
      // open one (adoption) keeps its checkpoints and attempts.
      if (r.terminal != FleetJobState::kQueued) r = JobRecord(r.name);
      r.target_steps = e.step;
      r.fault_spec = e.text;
      r.retry = e.retry;
      break;
    case RecordKind::kCheckpoint:
      r.checkpoints[e.step] = e.digest;
      break;
    case RecordKind::kComplete:
      r.terminal = FleetJobState::kDone;
      r.final_steps = e.step;
      r.final_digest = e.digest;
      r.error.clear();  // a retried-then-successful job reports no error
      break;
    case RecordKind::kQuarantine:
      r.terminal = FleetJobState::kQuarantined;
      [[fallthrough]];
    case RecordKind::kFailAttempt:
    case RecordKind::kRetryState:
      r.attempts = e.attempts;
      r.error = e.text;
      break;
    case RecordKind::kFailTerminal:
      r.terminal = FleetJobState::kFailed;
      r.error = e.text;
      break;
    case RecordKind::kCancel:
      r.terminal = FleetJobState::kCancelled;
      break;
    default:  // header, start, shutdown: no job state
      break;
  }
}

/// The events that rebuild an open record — what compaction writes.
std::vector<Event> rebuild_events(const JobRecord& r) {
  std::vector<Event> events{
      submit_event(r.name, r.target_steps, r.fault_spec, r.retry)};
  if (r.attempts > 0) {
    events.push_back(failure_event(RecordKind::kRetryState, r.name,
                                   r.attempts, r.error));
  }
  for (const auto& [step, digest] : r.checkpoints) {
    events.emplace_back(RecordKind::kCheckpoint, r.name, step, digest);
  }
  return events;
}

/// A done job reports its final step/digest, an open or failed one its
/// last journaled checkpoint (0/0 when none).
FleetRecoveredJob recovered_job(const JobRecord& r) {
  std::pair<std::uint64_t, std::uint32_t> last{r.final_steps, r.final_digest};
  if (r.terminal != FleetJobState::kDone) {
    last = {};
    if (!r.checkpoints.empty()) last = *r.checkpoints.rbegin();
  }
  return {r.name, r.terminal, static_cast<std::size_t>(r.target_steps),
          static_cast<std::size_t>(last.first), last.second, r.attempts,
          r.error, /*resubmitted=*/false};
}

/// The last good checkpoint stays on disk for postmortem.
FleetQuarantineEntry quarantine_entry(const JobRecord& r,
                                      const std::string& spool_path) {
  const bool kept = !spool_path.empty() && std::filesystem::exists(spool_path);
  return {r.name, r.attempts, r.error, kept ? spool_path : std::string()};
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Fleet internals
// ---------------------------------------------------------------------------

struct SimulationFleet::Job {
  JobId id = 0;
  /// The journal's view of the job. Written only through Impl::commit
  /// (apply under Impl::mu, since poll() reads it); the owning lane may
  /// read it lock-free while the job is kRunning.
  JobRecord record;
  std::function<std::unique_ptr<Simulation>()> factory;
  std::function<void(const StepStats&)> on_step;
  std::string spool_path;  ///< "" when the fleet has no spool directory

  FleetJobState state = FleetJobState::kQueued;  ///< guarded by Impl::mu

  /// Progress fields are written lock-free by the one lane that owns the
  /// job while it is kRunning and read by poll() — hence atomic.
  std::atomic<std::size_t> steps_done{0};
  std::atomic<std::uint32_t> digest{0};
  std::atomic<bool> cancel_requested{false};

  /// Watchdog channel. The owning lane publishes `running_sim` with
  /// release (so the acquire load sees a fully constructed Simulation)
  /// while the quantum is in flight and clears it (under Impl::mu)
  /// before every sim.reset(); the driver dereferences it only under
  /// Impl::mu, so the pointer it reads is never mid-destruction.
  /// Timestamps are steady-clock nanoseconds (0 = not in a step /
  /// quantum).
  std::atomic<Simulation*> running_sim{nullptr};
  std::atomic<std::uint64_t> quantum_start_ns{0};
  std::atomic<std::uint64_t> step_start_ns{0};
  std::atomic<bool> watchdog_flagged{false};
  /// Mirrors `sim != nullptr`. The owning lane builds the sim outside
  /// Impl::mu (factory/restore are slow I/O), so other lanes counting
  /// residents must read this flag, not the unique_ptr itself.
  std::atomic<bool> sim_live{false};

  /// Lane-owned scheduling state.
  std::uint32_t exhausted_streak = 0;  ///< unhealthy steps on the last rung
  std::size_t quanta_run = 0;          ///< quanta begun in this process

  /// Job-private isolation: telemetry targets and fault harness live as
  /// long as the job, surviving eviction and retries — so a
  /// `class[@step][:count]` budget is consumed once per job, never
  /// re-armed by a resume/retry and never shared with a neighbour sim.
  std::unique_ptr<telemetry::MetricsRegistry> metrics =
      std::make_unique<telemetry::MetricsRegistry>();
  std::unique_ptr<telemetry::TraceSession> trace =
      std::make_unique<telemetry::TraceSession>();
  std::unique_ptr<util::faultinject::FaultHarness> harness;

  std::unique_ptr<Simulation> sim;  ///< resident iff non-null

  /// Destroy the resident sim. Caller holds Impl::mu.
  void release_sim() {
    running_sim.store(nullptr, std::memory_order_relaxed);
    sim_live.store(false, std::memory_order_relaxed);
    sim.reset();
  }

  /// Caller holds Impl::mu.
  FleetJobStatus status() const {
    return {state, steps_done.load(std::memory_order_relaxed),
            static_cast<std::size_t>(record.target_steps),
            digest.load(std::memory_order_relaxed),
            fleet_job_terminal(state) ? record.error : std::string(),
            record.attempts};
  }
};

struct SimulationFleet::Impl {
  mutable std::mutex mu;
  std::condition_variable work_cv;  ///< driver: new work or shutdown
  std::condition_variable done_cv;  ///< waiters: a quantum ended / terminal
  std::vector<std::unique_ptr<Job>> jobs;   // guarded by mu (vector itself)
  std::deque<JobId> ready;                  // guarded by mu
  /// Jobs sitting out a retry backoff: (release_round, id), guarded by mu.
  std::vector<std::pair<std::uint64_t, JobId>> backoff;
  std::uint64_t round_counter = 0;          // guarded by mu
  bool stop = false;                        // guarded by mu
  bool stopping = false;  ///< dtor in progress: keep evicted spool files
  bool draining = false;  ///< drain() in progress/finished: freeze queue
  std::thread driver;

  /// Journal: appends are serialized by journal_mu alone; mu -> journal_mu
  /// is the only permitted nesting order.
  std::mutex journal_mu;
  std::string journal_path;  ///< "" = journaling disabled

  std::vector<FleetQuarantineEntry> quarantine;       // guarded by mu
  std::vector<FleetRecoveredJob> recovered_report;    // guarded by mu
  /// Replayed open records awaiting the submit() that adopts them.
  std::map<std::string, JobRecord> open_records;      // guarded by mu

  void append(const Event& event) {
    if (journal_path.empty()) return;
    const util::BinaryWriter out = encode(event);
    std::lock_guard<std::mutex> lk(journal_mu);
    util::append_journal_record(journal_path, out.payload());
  }

  /// The live transition: journal `event`, then apply it to the job's
  /// record. The append runs outside mu; the apply runs under it.
  void commit(Job& job, const Event& event) {
    append(event);
    std::lock_guard<std::mutex> lk(mu);
    apply(job.record, event);
  }

  /// commit() for a caller that already holds mu.
  void commit_locked(Job& job, const Event& event) {
    append(event);
    apply(job.record, event);
  }

  /// Journal a checkpoint of the job's current step, then write its spool
  /// file. Journal first: a crash in between leaves the previous spool
  /// file, whose digest the journal already holds. Throws when the write
  /// fails.
  void checkpoint(Job& job) {
    commit(job, Event(RecordKind::kCheckpoint, job.record.name,
                      job.steps_done.load(std::memory_order_relaxed),
                      job.digest.load(std::memory_order_relaxed)));
    save_checkpoint(*job.sim, job.spool_path);
  }
};

// ---------------------------------------------------------------------------
// Construction: stale-tmp sweep, journal replay, compaction
// ---------------------------------------------------------------------------

SimulationFleet::SimulationFleet(FleetOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>()) {
  if (options_.quantum_steps == 0) options_.quantum_steps = 1;
  BD_CHECK_MSG(options_.max_resident == 0 || !options_.spool_dir.empty(),
               "SimulationFleet: max_resident > 0 requires a spool_dir");
  if (!options_.spool_dir.empty()) {
    std::filesystem::create_directories(options_.spool_dir);
    impl_->journal_path = options_.spool_dir + "/fleet.journal";
    // A process that crashed mid-checkpoint leaves its staging file behind.
    if (const auto n = util::remove_dead_stage_files(options_.spool_dir)) {
      telemetry::counter_add("fleet.stale_tmp_removed", n);
    }
    recover();
  }
  // The driver checks its wait predicate first, so recovered jobs already
  // on the ready queue start without a notify.
  impl_->driver = std::thread([this] { driver_loop(); });
}

void SimulationFleet::recover() {
  const util::JournalReadResult replay =
      util::read_journal_records(impl_->journal_path);
  if (replay.records.empty() && !std::filesystem::exists(impl_->journal_path)) {
    impl_->append(Event{});  // fresh spool: start the journal with a header
    return;
  }

  BD_TRACE_SPAN("fleet.recover", "fleet");
  telemetry::counter_add("fleet.journal_replays");

  // Replay: fold every record into per-name records, in first-seen order.
  std::map<std::string, JobRecord> records;
  std::vector<std::string> order;
  for (const auto& payload : replay.records) {
    const Event event = decode(payload);
    if (event.kind == RecordKind::kHeader) {
      BD_CHECK_MSG(event.version <= kJournalVersion,
                   "fleet journal " << impl_->journal_path << " has version "
                                    << event.version << ", this build reads <= "
                                    << kJournalVersion);
      continue;
    }
    if (event.kind == RecordKind::kShutdown) continue;
    auto [it, fresh] = records.try_emplace(event.name, event.name);
    if (fresh) order.push_back(event.name);
    apply(it->second, event);
  }

  // Compact: rewrite the journal as the events that rebuild the open
  // records. Finished records live on in recovered() but leave the disk
  // file, so the journal stays proportional to the open work, not fleet
  // lifetime.
  const std::string tmp = impl_->journal_path + ".compact.tmp." +
                          std::to_string(static_cast<long>(::getpid()));
  std::remove(tmp.c_str());
  util::append_journal_record(tmp, encode(Event{}).payload());
  for (const std::string& name : order) {
    if (records[name].terminal != FleetJobState::kQueued) continue;
    for (const Event& event : rebuild_events(records[name])) {
      util::append_journal_record(tmp, encode(event).payload());
    }
  }
  BD_CHECK_MSG(std::rename(tmp.c_str(), impl_->journal_path.c_str()) == 0,
               "cannot rename compacted journal " << tmp << " over "
                                                  << impl_->journal_path);

  // Report, and hand open records to submit(): with a recovery_factory
  // they are re-submitted now, otherwise a later submit() adopts them.
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (const std::string& name : order) {
    const JobRecord& record = records[name];
    FleetRecoveredJob report = recovered_job(record);
    if (record.terminal == FleetJobState::kQuarantined) {
      impl_->quarantine.push_back(quarantine_entry(
          record, options_.spool_dir + "/" + name + ".ckpt"));
    }
    if (record.terminal == FleetJobState::kQueued) {
      impl_->open_records.emplace(name, record);
      if (options_.recovery_factory) {
        const auto factory = [factory = options_.recovery_factory, name] {
          return factory(name);
        };
        enqueue({name, factory, static_cast<std::size_t>(record.target_steps),
                 record.fault_spec, nullptr, record.retry});
        telemetry::counter_add("fleet.recovered");
        report.resubmitted = true;
      }
    }
    impl_->recovered_report.push_back(std::move(report));
  }
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

SimulationFleet::~SimulationFleet() {
  // Plain destruction is the *crash-like* teardown: non-terminal jobs are
  // cancelled in-memory but NOT journalled as cancelled, and spool files
  // stay — so the journal still lists them as incomplete and a new fleet
  // on the same spool dir recovers them. Call drain() first for a clean,
  // fully-checkpointed shutdown record.
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
    impl_->stopping = true;
    impl_->ready.clear();
    impl_->backoff.clear();
    for (auto& job : impl_->jobs) {
      job->cancel_requested.store(true, std::memory_order_relaxed);
      // Queued/evicted jobs are finalized here; running quanta observe
      // cancel_requested and finalize themselves before the driver's
      // round — and therefore this join — completes.
      if (!fleet_job_terminal(job->state) &&
          job->state != FleetJobState::kRunning) {
        job->release_sim();
        job->state = FleetJobState::kCancelled;
      }
    }
  }
  impl_->work_cv.notify_all();
  impl_->done_cv.notify_all();
  if (impl_->driver.joinable()) impl_->driver.join();
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

SimulationFleet::JobId SimulationFleet::submit(FleetJobSpec spec) {
  BD_CHECK_MSG(!spec.name.empty(), "FleetJobSpec.name must not be empty");
  BD_CHECK_MSG(spec.name.find('/') == std::string::npos,
               "FleetJobSpec.name must not contain '/': " << spec.name);
  BD_CHECK_MSG(spec.factory != nullptr,
               "FleetJobSpec.factory must not be null");
  BD_CHECK_MSG(spec.target_steps > 0,
               "FleetJobSpec.target_steps must be > 0");
  BD_CHECK_MSG(spec.retry.max_attempts >= 1,
               "RetryPolicy.max_attempts must be >= 1");
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    BD_CHECK_MSG(!impl_->stop, "submit() on a stopped SimulationFleet");
    BD_CHECK_MSG(!impl_->draining, "submit() on a drained SimulationFleet");
    id = enqueue(std::move(spec));
  }
  telemetry::counter_add("fleet.submitted");
  impl_->work_cv.notify_one();
  return id;
}

SimulationFleet::JobId SimulationFleet::enqueue(FleetJobSpec spec) {
  for (const auto& existing : impl_->jobs) {
    BD_CHECK_MSG(existing->record.name != spec.name,
                 "duplicate fleet job name: " << spec.name);
  }
  auto job = std::make_unique<Job>();
  // Adoption: an open journaled record with this name carries its
  // checkpoints and attempts over; the submit event updates the rest.
  auto open = impl_->open_records.extract(spec.name);
  job->record = open ? std::move(open.mapped()) : JobRecord(spec.name);
  job->factory = std::move(spec.factory);
  job->on_step = std::move(spec.on_step);
  if (!options_.spool_dir.empty()) {
    job->spool_path = options_.spool_dir + "/" + spec.name + ".ckpt";
  }
  impl_->commit_locked(*job, submit_event(spec.name, spec.target_steps,
                                          spec.fault_spec, spec.retry));
  job->id = impl_->jobs.size();
  impl_->ready.push_back(job->id);
  impl_->jobs.push_back(std::move(job));
  return impl_->jobs.back()->id;
}

FleetJobStatus SimulationFleet::poll(JobId id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
  return impl_->jobs[id]->status();
}

bool SimulationFleet::cancel(JobId id) {
  std::string spool;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
    Job& job = *impl_->jobs[id];
    if (fleet_job_terminal(job.state)) return false;
    job.cancel_requested.store(true, std::memory_order_relaxed);
    if (job.state == FleetJobState::kRunning) {
      // The owning lane finalizes (and journals) at the next step boundary.
      return true;
    }
    // Queued/evicted/backoff: finalize immediately and drop it.
    std::erase(impl_->ready, id);
    std::erase_if(impl_->backoff,
                  [id](const auto& entry) { return entry.second == id; });
    job.release_sim();
    job.state = FleetJobState::kCancelled;
    impl_->commit_locked(job, Event(RecordKind::kCancel, job.record.name));
    spool = job.spool_path;
  }
  if (!spool.empty()) std::remove(spool.c_str());
  telemetry::counter_add("fleet.cancelled");
  impl_->done_cv.notify_all();
  return true;
}

FleetJobStatus SimulationFleet::wait(JobId id) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
  Job& job = *impl_->jobs[id];
  impl_->done_cv.wait(lk, [&] { return fleet_job_terminal(job.state); });
  return job.status();
}

void SimulationFleet::wait_all() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->done_cv.wait(lk, [&] {
    return std::ranges::all_of(impl_->jobs, [](const auto& job) {
      return fleet_job_terminal(job->state);
    });
  });
}

void SimulationFleet::drain() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  if (impl_->stop) return;  // drained (or destroyed) already
  BD_TRACE_SPAN("fleet.drain", "fleet");
  impl_->draining = true;
  // Freeze the queue: nothing new gets scheduled; in-flight quanta see
  // `draining` in their fate step, checkpoint themselves and stop.
  impl_->ready.clear();
  impl_->backoff.clear();
  impl_->done_cv.wait(lk, [&] {
    return std::ranges::none_of(impl_->jobs, [](const auto& job) {
      return job->state == FleetJobState::kRunning;
    });
  });

  // Checkpoint the remaining resident, non-terminal jobs (queued jobs
  // keep their sims resident when max_resident allows). The queue is
  // frozen and no lane owns them, so this thread may do their I/O.
  std::vector<Job*> residents;
  for (auto& job : impl_->jobs) {
    if (job->sim != nullptr && !fleet_job_terminal(job->state)) {
      residents.push_back(job.get());
    }
  }
  lk.unlock();
  for (Job* job : residents) {
    if (!job->spool_path.empty()) impl_->checkpoint(*job);
  }
  impl_->append(Event(RecordKind::kShutdown));
  lk.lock();
  for (Job* job : residents) {
    job->release_sim();
    if (!job->spool_path.empty()) job->state = FleetJobState::kEvicted;
  }
  impl_->stop = true;
  lk.unlock();
  impl_->work_cv.notify_all();
  if (impl_->driver.joinable()) impl_->driver.join();
}

std::vector<FleetQuarantineEntry> SimulationFleet::quarantined() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->quarantine;
}

std::vector<FleetRecoveredJob> SimulationFleet::recovered() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->recovered_report;
}

util::telemetry::MetricsSnapshot SimulationFleet::job_metrics(
    JobId id) const {
  telemetry::MetricsRegistry* registry = nullptr;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    BD_CHECK_MSG(id < impl_->jobs.size(), "unknown fleet job id " << id);
    registry = impl_->jobs[id]->metrics.get();
  }
  // The registry outlives the job (owned by the Job, which the fleet keeps
  // until destruction), and snapshot() is internally synchronized.
  return registry->snapshot();
}

std::size_t SimulationFleet::job_count() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->jobs.size();
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void SimulationFleet::driver_loop() {
  telemetry::TraceSession::global().set_current_thread_name("fleet-driver");
  std::unique_lock<std::mutex> lk(impl_->mu);
  for (;;) {
    impl_->work_cv.wait(lk, [&] {
      return impl_->stop || !impl_->ready.empty() || !impl_->backoff.empty();
    });
    if (impl_->stop) return;
    ++impl_->round_counter;
    // Release jobs whose backoff expired; when only backoff jobs remain,
    // fast-forward the round counter to the earliest release — rounds are
    // a virtual clock, so an idle fleet never waits wall time for them.
    auto& backoff = impl_->backoff;
    std::ranges::sort(backoff);
    if (impl_->ready.empty()) {  // then backoff is not (wait predicate)
      impl_->round_counter =
          std::max(impl_->round_counter, backoff.front().first);
    }
    const auto due = std::ranges::find_if(backoff, [&](const auto& entry) {
      return entry.first > impl_->round_counter;
    });
    for (auto it = backoff.begin(); it != due; ++it) {
      impl_->ready.push_back(it->second);
    }
    backoff.erase(backoff.begin(), due);
    // One round: enough lanes to drain the current backlog, capped at the
    // pool width. Lanes loop popping jobs, so a long backlog still drains
    // in a single round; jobs submitted mid-round start the next one.
    const std::size_t lanes = std::min<std::size_t>(
        impl_->ready.size(), util::ThreadPool::global().num_threads());
    lk.unlock();
    run_round(lanes);
    lk.lock();
  }
}

void SimulationFleet::run_round(std::size_t lanes) {
  telemetry::counter_add("fleet.rounds");
  BD_TRACE_SPAN("fleet.round", "fleet");
  const auto run_lanes = [this, lanes] {
    util::parallel_for_chunked(
        0, lanes, 1, [this](std::size_t, std::size_t) { run_lane(); });
  };
  if (options_.step_deadline_ms <= 0.0 && options_.quantum_deadline_ms <= 0.0) {
    return run_lanes();
  }

  // Watchdog mode: the round runs on a helper thread while this (driver)
  // thread polls deadlines. A tripped job is flagged and its sim gets a
  // cooperative stop request — the owning lane observes it at the next
  // step boundary and routes the job through the retry path.
  std::atomic<bool> round_done{false};
  std::thread round([&run_lanes, &round_done] {
    run_lanes();
    round_done.store(true, std::memory_order_release);
  });
  const auto step_deadline =
      static_cast<std::uint64_t>(options_.step_deadline_ms * 1e6);
  const auto quantum_deadline =
      static_cast<std::uint64_t>(options_.quantum_deadline_ms * 1e6);
  while (!round_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t now = steady_ns();
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& jp : impl_->jobs) {
      Job& job = *jp;
      if (job.state != FleetJobState::kRunning) continue;
      Simulation* sim = job.running_sim.load(std::memory_order_acquire);
      if (sim == nullptr) continue;
      const auto overran = [now](const std::atomic<std::uint64_t>& start,
                                 std::uint64_t deadline) {
        const std::uint64_t t0 = start.load(std::memory_order_relaxed);
        return deadline > 0 && t0 != 0 && now > t0 && now - t0 > deadline;
      };
      const bool trip = overran(job.step_start_ns, step_deadline) ||
                        overran(job.quantum_start_ns, quantum_deadline);
      if (trip && !job.watchdog_flagged.exchange(true,
                                                 std::memory_order_relaxed)) {
        sim->request_stop();
      }
    }
  }
  round.join();
}

void SimulationFleet::run_lane() {
  for (;;) {
    Job* job = nullptr;
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      if (impl_->ready.empty()) return;
      job = impl_->jobs[impl_->ready.front()].get();
      impl_->ready.pop_front();
      job->state = FleetJobState::kRunning;
    }
    run_quantum(*job);
  }
}

void SimulationFleet::run_quantum(Job& job) {
  // Fleet-level telemetry goes to the ambient registry/session (normally
  // the process-global ones); the sim's own step()/checkpoint telemetry
  // is scoped to the job's private instances via set_telemetry below.
  telemetry::counter_add("fleet.quanta");
  BD_TRACE_SPAN("fleet.quantum", "fleet");
  // The owning lane reads the record lock-free: only its commits write it.
  const JobRecord& record = job.record;

  std::string error;
  bool failed = false;        // step throw or exhausted ladder
  bool setup_failed = false;  // factory/restore/initialize threw
  if (!job.cancel_requested.load(std::memory_order_relaxed)) {
    try {
      if (!job.sim) {
        setup_failed = true;  // cleared once the sim is ready to step
        job.sim = job.factory();
        BD_CHECK_MSG(job.sim != nullptr,
                     "fleet job '" << record.name
                                   << "': factory returned null");
        job.sim_live.store(true, std::memory_order_relaxed);
        job.sim->set_telemetry(job.metrics.get(), job.trace.get());
        if (!job.harness) {
          // Every job gets a private harness so one job's fault budget is
          // never consumed by a neighbour. The spec's plan wins; an empty
          // spec inherits the process BD_FAULT plan (per-job budget, the
          // job's own seed); the literal "none" opts the job out.
          std::string spec = record.fault_spec;
          const char* env = std::getenv("BD_FAULT");
          if (spec.empty() && env != nullptr) spec = env;
          if (spec == "none") spec.clear();
          job.harness = std::make_unique<util::faultinject::FaultHarness>();
          job.harness->install(spec, job.sim->config().seed);
        }
        job.sim->set_fault_harness(job.harness.get());
        if (!job.spool_path.empty() &&
            std::filesystem::exists(job.spool_path)) {
          restore_checkpoint(*job.sim, job.spool_path);
          const auto step = static_cast<std::uint64_t>(job.sim->current_step());
          job.steps_done.store(static_cast<std::size_t>(step),
                               std::memory_order_relaxed);
          // The journal's digest for this checkpoint, when it has one:
          // after a retry the in-memory digest must rewind with the
          // restored state.
          if (const auto it = record.checkpoints.find(step);
              it != record.checkpoints.end()) {
            job.digest.store(it->second, std::memory_order_relaxed);
          }
          telemetry::counter_add("fleet.resumes");
        } else if (!job.sim->initialized()) {
          job.sim->initialize();
        }
        job.exhausted_streak = 0;
        setup_failed = false;
        if (job.quanta_run == 0) {
          impl_->commit(job, Event(RecordKind::kStart, record.name));
        }
      }
      ++job.quanta_run;
      job.watchdog_flagged.store(false, std::memory_order_relaxed);
      job.sim->clear_stop();
      job.quantum_start_ns.store(steady_ns(), std::memory_order_relaxed);
      // Release so the watchdog's acquire load sees a fully constructed
      // (or fully restored) Simulation before it calls request_stop().
      job.running_sim.store(job.sim.get(), std::memory_order_release);

      std::size_t done = job.steps_done.load(std::memory_order_relaxed);
      std::uint32_t digest = job.digest.load(std::memory_order_relaxed);
      for (std::size_t ran = 0;
           ran < options_.quantum_steps && done < record.target_steps &&
           !job.cancel_requested.load(std::memory_order_relaxed) &&
           !job.sim->stop_requested();
           ++ran) {
        job.step_start_ns.store(steady_ns(), std::memory_order_relaxed);
        const StepStats stats = job.sim->step();
        digest = fleet_digest_step(stats, digest);
        ++done;
        job.steps_done.store(done, std::memory_order_relaxed);
        job.digest.store(digest, std::memory_order_relaxed);
        // Unhealthy on the last rung: the ladder has nowhere left to go.
        // A sustained streak is a job-level failure — the retry path
        // restarts from the last good checkpoint.
        const bool stuck = stats.health && !stats.health->healthy() &&
                           job.sim->num_tiers() > 1 &&
                           stats.health->tier + 1 >= job.sim->num_tiers();
        job.exhausted_streak = stuck ? job.exhausted_streak + 1 : 0;
        if (stuck &&
            job.exhausted_streak >= job.sim->config().health.demote_after) {
          failed = true;
          error = "health ladder exhausted: " +
                  std::to_string(job.exhausted_streak) +
                  " unhealthy steps on the last tier (step " +
                  std::to_string(stats.step) + ")";
          break;
        }
        if (job.on_step) job.on_step(stats);
      }
      job.step_start_ns.store(0, std::memory_order_relaxed);
      job.quantum_start_ns.store(0, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      error = e.what();
      failed = true;
    } catch (...) {
      error = "unknown exception";
      failed = true;
    }
  }

  // ------------------------------------------------------------------
  // Fate. Journal commits and spool I/O run outside Impl::mu; until the
  // new state is published under it the job stays kRunning and no other
  // lane can claim it.
  // ------------------------------------------------------------------
  const auto count_resident = [this] {
    std::size_t n = 0;
    for (const auto& j : impl_->jobs)
      n += j->sim_live.load(std::memory_order_relaxed);
    return n;
  };
  bool stopping = false;
  bool over_cap = false;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    stopping = impl_->stopping;
    draining = impl_->draining;
    over_cap = options_.max_resident > 0 &&
               count_resident() > options_.max_resident;
  }
  const std::string& name = record.name;
  const std::uint64_t steps = job.steps_done.load(std::memory_order_relaxed);
  const bool cancelled = job.cancel_requested.load(std::memory_order_relaxed);
  const bool tripped = job.watchdog_flagged.load(std::memory_order_relaxed);
  const auto fail_terminal = [&](const std::string& what) {
    impl_->commit(job, failure_event(RecordKind::kFailTerminal, name, 0, what));
    telemetry::counter_add("fleet.failed");
    return FleetJobState::kFailed;
  };
  FleetJobState next = FleetJobState::kQueued;
  bool backoff = false;  // requeued after backoff_rounds rounds
  if (failed && setup_failed) {
    next = fail_terminal(error);  // deterministic: never retried
  } else if (failed ||
             (tripped && !cancelled && steps < record.target_steps)) {
    if (!failed) {  // watchdog trip
      telemetry::counter_add("fleet.watchdog_trips");
      error = "watchdog: step/quantum deadline exceeded at step " +
              std::to_string(steps);
      // The rung that overran is suspect — demote before checkpointing
      // so the retried job resumes one tier down.
      job.sim->demote_tier();
      try {
        if (!job.spool_path.empty()) impl_->checkpoint(job);
      } catch (const std::exception& e) {
        error = std::string("watchdog checkpoint failed: ") + e.what();
      }
    }
    // One attempt gone; out of budget => quarantine.
    const std::uint32_t attempts = record.attempts + 1;
    const bool exhausted = attempts >= record.retry.max_attempts;
    impl_->commit(job, failure_event(exhausted ? RecordKind::kQuarantine
                                               : RecordKind::kFailAttempt,
                                     name, attempts, error));
    if (exhausted) {
      telemetry::counter_add("fleet.quarantined");
      telemetry::counter_add("fleet.failed");
      next = FleetJobState::kQuarantined;
    } else {
      telemetry::counter_add("fleet.retries");
      backoff = true;
    }
  } else if (cancelled) {
    // The dtor path journals nothing and keeps the spool file, so a
    // restarted process can still recover the job.
    if (!stopping) {
      impl_->commit(job, Event(RecordKind::kCancel, name));
      if (!job.spool_path.empty()) std::remove(job.spool_path.c_str());
    }
    telemetry::counter_add("fleet.cancelled");
    next = FleetJobState::kCancelled;
  } else if (steps >= record.target_steps) {
    impl_->commit(job, Event(RecordKind::kComplete, name, steps,
                                 job.digest.load(std::memory_order_relaxed)));
    if (!job.spool_path.empty()) std::remove(job.spool_path.c_str());
    telemetry::counter_add("fleet.completed");
    next = FleetJobState::kDone;
  } else if ((draining || over_cap) && !job.spool_path.empty()) {
    // Evict (or, draining, park) into the spool.
    try {
      BD_TRACE_SPAN("fleet.evict", "fleet");
      impl_->checkpoint(job);
      telemetry::counter_add("fleet.evictions");
      next = FleetJobState::kEvicted;
    } catch (const std::exception& e) {
      next = fail_terminal(e.what());
    }
  } else {
    // Requeue resident. Without a spool a draining fleet parks the job
    // resident-in-memory (an evicting fleet always has a spool).
    if (options_.checkpoint_every_quanta > 0 && !job.spool_path.empty() &&
        job.quanta_run % options_.checkpoint_every_quanta == 0) {
      try {
        impl_->checkpoint(job);
      } catch (const std::exception& e) {
        // Not fatal to the job — the previous checkpoint (or none)
        // still bounds the replay.
        BD_LOG_WARN << "fleet job '" << name
                    << "': periodic checkpoint failed: " << e.what();
      }
    }
  }

  std::size_t resident = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    job.running_sim.store(nullptr, std::memory_order_relaxed);
    // Only a job requeued as it is keeps its sim resident.
    const bool resident_requeue = next == FleetJobState::kQueued && !backoff;
    if (!resident_requeue) job.release_sim();
    job.state = next;
    // A draining fleet schedules nothing more: the job stays parked.
    if ((resident_requeue || next == FleetJobState::kEvicted) &&
        !impl_->draining) {
      impl_->ready.push_back(job.id);
    }
    if (backoff) {
      // The sim's state is suspect (it threw mid-step, ran out of ladder,
      // or overran a deadline): the next attempt rebuilds from durable
      // state. A restore sets steps and digest from the spool file; with
      // none, the job starts over from step 0.
      job.steps_done.store(0, std::memory_order_relaxed);
      job.digest.store(0, std::memory_order_relaxed);
      if (!impl_->draining) {
        impl_->backoff.emplace_back(
            impl_->round_counter + record.retry.backoff_rounds, job.id);
      }
    }
    if (next == FleetJobState::kQuarantined) {
      impl_->quarantine.push_back(quarantine_entry(record, job.spool_path));
    }
    resident = count_resident();
  }
  telemetry::gauge_set("fleet.resident", static_cast<double>(resident));
  if (!fleet_job_terminal(next)) impl_->work_cv.notify_one();
  // Every quantum end is an observable event: terminal states unblock
  // wait()/wait_all(), and drain() waits for running quanta to settle.
  impl_->done_cv.notify_all();
}

}  // namespace bd::core
