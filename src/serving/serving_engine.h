// Always-on what-if serving: answers configuration-cost questions
// continuously while the world drifts underneath, with reseals that
// never stop the serving path.
//
// The core is an RCU-style generation swap. All serving state lives in
// immutable ServingGenerations (serving_generation.h); the engine holds
// the current one in an atomic shared_ptr. Readers pin it with one
// atomic load — no lock, no wait, no interaction with maintenance —
// and answer from the pinned generation even if ten reseals publish
// while they compute. Maintenance builds the next generation off to
// the side (WorkloadCacheBuilder::RebuildQueries copies the base
// result and reseals only the stale queries) and publishes it with one
// atomic store. Old generations are reclaimed by shared_ptr refcount
// when the last pinned reader drops them.
//
// On top of the swap sits the self-healing layer (docs/SERVING.md,
// "Failure semantics"): a failed reseal never stops serving — the last
// good generation keeps answering bit-identically (stale-while-
// revalidate) while the drift watcher retries with exponential backoff
// under MaintenancePolicy; repeated failure degrades the HealthReport
// to kDegraded, and the first success after the fault clears recovers
// it to kHealthy automatically. SubmitCost futures carry per-request
// deadlines, so a stalled pump answers kDeadlineExceeded instead of
// leaving callers parked on a future forever.
//
// Thread-safety contract (docs/SERVING.md has the long form):
//  - Pin/Cost/BatchCost/SubmitCost/PumpOnce: any thread, any time,
//    concurrent with each other and with maintenance.
//  - Reseal/StaleNames/CheckAndReseal/WithWorld: serialized internally
//    on one maintenance mutex. ALL mutation of the world the builder is
//    bound to (StatsCatalog, CandidateSet — e.g. ApplyDrift) must go
//    through WithWorld so it serializes against stamp reads and
//    rebuilds; the serving path never touches the world, only
//    published generations.
//  - Health/MaintenanceEvents/Stats: any thread, any time.
//  - WorkloadCostEvaluator::EvalScratch stays one-caller-at-a-time as
//    documented in greedy_advisor.h; the engine never shares one.
#ifndef PINUM_SERVING_SERVING_ENGINE_H_
#define PINUM_SERVING_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "query/query.h"
#include "serving/serving_generation.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"

namespace pinum {

/// How maintenance behaves when reseals fail: the drift watcher retries
/// a failing reseal with exponential backoff instead of hammering the
/// poll interval, and after max_retries consecutive failures the engine
/// reports kDegraded — still serving the last good generation — until a
/// reseal succeeds again.
struct MaintenancePolicy {
  /// Consecutive reseal failures before Health() reports kDegraded.
  /// Retrying never stops (the fault may clear); this only moves the
  /// health state, so operators alarm on persistent faults rather than
  /// one blip.
  int max_retries = 3;
  /// Backoff before the first retry; doubles per consecutive failure,
  /// capped at the max_retries exponent.
  std::chrono::milliseconds initial_backoff{10};
  /// Seed for the +-25% jitter on every backoff wait (deterministic per
  /// engine; keeps a fleet of engines from retrying in lockstep).
  uint64_t jitter_seed = 0;
  /// Wall-clock budget for one reseal. A rebuild cannot be aborted
  /// mid-computation, so this is enforced at publication: a reseal that
  /// finishes past its deadline reports kDeadlineExceeded and is NOT
  /// published — the world will still be stale, the next attempt (or a
  /// faster moment) publishes instead. Zero disables the budget.
  std::chrono::milliseconds reseal_deadline{0};
};

/// Serving-engine knobs.
struct ServingOptions {
  /// Admission control: SubmitCost sheds with kUnavailable once this
  /// many requests are queued. Bounds both memory and the worst-case
  /// answer staleness a queued request can observe.
  size_t max_queue_depth = 1024;
  /// Prices coalesced sweeps in parallel when given (not owned; may be
  /// the builder's pool — concurrent ParallelFor regions are safe).
  /// Null prices serially.
  ThreadPool* pool = nullptr;
  /// Deadline applied to SubmitCost requests that don't pass their own
  /// (zero = no deadline, the pre-existing wait-forever behavior).
  std::chrono::milliseconds default_deadline{0};
  /// Reseal retry/backoff/degradation policy (see MaintenancePolicy).
  MaintenancePolicy maintenance;
};

/// One answered cost question: the workload cost plus the id of the
/// generation that produced it. Every OK answer is bit-identical to a
/// cold rebuild of that generation's world — the concurrency stress
/// suite pins this — so the id tells the caller exactly which world
/// snapshot they were quoted. A non-OK `status` (kDeadlineExceeded for
/// a request that expired in the queue, kInternal for a pricing sweep
/// that faulted) means `cost` is meaningless and `generation` is 0.
struct CostAnswer {
  double cost = 0;
  uint64_t generation = 0;
  Status status;
};

/// Two-state serving health. The engine NEVER stops answering — even
/// kDegraded serves the last good generation bit-identically; the state
/// says whether maintenance is keeping up with the world.
enum class HealthState {
  /// Reseals are succeeding (or nothing has needed one).
  kHealthy,
  /// max_retries consecutive reseals have failed; serving continues
  /// from the last good generation (stale-while-revalidate) and the
  /// watcher keeps retrying. Auto-recovers on the next success.
  kDegraded,
};

/// One timestamped maintenance-ring entry (see MaintenanceEvents()).
struct MaintenanceEvent {
  enum class Kind {
    kResealSucceeded,
    kResealFailed,
    /// The watcher scheduled a backoff retry after a failure; `backoff`
    /// holds the wait it chose (jitter included).
    kRetryScheduled,
    /// Consecutive failures crossed max_retries: health kDegraded.
    kDegraded,
    /// First success after kDegraded: health back to kHealthy.
    kRecovered,
  };
  Kind kind = Kind::kResealSucceeded;
  /// The reseal's Status (OK for kResealSucceeded/kRecovered).
  Status status;
  /// Generation published (success) or still serving (failure).
  uint64_t generation = 0;
  /// Consecutive-failure count at the time of the event.
  int consecutive_failures = 0;
  std::chrono::milliseconds backoff{0};
  std::chrono::steady_clock::time_point at;
};

/// Snapshot of serving health, readable from any thread.
struct HealthReport {
  HealthState state = HealthState::kHealthy;
  /// Last reseal failure (OK if the most recent reseal succeeded or
  /// none has run).
  Status last_error;
  int consecutive_failures = 0;
  /// Id of the generation currently serving.
  uint64_t generation = 0;
};

/// Monotonic counters for shed/failure observability: tests and benches
/// assert shedding and degradation actually happened instead of
/// inferring them from timing.
struct ServingStats {
  /// SubmitCost calls admitted into the queue.
  uint64_t submitted = 0;
  /// Futures fulfilled with an OK priced answer.
  uint64_t answered = 0;
  /// SubmitCost calls shed with kUnavailable (queue full).
  uint64_t shed_unavailable = 0;
  /// Futures fulfilled with kDeadlineExceeded (expired in the queue).
  uint64_t deadline_expired = 0;
  /// Futures fulfilled with an error because their pricing sweep
  /// faulted (e.g. an injected pool fault mid-BatchCost).
  uint64_t pricing_failures = 0;
  uint64_t reseal_attempts = 0;
  uint64_t reseal_failures = 0;
  /// kDegraded -> kHealthy transitions.
  uint64_t recoveries = 0;
};

/// Always-on serving front end over one workload's sealed caches.
/// Construct with the builder, the (fixed) query vector BuildAll
/// consumed, and BuildAll's result; the engine publishes that result as
/// generation 1 and starts answering immediately. The builder, queries,
/// and the world objects the builder is bound to must outlive the
/// engine.
///
/// `initial` may equally be LoadSnapshotMapped's result — the restart
/// path that starts answering traffic before any build runs. Each
/// mapped cache's arena co-owns the snapshot mapping, so the pages stay
/// valid for as long as any pinned generation or in-flight answer holds
/// a cache reading them; reseals carry the unrebuilt caches (and so the
/// mapping) forward until every borrowed cache has been rebuilt
/// heap-side (see docs/SERVING.md).
class ServingEngine {
 public:
  /// Batch coalescing: one pump drains at most this many queued
  /// requests into a single BatchCost sweep over one pinned generation.
  static constexpr size_t kMaxBatch = 256;
  /// Bound on the maintenance-event ring MaintenanceEvents() serves;
  /// older events fall off the front.
  static constexpr size_t kMaxMaintenanceEvents = 64;

  ServingEngine(WorkloadCacheBuilder* builder,
                const std::vector<Query>* queries,
                WorkloadCacheResult initial, ServingOptions options = {});
  /// Stops the watcher and dispatcher, then drains every queued request
  /// (no promise is ever abandoned to a broken_promise).
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // ---- Read path: lock-free, concurrent with everything ----

  /// Pins the current generation: one atomic shared_ptr load. The
  /// returned generation is immutable and stays alive until the caller
  /// drops the pointer; holding it does not block reseals.
  std::shared_ptr<const ServingGeneration> Pin() const;

  /// Id of the generation a Pin() right now would return.
  uint64_t CurrentGenerationId() const { return Pin()->id; }

  /// Workload cost of one configuration against the pinned current
  /// generation. Bit-identical to
  /// WorkloadCostEvaluator(&gen->sealed()).Cost(config) for the
  /// generation the answer names.
  CostAnswer Cost(const IndexConfig& config) const;

  /// Batched form: all configs price against ONE pinned generation (a
  /// reseal mid-call never splits a batch across generations), so every
  /// answer in the result carries the same generation id.
  std::vector<CostAnswer> BatchCost(
      const std::vector<IndexConfig>& configs) const;

  // ---- Async front end: queue + coalescing + admission control ----

  /// Enqueues one cost question and returns a future for its answer.
  /// Sheds with Status::Unavailable — a retryable, nothing-wrong-with-
  /// the-request rejection — when max_queue_depth requests are already
  /// waiting. The future is fulfilled by the dispatcher thread (if
  /// started), any PumpOnce caller, or at latest the destructor.
  ///
  /// `deadline` bounds how long the request may wait in the queue
  /// (zero: fall back to options.default_deadline; both zero: wait
  /// indefinitely). A request past its deadline when a pump pops it is
  /// answered with CostAnswer.status == kDeadlineExceeded instead of a
  /// price — fulfilled, never abandoned — so no future outlives its
  /// deadline unanswered once anything pumps (the dispatcher makes that
  /// prompt; without it, the next PumpOnce or the destructor).
  StatusOr<std::future<CostAnswer>> SubmitCost(
      IndexConfig config,
      std::chrono::milliseconds deadline = std::chrono::milliseconds(0));

  /// Drains up to kMaxBatch queued requests, answers expired ones with
  /// kDeadlineExceeded, prices the rest in one BatchCost sweep against
  /// one pinned generation, and fulfils their futures. Returns how many
  /// futures were fulfilled (0 = queue was empty). If the pricing sweep
  /// itself faults (an injected pool fault, a throwing cost body), every
  /// request in the batch is fulfilled with an error answer — a faulting
  /// sweep never abandons promises or kills the pumping thread. Safe
  /// from any thread, including concurrent with the dispatcher.
  size_t PumpOnce();

  /// Starts/stops the background dispatcher thread that pumps whenever
  /// requests are queued. Stop drains the queue before returning.
  void StartDispatcher();
  void StopDispatcher();

  /// Current queue depth (requests submitted but not yet drained into
  /// a sweep). For tests and admission-control introspection.
  size_t Pending() const;

  // ---- Maintenance path: serialized, concurrent with serving ----

  /// Runs `fn` holding the maintenance mutex. Every mutation of the
  /// world the builder is bound to (ApplyDrift, manual stats edits,
  /// candidate appends) MUST be wrapped in this: it serializes the
  /// mutation against stamp reads and rebuilds, while serving
  /// continues untouched from published generations.
  void WithWorld(const std::function<void()>& fn);

  /// Names of the queries whose live QueryStamp differs from the
  /// current generation's build stamp — the exact set a reseal must
  /// rebuild. Empty means the current generation matches the world.
  std::vector<std::string> StaleNames();

  /// Rebuilds the named queries into a copy of the current generation
  /// and publishes the copy as the next generation, concurrent with
  /// serving. On error nothing is published and the current generation
  /// keeps serving. A rebuild that throws (pool-task faults surface as
  /// exceptions) is converted to a kInternal Status — same contract.
  Status Reseal(const std::vector<std::string>& names);

  /// StaleNames + Reseal under one maintenance-mutex hold. Returns
  /// whether a new generation was published (false = nothing stale).
  StatusOr<bool> CheckAndReseal();

  /// Starts/stops the drift watcher: a background thread that runs
  /// CheckAndReseal every `poll`. Watcher errors never stop serving:
  /// they are recorded (Health().last_error, MaintenanceEvents) and
  /// retried with exponential backoff under options.maintenance —
  /// after a failure the watcher waits backoff instead of poll, so a
  /// persistent fault is retried gently and a transient one heals at
  /// the next attempt.
  void StartDriftWatcher(std::chrono::milliseconds poll);
  void StopDriftWatcher();

  // ---- Health + observability ----

  /// Current serving health (see HealthState). Readable any time.
  HealthReport Health() const;

  /// The bounded maintenance-event ring, oldest first: every reseal
  /// outcome, scheduled retry, degradation, and recovery, timestamped.
  /// At most kMaxMaintenanceEvents entries are retained.
  std::vector<MaintenanceEvent> MaintenanceEvents() const;

  /// Monotonic shed/failure counters (see ServingStats).
  ServingStats Stats() const;

 private:
  struct PendingRequest {
    IndexConfig config;
    std::promise<CostAnswer> promise;
    /// Queue-residency bound; time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
  };

  /// Atomically replaces the current generation. Publication order is
  /// the maintenance serialization order, so ids stay monotonic.
  void Publish(std::shared_ptr<const ServingGeneration> next);

  std::vector<std::string> StaleNamesLocked() const;
  Status ResealLocked(const std::vector<std::string>& names);

  /// Folds one reseal outcome into the health state + event ring.
  /// `published` is the generation id serving after the attempt.
  void RecordResealOutcome(const Status& status, uint64_t published);
  /// The one recovery path (a successful reseal, or nothing stale):
  /// clears the failure streak and, if degraded, returns to kHealthy,
  /// counts a recovery and pushes kRecovered. status_mu_ held.
  void RecoverLocked(uint64_t generation);
  void PushEventLocked(MaintenanceEvent event);  // status_mu_ held

  void DispatcherLoop();
  void WatcherLoop(std::chrono::milliseconds poll);

  WorkloadCacheBuilder* builder_;
  const std::vector<Query>* queries_;
  ServingOptions options_;

  /// The one swap point. Readers load, maintenance stores; never
  /// null after construction.
  std::atomic<std::shared_ptr<const ServingGeneration>> generation_;

  /// Serializes every world mutation, stamp read, and rebuild.
  std::mutex maintenance_mu_;

  /// Guards the health/event state below.
  mutable std::mutex status_mu_;
  Status last_maintenance_status_;
  HealthState health_ = HealthState::kHealthy;
  int consecutive_failures_ = 0;
  std::deque<MaintenanceEvent> events_;

  // Monotonic counters; relaxed is fine, they are statistics.
  std::atomic<uint64_t> stat_submitted_{0};
  std::atomic<uint64_t> stat_answered_{0};
  std::atomic<uint64_t> stat_shed_unavailable_{0};
  std::atomic<uint64_t> stat_deadline_expired_{0};
  std::atomic<uint64_t> stat_pricing_failures_{0};
  std::atomic<uint64_t> stat_reseal_attempts_{0};
  std::atomic<uint64_t> stat_reseal_failures_{0};
  std::atomic<uint64_t> stat_recoveries_{0};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> pending_;

  std::thread dispatcher_;
  bool dispatcher_stop_ = false;  // guarded by queue_mu_

  std::thread watcher_;
  std::mutex watcher_mu_;
  std::condition_variable watcher_cv_;
  bool watcher_stop_ = false;  // guarded by watcher_mu_
};

}  // namespace pinum

#endif  // PINUM_SERVING_SERVING_ENGINE_H_
