#include "serving/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <utility>

#include "advisor/greedy_advisor.h"
#include "common/rng.h"

namespace pinum {
namespace {

/// Runs `fn` and returns its result, or kInternal naming `what` if it
/// throws. Pool-task faults (an injected one included) surface as
/// exceptions out of ParallelFor; this keeps them from escaping into,
/// and killing, whichever thread pumps or reseals.
template <typename Fn>
auto InternalOnThrow(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string(what) + ": " + e.what());
  } catch (...) {
    return Status::Internal(std::string(what) + ": non-standard exception");
  }
}

}  // namespace

ServingEngine::ServingEngine(WorkloadCacheBuilder* builder,
                             const std::vector<Query>* queries,
                             WorkloadCacheResult initial,
                             ServingOptions options)
    : builder_(builder), queries_(queries), options_(options) {
  auto first = std::make_shared<ServingGeneration>();
  first->id = 1;
  first->result = std::move(initial);
  generation_.store(std::move(first));
}

ServingEngine::~ServingEngine() {
  StopDriftWatcher();
  StopDispatcher();
  // Requests submitted after the dispatcher stopped still hold
  // promises; answer them rather than abandon them.
  while (PumpOnce() > 0) {
  }
}

// ---- Read path --------------------------------------------------------

std::shared_ptr<const ServingGeneration> ServingEngine::Pin() const {
  return generation_.load();
}

CostAnswer ServingEngine::Cost(const IndexConfig& config) const {
  const auto gen = Pin();
  WorkloadCostEvaluator evaluator(&gen->sealed(), options_.pool);
  return CostAnswer{evaluator.Cost(config), gen->id, Status::OK()};
}

std::vector<CostAnswer> ServingEngine::BatchCost(
    const std::vector<IndexConfig>& configs) const {
  const auto gen = Pin();
  WorkloadCostEvaluator evaluator(&gen->sealed(), options_.pool);
  const std::vector<double> costs = evaluator.BatchCost(configs);
  std::vector<CostAnswer> answers(costs.size());
  for (size_t i = 0; i < costs.size(); ++i) {
    answers[i] = CostAnswer{costs[i], gen->id, Status::OK()};
  }
  return answers;
}

// ---- Async front end --------------------------------------------------

StatusOr<std::future<CostAnswer>> ServingEngine::SubmitCost(
    IndexConfig config, std::chrono::milliseconds deadline) {
  if (deadline.count() == 0) deadline = options_.default_deadline;
  std::future<CostAnswer> future;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (pending_.size() >= options_.max_queue_depth) {
      stat_shed_unavailable_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "serving queue is full (" + std::to_string(pending_.size()) +
          " pending); retry later");
    }
    PendingRequest request;
    request.config = std::move(config);
    request.deadline = deadline.count() > 0
                           ? std::chrono::steady_clock::now() + deadline
                           : std::chrono::steady_clock::time_point::max();
    future = request.promise.get_future();
    pending_.push_back(std::move(request));
    stat_submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
  return future;
}

size_t ServingEngine::PumpOnce() {
  std::vector<PendingRequest> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const size_t take = std::min(pending_.size(), kMaxBatch);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  }
  if (batch.empty()) return 0;

  // Expired requests are answered (kDeadlineExceeded), not priced and
  // not abandoned: a future's owner always gets a value from whoever
  // pumps first, however late.
  const auto now = std::chrono::steady_clock::now();
  std::vector<PendingRequest> live;
  live.reserve(batch.size());
  size_t expired = 0;
  for (PendingRequest& request : batch) {
    if (request.deadline < now) {
      CostAnswer answer;
      answer.status = Status::DeadlineExceeded(
          "request expired in the serving queue before a pump reached it");
      request.promise.set_value(std::move(answer));
      ++expired;
    } else {
      live.push_back(std::move(request));
    }
  }
  stat_deadline_expired_.fetch_add(expired, std::memory_order_relaxed);
  if (live.empty()) return expired;

  // One pin for the whole batch: coalesced requests are never split
  // across generations, and the sweep is one BatchCost call instead of
  // batch.size() serial Cost calls.
  const auto gen = Pin();
  std::vector<IndexConfig> configs;
  configs.reserve(live.size());
  for (const PendingRequest& request : live) {
    configs.push_back(request.config);
  }
  // A faulting sweep must neither abandon the batch's promises nor
  // propagate out of whatever thread happened to pump: every request
  // gets an error answer instead. Promises are set only after the sweep
  // returns, so a throw never sets one twice.
  const StatusOr<std::vector<double>> costs = InternalOnThrow(
      "pricing sweep failed", [&]() -> StatusOr<std::vector<double>> {
        return WorkloadCostEvaluator(&gen->sealed(), options_.pool)
            .BatchCost(configs);
      });
  for (size_t i = 0; i < live.size(); ++i) {
    live[i].promise.set_value(
        costs.ok() ? CostAnswer{(*costs)[i], gen->id, Status::OK()}
                   : CostAnswer{0, 0, costs.status()});
  }
  (costs.ok() ? stat_answered_ : stat_pricing_failures_)
      .fetch_add(live.size(), std::memory_order_relaxed);
  return expired + live.size();
}

void ServingEngine::StartDispatcher() {
  StopDispatcher();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    dispatcher_stop_ = false;
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

void ServingEngine::StopDispatcher() {
  if (!dispatcher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    dispatcher_stop_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
}

size_t ServingEngine::Pending() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return pending_.size();
}

void ServingEngine::DispatcherLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return dispatcher_stop_ || !pending_.empty(); });
      // Drain before exiting so StopDispatcher leaves an empty queue.
      if (dispatcher_stop_ && pending_.empty()) return;
    }
    PumpOnce();
  }
}

// ---- Maintenance path -------------------------------------------------

void ServingEngine::Publish(std::shared_ptr<const ServingGeneration> next) {
  generation_.store(std::move(next));
}

void ServingEngine::WithWorld(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  fn();
}

std::vector<std::string> ServingEngine::StaleNamesLocked() const {
  const auto gen = Pin();
  std::map<TableId, uint64_t> fp_cache;
  std::vector<std::string> stale;
  for (size_t i = 0; i < queries_->size(); ++i) {
    if (builder_->QueryStamp((*queries_)[i], &fp_cache) !=
        gen->stamps()[i]) {
      stale.push_back((*queries_)[i].name);
    }
  }
  return stale;
}

std::vector<std::string> ServingEngine::StaleNames() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return StaleNamesLocked();
}

Status ServingEngine::ResealLocked(const std::vector<std::string>& names) {
  stat_reseal_attempts_.fetch_add(1, std::memory_order_relaxed);
  const auto base = Pin();
  const auto started = std::chrono::steady_clock::now();
  // The rebuild lands in a copy; `base` keeps serving readers (and
  // in-flight pins) bit-identically throughout. A rebuild that throws
  // gets the same no-publish Status contract as one that fails.
  StatusOr<WorkloadCacheResult> next =
      InternalOnThrow("reseal rebuild threw", [&] {
        return builder_->RebuildQueries(names, *queries_, base->result);
      });
  if (!next.ok()) return next.status();

  // The reseal deadline is enforced at publication: a C++ rebuild
  // cannot be aborted mid-flight, but an over-budget result can be
  // discarded — nothing is published, the base generation keeps
  // serving, and the next attempt gets a fresh budget.
  const std::chrono::milliseconds budget =
      options_.maintenance.reseal_deadline;
  if (budget.count() > 0) {
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started);
    if (elapsed > budget) {
      return Status::DeadlineExceeded(
          "reseal overran its deadline (" + std::to_string(elapsed.count()) +
          "ms elapsed, budget " + std::to_string(budget.count()) +
          "ms); result discarded, generation " + std::to_string(base->id) +
          " keeps serving");
    }
  }

  auto next_gen = std::make_shared<ServingGeneration>();
  // Publications are serialized on maintenance_mu_, so base is still
  // current here and id stays strictly monotonic.
  next_gen->id = base->id + 1;
  next_gen->result = std::move(next).value();
  Publish(std::move(next_gen));
  return Status::OK();
}

void ServingEngine::PushEventLocked(MaintenanceEvent event) {
  event.at = std::chrono::steady_clock::now();
  events_.push_back(std::move(event));
  while (events_.size() > kMaxMaintenanceEvents) {
    events_.pop_front();
  }
}

void ServingEngine::RecoverLocked(uint64_t generation) {
  last_maintenance_status_ = Status::OK();
  consecutive_failures_ = 0;
  if (health_ != HealthState::kDegraded) return;
  health_ = HealthState::kHealthy;
  stat_recoveries_.fetch_add(1, std::memory_order_relaxed);
  MaintenanceEvent recovered;
  recovered.kind = MaintenanceEvent::Kind::kRecovered;
  recovered.generation = generation;
  PushEventLocked(std::move(recovered));
}

void ServingEngine::RecordResealOutcome(const Status& status,
                                        uint64_t published) {
  std::lock_guard<std::mutex> lock(status_mu_);
  if (status.ok()) {
    MaintenanceEvent ok_event;
    ok_event.kind = MaintenanceEvent::Kind::kResealSucceeded;
    ok_event.generation = published;
    PushEventLocked(std::move(ok_event));
    RecoverLocked(published);
    return;
  }
  stat_reseal_failures_.fetch_add(1, std::memory_order_relaxed);
  last_maintenance_status_ = status;
  ++consecutive_failures_;
  MaintenanceEvent failed;
  failed.kind = MaintenanceEvent::Kind::kResealFailed;
  failed.status = status;
  failed.generation = published;
  failed.consecutive_failures = consecutive_failures_;
  PushEventLocked(std::move(failed));
  if (health_ == HealthState::kHealthy &&
      consecutive_failures_ >= options_.maintenance.max_retries) {
    health_ = HealthState::kDegraded;
    MaintenanceEvent degraded;
    degraded.kind = MaintenanceEvent::Kind::kDegraded;
    degraded.status = status;
    degraded.generation = published;
    degraded.consecutive_failures = consecutive_failures_;
    PushEventLocked(std::move(degraded));
  }
}

Status ServingEngine::Reseal(const std::vector<std::string>& names) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  Status status = ResealLocked(names);
  RecordResealOutcome(status, CurrentGenerationId());
  return status;
}

StatusOr<bool> ServingEngine::CheckAndReseal() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  const std::vector<std::string> stale = StaleNamesLocked();
  if (stale.empty()) {
    // Nothing stale means the serving generation matches the world —
    // if we were failing (or degraded), whatever was failing no longer
    // needs doing: recover.
    std::lock_guard<std::mutex> status_lock(status_mu_);
    RecoverLocked(CurrentGenerationId());
    return false;
  }
  Status status = ResealLocked(stale);
  RecordResealOutcome(status, CurrentGenerationId());
  if (!status.ok()) return status;
  return true;
}

void ServingEngine::StartDriftWatcher(std::chrono::milliseconds poll) {
  StopDriftWatcher();
  {
    std::lock_guard<std::mutex> lock(watcher_mu_);
    watcher_stop_ = false;
  }
  watcher_ = std::thread([this, poll] { WatcherLoop(poll); });
}

void ServingEngine::StopDriftWatcher() {
  if (!watcher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watcher_mu_);
    watcher_stop_ = true;
  }
  watcher_cv_.notify_all();
  watcher_.join();
}

void ServingEngine::WatcherLoop(std::chrono::milliseconds poll) {
  const MaintenancePolicy& policy = options_.maintenance;
  Rng jitter(policy.jitter_seed);
  std::chrono::milliseconds wait = poll;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watcher_mu_);
      watcher_cv_.wait_for(lock, wait, [this] { return watcher_stop_; });
      if (watcher_stop_) return;
    }
    // Errors are parked in the health state by CheckAndReseal; the old
    // generation keeps serving either way. What the watcher owns is the
    // RETRY CADENCE: after a failure, back off exponentially (with
    // seeded jitter so a fleet doesn't retry in lockstep) instead of
    // hammering the fault at the poll interval; after a success — or
    // nothing to do — return to the poll.
    const StatusOr<bool> outcome = CheckAndReseal();
    if (outcome.ok()) {
      wait = poll;
      continue;
    }
    int failures;
    {
      std::lock_guard<std::mutex> lock(status_mu_);
      failures = consecutive_failures_;
    }
    const int exponent =
        std::min(std::max(failures - 1, 0), policy.max_retries);
    const double base = std::ldexp(
        static_cast<double>(policy.initial_backoff.count()), exponent);
    // Jitter factor in [0.75, 1.25), deterministic per jitter_seed.
    const double jittered = base * (0.75 + 0.5 * jitter.NextDouble());
    wait = std::chrono::milliseconds(
        std::max<int64_t>(1, static_cast<int64_t>(jittered)));
    {
      std::lock_guard<std::mutex> lock(status_mu_);
      MaintenanceEvent retry;
      retry.kind = MaintenanceEvent::Kind::kRetryScheduled;
      retry.status = outcome.status();
      retry.generation = CurrentGenerationId();
      retry.consecutive_failures = failures;
      retry.backoff = wait;
      PushEventLocked(std::move(retry));
    }
  }
}

HealthReport ServingEngine::Health() const {
  HealthReport report;
  report.generation = CurrentGenerationId();
  std::lock_guard<std::mutex> lock(status_mu_);
  report.state = health_;
  report.last_error = last_maintenance_status_;
  report.consecutive_failures = consecutive_failures_;
  return report;
}

std::vector<MaintenanceEvent> ServingEngine::MaintenanceEvents() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return std::vector<MaintenanceEvent>(events_.begin(), events_.end());
}

ServingStats ServingEngine::Stats() const {
  ServingStats stats;
  stats.submitted = stat_submitted_.load(std::memory_order_relaxed);
  stats.answered = stat_answered_.load(std::memory_order_relaxed);
  stats.shed_unavailable =
      stat_shed_unavailable_.load(std::memory_order_relaxed);
  stats.deadline_expired =
      stat_deadline_expired_.load(std::memory_order_relaxed);
  stats.pricing_failures =
      stat_pricing_failures_.load(std::memory_order_relaxed);
  stats.reseal_attempts =
      stat_reseal_attempts_.load(std::memory_order_relaxed);
  stats.reseal_failures =
      stat_reseal_failures_.load(std::memory_order_relaxed);
  stats.recoveries = stat_recoveries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace pinum
