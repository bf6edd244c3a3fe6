#include "serving_load.h"

#include <chrono>
#include <deque>
#include <memory>

#include "trace.h"
#include "workload/drift.h"

namespace pinum {
namespace bench {
namespace {

/// Keeps the first few failure messages of a run.
void NoteError(std::vector<std::string>* errors, std::string message) {
  if (errors->size() < 8) errors->push_back(std::move(message));
}

/// Sleeps until ~100 us before `due_ns`, then spins until it.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 100'000;
  const int64_t ahead = due_ns - NowNs();
  if (ahead > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

}  // namespace

ServingLoad::ServingLoad(ServingEngine* engine,
                         const std::vector<IndexConfig>* configs,
                         uint64_t seed, bool traced)
    : engine_(engine), configs_(configs), rng_(seed), traced_(traced) {
  if (traced_) {
    submit_ns_.assign(kRing, 0);
    pump_ = std::thread([this] { PumpLoop(); });
  } else {
    engine_->StartDispatcher();
  }
}

ServingLoad::~ServingLoad() { Finish(); }

void ServingLoad::Finish() {
  if (finished_) return;
  finished_ = true;
  if (traced_) {
    // Everything submitted has been collected by now, so the queue is
    // empty and the pump thread exits at its next check.
    stop_pump_.store(true, std::memory_order_relaxed);
    pump_.join();
  } else {
    engine_->StopDispatcher();
  }
}

ServingLoad::Admission ServingLoad::Submit(uint32_t config) {
  Admission admission;
  int64_t start = 0;
  if (traced_) {
    // Stamped before SubmitCost: the pump may pop the request at once.
    start = NowNs();
    submit_ns_[admitted_ % kRing] = start;
  }
  auto future = engine_->SubmitCost((*configs_)[config]);
  if (traced_) stats_.submit_us.Add((NowNs() - start) / 1e3);
  if (!future.ok()) {
    admission.error = future.status().ToString();
    return admission;
  }
  ++admitted_;
  admission.ok = true;
  admission.future = std::move(*future);
  return admission;
}

void ServingLoad::OnAnswer(const CostAnswer& answer, uint32_t config,
                           int64_t now_ns, ServingLoadStats* stats) {
  if (!answer.status.ok()) {
    ++stats->failed;
    NoteError(&stats->errors, answer.status.ToString());
    return;
  }
  if (answer.generation > newest_generation_) {
    newest_generation_ = answer.generation;
    stats->first_seen_ns.emplace(answer.generation, now_ns);
  }
  if (answered_++ % 64 == 0) {
    stats->checked.push_back({config, answer.generation, answer.cost});
  }
}

double ServingLoad::ClosedRound(double seconds, int window) {
  std::deque<std::pair<std::future<CostAnswer>, uint32_t>> in_flight;
  auto submit_one = [&] {
    const uint32_t config = static_cast<uint32_t>(rng_.Index(configs_->size()));
    ++stats_.attempted;
    Admission admission = Submit(config);
    if (!admission.ok) {
      ++stats_.failed;
      NoteError(&stats_.errors, admission.error);
      return;
    }
    in_flight.emplace_back(std::move(admission.future), config);
  };
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0; i < window; ++i) submit_one();
  int64_t completed = 0;
  int64_t last = start;
  while (!in_flight.empty()) {
    const CostAnswer answer = in_flight.front().first.get();
    const uint32_t config = in_flight.front().second;
    in_flight.pop_front();
    const int64_t now = NowNs();
    OnAnswer(answer, config, now, &stats_);
    if (now <= end) {
      ++completed;
      last = now;
      submit_one();
    }
  }
  const double qps =
      last > start ? completed / (static_cast<double>(last - start) / 1e9) : 0;
  stats_.capacity_qps.Add(qps);
  return qps;
}

void ServingLoad::OpenLoop(double rate, double seconds) {
  struct Slot {
    std::future<CostAnswer> future;
    int64_t due_ns = 0;
    int64_t submit_ns = 0;
    int64_t submit_end_ns = 0;
    uint32_t config = 0;
    bool admitted = false;
  };
  const int64_t n = static_cast<int64_t>(rate * seconds);
  const double period_ns = 1e9 / rate;
  std::vector<Slot> slots(static_cast<size_t>(n));
  std::atomic<int64_t> published{0};

  // The collector owns its own stats until it is joined.
  ServingLoadStats collected;
  std::thread collector([&] {
    for (int64_t j = 0; j < n; ++j) {
      int64_t ready = published.load(std::memory_order_acquire);
      while (ready <= j) {
        published.wait(ready, std::memory_order_acquire);
        ready = published.load(std::memory_order_acquire);
      }
      Slot& slot = slots[static_cast<size_t>(j)];
      if (!slot.admitted) continue;
      const CostAnswer answer = slot.future.get();
      const int64_t now = NowNs();
      collected.latency_us.Add((now - slot.due_ns) / 1e3);
      OnAnswer(answer, slot.config, now, &collected);
      if (traced_ && j % 64 == 0) {
        const uint64_t request = RecordSpan("serving.request", slot.due_ns,
                                            now - slot.due_ns, 0, j);
        RecordSpan("serving.submit", slot.submit_ns,
                   slot.submit_end_ns - slot.submit_ns, request, j);
      }
    }
  });

  const int64_t start = NowNs() + 1'000'000;
  for (int64_t i = 0; i < n; ++i) {
    Slot& slot = slots[static_cast<size_t>(i)];
    slot.due_ns = start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    WaitUntil(slot.due_ns);
    slot.submit_ns = NowNs();
    stats_.late_us.Add((slot.submit_ns - slot.due_ns) / 1e3);
    slot.config = static_cast<uint32_t>(rng_.Index(configs_->size()));
    ++stats_.attempted;
    Admission admission = Submit(slot.config);
    slot.submit_end_ns = NowNs();
    if (admission.ok) {
      slot.future = std::move(admission.future);
      slot.admitted = true;
    } else {
      ++stats_.failed;
      NoteError(&stats_.errors, admission.error);
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();

  stats_.latency_us.Append(collected.latency_us);
  stats_.failed += collected.failed;
  for (std::string& e : collected.errors) NoteError(&stats_.errors, std::move(e));
  stats_.checked.insert(stats_.checked.end(), collected.checked.begin(),
                        collected.checked.end());
  for (const auto& [generation, at] : collected.first_seen_ns) {
    stats_.first_seen_ns.emplace(generation, at);
  }
}

void ServingLoad::PumpLoop() {
  uint64_t pumped = 0;
  int64_t pumps = 0;
  while (!stop_pump_.load(std::memory_order_relaxed)) {
    const int64_t start = NowNs();
    const size_t n = engine_->PumpOnce();
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    const int64_t end = NowNs();
    stats_.pump_us.Add((end - start) / 1e3);
    stats_.batch_size.Add(static_cast<double>(n));
    for (size_t k = 0; k < n; ++k) {
      stats_.queue_wait_us.Add((start - submit_ns_[(pumped + k) % kRing]) / 1e3);
    }
    pumped += n;
    // Every pump is measured; one in 16 is kept as a span so the trace
    // file stays small at 20k requests per second.
    if (pumps++ % 16 == 0) RecordSpan("serving.pump", start, end - start, 0, pumps);
  }
}

DriftMaintainer::DriftMaintainer(ServingEngine* engine, WorkloadInstance* inst,
                                 const std::vector<Query>* queries,
                                 uint64_t seed, double period_s, bool traced)
    : engine_(engine),
      inst_(inst),
      queries_(queries),
      seed_(seed),
      period_s_(period_s),
      traced_(traced) {
  const auto current = engine_->Pin();
  stats_.generations[current->id] = current->sealed();
}

DriftMaintainer::~DriftMaintainer() { Stop(); }

void DriftMaintainer::Start() {
  thread_ = std::thread([this] { Loop(); });
}

void DriftMaintainer::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void DriftMaintainer::Loop() {
  const auto start = std::chrono::steady_clock::now();
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(period_s_));
  for (int64_t i = 0;; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_until(lock, start + period * (i + 1),
                         [this] { return stop_; })) {
        return;
      }
    }
    Event(i);
  }
}

void DriftMaintainer::Event(int64_t i) {
  constexpr size_t kTargetStale = 10;
  DriftOptions options;
  options.add_candidates = 1;
  ++stats_.attempted;
  StatusOr<DriftResult> drift = Status::Internal("drift did not run");
  const int64_t t0 = NowNs();
  engine_->WithWorld([&] {
    ScopedSpan span("workload.drift", i);
    drift = ApplyDrift(*queries_, &inst_->set, &inst_->mutable_stats(),
                       kTargetStale, seed_ + static_cast<uint64_t>(i), options);
  });
  const int64_t t1 = NowNs();
  if (!drift.ok()) {
    ++stats_.failed;
    NoteError(&stats_.errors, "drift: " + drift.status().ToString());
    return;
  }
  StatusOr<bool> resealed = false;
  {
    ScopedSpan span("serving.reseal", i);
    resealed = engine_->CheckAndReseal();
  }
  const int64_t t2 = NowNs();
  if (!resealed.ok() || !*resealed) {
    ++stats_.failed;
    NoteError(&stats_.errors,
              resealed.ok() ? "drift staled " +
                                  std::to_string(drift->stale_queries.size()) +
                                  " queries but nothing was resealed"
                            : "reseal: " + resealed.status().ToString());
    return;
  }
  stats_.drift_ms.Add((t1 - t0) / 1e6);
  stats_.reseal_ms.Add((t2 - t1) / 1e6);
  stats_.stale_queries.Add(static_cast<double>(drift->stale_queries.size()));
  const auto published = engine_->Pin();
  stats_.applied_ns.emplace_back(published->id, t1);
  stats_.generations[published->id] = published->sealed();
  if (traced_) {
    const int64_t c0 = NowNs();
    auto copy = std::make_unique<WorkloadCacheResult>(published->result);
    const int64_t c1 = NowNs();
    copy.reset();
    stats_.copy_ms.Add((c1 - c0) / 1e6);
    RecordSpan("workload.result_copy", c0, c1 - c0, 0, i);
  }
}

}  // namespace bench
}  // namespace pinum
