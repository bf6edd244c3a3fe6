// Client-side load for the what-if workloads: closed-loop capacity
// rounds, a fixed-rate open loop timed from each request's due time,
// and a maintenance thread that drifts the world and reseals through
// the engine while the load runs.
#ifndef PINUM_BENCH_PIPELINE_SERVING_LOAD_H_
#define PINUM_BENCH_PIPELINE_SERVING_LOAD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pipeline_util.h"
#include "serving/serving_engine.h"
#include "workload/workload_family.h"

namespace pinum {
namespace bench {

/// One answered request kept for checking after the run: the config it
/// priced, the generation that answered, and the served cost.
struct AnswerSample {
  uint32_t config = 0;
  uint64_t generation = 0;
  double cost = 0;
};

/// What the client side observed. Times in microseconds.
struct ServingLoadStats {
  /// Open loop: answer observed minus the time the request was due.
  Samples latency_us;
  /// Open loop: how late the generator sent each request.
  Samples late_us;
  /// One entry per closed-loop round: completions per second.
  Samples capacity_qps;
  int64_t attempted = 0;
  /// Shed at admission or answered with a non-OK status.
  int64_t failed = 0;
  std::vector<std::string> errors;
  /// Every 64th OK answer, checked against its generation afterwards.
  std::vector<AnswerSample> checked;
  /// Generation id -> time (NowNs) the first answer naming it arrived.
  std::map<uint64_t, int64_t> first_seen_ns;
  // Traced runs only (the pump thread's view).
  Samples submit_us;
  Samples pump_us;
  Samples batch_size;
  Samples queue_wait_us;
};

/// Drives one engine from the client side. Untraced, the engine's own
/// dispatcher answers requests. Traced, a pump thread of this class
/// calls PumpOnce instead, so every pump yields its duration, its batch
/// size and the queue wait of each request in it (requests leave the
/// queue in submission order, so the n answered by a pump are the next
/// n submitted). Only one client phase runs at a time.
class ServingLoad {
 public:
  ServingLoad(ServingEngine* engine, const std::vector<IndexConfig>* configs,
              uint64_t seed, bool traced);
  ~ServingLoad();

  ServingLoad(const ServingLoad&) = delete;
  ServingLoad& operator=(const ServingLoad&) = delete;

  /// Closed loop: `window` requests in flight from this thread for
  /// `seconds`; records and returns completions per second.
  double ClosedRound(double seconds, int window);

  /// Open loop: `rate` requests per second for `seconds`, sent by this
  /// thread on a fixed schedule and collected by a second thread. The
  /// sender sleeps until ~100 us before each due time and spins for the
  /// rest.
  void OpenLoop(double rate, double seconds);

  /// Stops the dispatcher or pump thread; call before reading stats().
  void Finish();
  ServingLoadStats& stats() { return stats_; }

 private:
  struct Admission {
    bool ok = false;
    std::future<CostAnswer> future;
    std::string error;
  };
  Admission Submit(uint32_t config);
  /// Folds one answer into `stats` (collector-side fields only).
  void OnAnswer(const CostAnswer& answer, uint32_t config, int64_t now_ns,
                ServingLoadStats* stats);
  void PumpLoop();

  /// Submission timestamps indexed by admission order, for queue waits.
  static constexpr size_t kRing = 1 << 14;

  ServingEngine* engine_;
  const std::vector<IndexConfig>* configs_;
  Rng rng_;
  bool traced_;
  ServingLoadStats stats_;
  int64_t answered_ = 0;
  uint64_t newest_generation_ = 0;

  std::vector<int64_t> submit_ns_;
  uint64_t admitted_ = 0;
  std::atomic<bool> stop_pump_{false};
  std::thread pump_;
  bool finished_ = false;
};

/// Per-event record of the maintenance thread.
struct DriftStats {
  Samples drift_ms;
  /// Drift applied -> CheckAndReseal returned with the new generation
  /// published.
  Samples reseal_ms;
  /// Traced runs: time to copy the just-published generation's
  /// WorkloadCacheResult, the copy every reseal pays.
  Samples copy_ms;
  Samples stale_queries;
  /// (generation id published, NowNs when its drift was applied).
  std::vector<std::pair<uint64_t, int64_t>> applied_ns;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  /// The sealed caches of every generation served, by id (copies share
  /// arenas), for checking answers after the run.
  std::map<uint64_t, std::vector<SealedCache>> generations;
};

/// Every `period_s`: WithWorld(ApplyDrift(stale >= 10, one candidate
/// appended, seed + i)) then CheckAndReseal, on one thread.
class DriftMaintainer {
 public:
  DriftMaintainer(ServingEngine* engine, WorkloadInstance* inst,
                  const std::vector<Query>* queries, uint64_t seed,
                  double period_s, bool traced);
  ~DriftMaintainer();

  DriftMaintainer(const DriftMaintainer&) = delete;
  DriftMaintainer& operator=(const DriftMaintainer&) = delete;

  void Start();
  /// Joins the thread; stats() is valid afterwards.
  void Stop();
  DriftStats& stats() { return stats_; }

 private:
  void Loop();
  void Event(int64_t i);

  ServingEngine* engine_;
  WorkloadInstance* inst_;
  const std::vector<Query>* queries_;
  uint64_t seed_;
  double period_s_;
  bool traced_;
  DriftStats stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

}  // namespace bench
}  // namespace pinum

#endif  // PINUM_BENCH_PIPELINE_SERVING_LOAD_H_
