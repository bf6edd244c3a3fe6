// Deterministic fault injection: a process-wide registry of named
// failpoints compiled into the production code paths that can fail in
// a real deployment — optimizer invocations, snapshot I/O, thread-pool
// task execution. A failpoint is a named call to FailPoint::Check() at
// the site; tests arm the name with a mode (always / exact-nth-hit /
// seeded-probability), an injected Status, and an optional stall, and
// the site observes the failure exactly as if the disk filled or the
// optimizer fell over. Nothing fires unless a test arms it: the
// disarmed fast path is one relaxed atomic load, so the checks stay in
// release builds and the fault schedule exercised under test is the
// binary that ships.
//
// Wired-in failpoint names (the site documents each precisely):
//   workload.build_query        one per-query cache (re)build
//                               (WorkloadCacheBuilder::BuildQueryCache)
//   inum.plan_optimizer_call    each plan-cache optimizer call
//   inum.access_optimizer_call  each access-cost optimizer call
//                               (classic and PINUM builders)
//   thread_pool.task            each ParallelFor iteration (fires as a
//                               thrown exception, exercising the
//                               pool's exception paths)
//   snapshot.save.open          SaveSnapshot: opening the tmp file
//   snapshot.save.short_write   SaveSnapshot: body write cut short
//   snapshot.save.fsync         SaveSnapshot: fsync of the tmp file
//   snapshot.save.rename        SaveSnapshot: the tmp -> path rename
//   snapshot.load.read          LoadSnapshot/ReadSnapshotEpoch: file read
//   snapshot.mmap.map           MapSnapshot: the mmap
//
// Thread-safety: Check/Arm/Disarm/counters may be called from any
// thread concurrently (the registry is mutex-protected; the disarmed
// fast path is lock-free). Seeded-probability decisions come from one
// per-failpoint Rng advanced under the registry lock, so a fault
// schedule is reproducible given the seed regardless of which threads
// hit the point — though *which* caller observes the k-th decision
// stays scheduling-dependent.
#ifndef PINUM_COMMON_FAILPOINT_H_
#define PINUM_COMMON_FAILPOINT_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace pinum {

/// Process-wide named fault-injection points. All members are static;
/// the registry lives for the process.
class FailPoint {
 public:
  enum class Mode {
    /// Armed but inert (counts hits, never fires).
    kOff,
    /// Fires on every hit.
    kAlways,
    /// Fires on exactly the nth_hit-th hit since arming (1-based),
    /// once — the "fail the k-th optimizer call mid-reseal" mode.
    kNthHit,
    /// Fires each hit with probability `probability`, decided by a
    /// generator seeded with `seed` at arm time.
    kProbability,
  };

  struct Config {
    Mode mode = Mode::kAlways;
    /// The Status Check() returns when the point fires. An OK status
    /// makes a delay-only failpoint: the site stalls but proceeds.
    Status status = Status::Internal("injected fault");
    /// kNthHit: which hit fires (1 = the first).
    int64_t nth_hit = 1;
    /// kProbability: per-hit fire chance in [0, 1].
    double probability = 0.0;
    /// kProbability: seed for the per-failpoint decision stream.
    uint64_t seed = 0;
    /// Stall applied (after the fire decision, outside the registry
    /// lock) whenever the point fires.
    std::chrono::milliseconds delay{0};
  };

  /// Evaluates the failpoint `name`. Returns OK unless the name is
  /// armed and its mode fires this hit, in which case the configured
  /// delay is slept and the configured status returned. When nothing
  /// at all is armed this is one relaxed atomic load.
  static Status Check(const char* name);

  /// Arms (or re-arms, resetting counters) the named failpoint.
  static void Arm(const std::string& name, Config config);

  /// Disarms the named failpoint (no-op if not armed).
  static void Disarm(const std::string& name);

  /// Disarms everything — test teardown's safety net.
  static void DisarmAll();

  /// Times Check(name) was evaluated since the name was last armed
  /// (0 if never armed).
  static int64_t HitCount(const std::string& name);

  /// Times the named failpoint actually fired since last armed.
  static int64_t FireCount(const std::string& name);
};

/// RAII scoped activation for tests: arms on construction, restores
/// the prior state (previous config, or disarmed) on destruction.
class ScopedFailPoint {
 public:
  ScopedFailPoint(std::string name, FailPoint::Config config);
  ~ScopedFailPoint();

  ScopedFailPoint(const ScopedFailPoint&) = delete;
  ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

 private:
  std::string name_;
  bool had_previous_ = false;
  FailPoint::Config previous_;
};

}  // namespace pinum

#endif  // PINUM_COMMON_FAILPOINT_H_
