// In-memory span tracing for bench_pipeline's traced run. Spans are
// recorded by the benchmark around each call into a src/ layer (nothing
// inside src/ is instrumented), kept in memory, and written out as
// Chrome trace-event JSON when the run ends.
//
// Span names are "<layer>.<operation>", the layer being the src/ module
// the call goes into ("bench" for the harness itself). A span's parent is
// the span open on the same thread when it starts, or an explicit parent
// for work handed to pool threads. With tracing off (no Tracer
// installed) a ScopedSpan reads one pointer and does nothing else.
#ifndef PINUM_BENCH_PIPELINE_TRACE_H_
#define PINUM_BENCH_PIPELINE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pinum {
namespace bench {

/// Monotonic nanoseconds since the first call in this process.
int64_t NowNs();

struct Span {
  /// "<layer>.<operation>"; must have static storage duration.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  /// The pass (set-up repeat, rep, timed window, tour) the span ran in;
  /// see Tracer::SetPass.
  int64_t pass = 0;
  /// Rep, request or query index; -1 when none.
  int64_t item = -1;
  uint32_t tid = 0;
};

class Tracer {
 public:
  /// The installed tracer, or nullptr when this run is untraced.
  static Tracer* Active();
  /// Installs `tracer` process-wide (nullptr uninstalls). Call before
  /// any thread that records spans starts.
  static void Install(Tracer* tracer);

  /// Tags every span started from now on, on any thread, with `pass`.
  static void SetPass(int64_t pass);
  static int64_t Pass();

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  /// All spans recorded so far (call after recording threads joined).
  std::vector<Span> Spans() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events; args carry
  /// id, parent, pass and item). False when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
};

/// Records the enclosing scope as a span (no-op when untraced).
class ScopedSpan {
 public:
  /// Parent: the innermost ScopedSpan open on this thread.
  explicit ScopedSpan(const char* name, int64_t item = -1);
  /// Explicit parent, for spans opened on pool threads.
  ScopedSpan(const char* name, int64_t item, uint64_t parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when untraced.
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  uint64_t saved_current_ = 0;
};

/// Records an interval measured elsewhere — e.g. optimizer-call time
/// that src/ accumulates into its build stats — as a child of `parent`.
/// Returns the new span's id (0 when untraced).
uint64_t RecordSpan(const char* name, int64_t start_ns, int64_t dur_ns,
                    uint64_t parent, int64_t item);

/// Wall-clock attribution of the root spans selected by `is_root` to
/// layers, in ns. Time when no child span is open counts as the span's
/// own layer (its self time); time when k children are open is split
/// 1/k to each, recursively, so parallel children never count the same
/// instant twice and the layer totals add up to the roots' durations.
/// For a span with serial children this is exactly its duration minus
/// its children's.
std::map<std::string, double> WallShareByLayer(
    const std::vector<Span>& spans, bool (*is_root)(const Span&));

/// For span name `name`: the per-pass sum of durations in ms, one entry
/// per pass that recorded at least one such span.
std::vector<double> PassSumsMs(const std::vector<Span>& spans,
                               const char* name);

}  // namespace bench
}  // namespace pinum

#endif  // PINUM_BENCH_PIPELINE_TRACE_H_
