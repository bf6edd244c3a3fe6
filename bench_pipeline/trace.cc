#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "pipeline_util.h"

namespace pinum {
namespace bench {
namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<int64_t> g_pass{0};
std::atomic<uint32_t> g_next_tid{1};

/// Innermost open ScopedSpan on this thread (implicit parent).
thread_local uint64_t t_current_span = 0;
thread_local uint32_t t_tid = 0;

uint32_t ThreadNumber() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

/// The layer of a span name: everything before the first '.'.
std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

Tracer* Tracer::Active() { return g_tracer.load(std::memory_order_acquire); }

void Tracer::Install(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

void Tracer::SetPass(int64_t pass) {
  g_pass.store(pass, std::memory_order_relaxed);
}

int64_t Tracer::Pass() { return g_pass.load(std::memory_order_relaxed); }

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"pass\": %lld, "
                 "\"item\": %lld}}%s\n",
                 JsonString(s.name).c_str(),
                 JsonString(LayerOf(s.name)).c_str(), s.start_ns / 1e3,
                 s.dur_ns / 1e3, s.tid, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.pass),
                 static_cast<long long>(s.item),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int64_t item)
    : ScopedSpan(name, item, t_current_span) {}

ScopedSpan::ScopedSpan(const char* name, int64_t item, uint64_t parent)
    : tracer_(Tracer::Active()) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.pass = Tracer::Pass();
  span_.item = item;
  span_.tid = ThreadNumber();
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.dur_ns = NowNs() - span_.start_ns;
  t_current_span = saved_current_;
  tracer_->Record(span_);
}

uint64_t RecordSpan(const char* name, int64_t start_ns, int64_t dur_ns,
                    uint64_t parent, int64_t item) {
  Tracer* tracer = Tracer::Active();
  if (tracer == nullptr) return 0;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.dur_ns = std::max<int64_t>(dur_ns, 0);
  span.id = tracer->NextId();
  span.parent = parent;
  span.pass = Tracer::Pass();
  span.item = item;
  span.tid = ThreadNumber();
  tracer->Record(span);
  return span.id;
}

namespace {

class Attribution {
 public:
  explicit Attribution(const std::vector<Span>& spans) : spans_(spans) {
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != 0) children_[spans[i].parent].push_back(i);
    }
  }

  /// Adds `weight` x each instant of span `i` to the layer doing the
  /// work at that instant.
  void Attribute(size_t i, double weight) {
    const Span& s = spans_[i];
    const auto kids_it = children_.find(s.id);
    if (kids_it == children_.end()) {
      by_layer_[LayerOf(s.name)] += weight * static_cast<double>(s.dur_ns);
      return;
    }
    const std::vector<size_t>& kids = kids_it->second;
    const int64_t begin = s.start_ns;
    const int64_t end = s.start_ns + s.dur_ns;
    // Sweep over child start/end events clipped to the parent interval;
    // ends sort before starts at the same instant.
    struct Event {
      int64_t at;
      int delta;
      size_t kid;
    };
    std::vector<Event> events;
    events.reserve(kids.size() * 2);
    for (size_t k = 0; k < kids.size(); ++k) {
      const Span& c = spans_[kids[k]];
      const int64_t cb = std::max(begin, c.start_ns);
      const int64_t ce = std::min(end, c.start_ns + c.dur_ns);
      if (ce <= cb) continue;
      events.push_back({cb, +1, k});
      events.push_back({ce, -1, k});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.at != b.at ? a.at < b.at : a.delta < b.delta;
    });
    std::vector<double> share(kids.size(), 0.0);
    std::vector<size_t> active;
    double self = 0;
    int64_t cursor = begin;
    for (const Event& e : events) {
      const double seg = static_cast<double>(e.at - cursor);
      if (seg > 0) {
        if (active.empty()) {
          self += seg;
        } else {
          for (const size_t k : active) {
            share[k] += seg / static_cast<double>(active.size());
          }
        }
      }
      cursor = e.at;
      if (e.delta > 0) {
        active.push_back(e.kid);
      } else {
        active.erase(std::find(active.begin(), active.end(), e.kid));
      }
    }
    self += static_cast<double>(end - cursor);
    by_layer_[LayerOf(s.name)] += weight * self;
    for (size_t k = 0; k < kids.size(); ++k) {
      const Span& c = spans_[kids[k]];
      if (share[k] > 0 && c.dur_ns > 0) {
        Attribute(kids[k], weight * share[k] / static_cast<double>(c.dur_ns));
      }
    }
  }

  const std::map<std::string, double>& by_layer() const { return by_layer_; }

 private:
  const std::vector<Span>& spans_;
  std::unordered_map<uint64_t, std::vector<size_t>> children_;
  std::map<std::string, double> by_layer_;
};

}  // namespace

std::map<std::string, double> WallShareByLayer(
    const std::vector<Span>& spans, bool (*is_root)(const Span&)) {
  Attribution attribution(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (is_root(spans[i])) attribution.Attribute(i, 1.0);
  }
  return attribution.by_layer();
}

std::vector<double> PassSumsMs(const std::vector<Span>& spans,
                               const char* name) {
  std::map<int64_t, double> per_pass;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      per_pass[s.pass] += static_cast<double>(s.dur_ns) / 1e6;
    }
  }
  std::vector<double> sums;
  for (const auto& [pass, ms] : per_pass) sums.push_back(ms);
  return sums;
}

}  // namespace bench
}  // namespace pinum
