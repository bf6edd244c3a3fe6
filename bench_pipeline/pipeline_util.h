// Helpers for bench_pipeline: argument parsing, a JSON writer that
// escapes keys and control characters, sample summaries (median,
// quartiles, p99/p999 with the sample count), peak RSS, and the
// per-family set-up every workload starts from.
#ifndef PINUM_BENCH_PIPELINE_PIPELINE_UTIL_H_
#define PINUM_BENCH_PIPELINE_PIPELINE_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "workload/cache_manager.h"
#include "workload/workload_family.h"

namespace pinum {
namespace bench {

/// Command line shared by every bench_pipeline invocation:
///   --workload W --seed S [--seconds T] [--json out.json]
///   [--trace trace.json] [--smoke] [--workdir DIR]
struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase; 0 = the default (25 s, 0.3 s smoke).
  double seconds = 0;
  std::string json_path;
  /// Non-empty: traced run, spans written here as Chrome trace JSON.
  std::string trace_path;
  bool smoke = false;
  /// Scratch space for snapshot files (a per-process subdirectory is
  /// created and removed).
  std::string workdir = ".bench_build/work";
};

/// Parses argv into `args`; false (with the reason in `error`) on an
/// unknown flag, a missing value, or a malformed number.
inline bool ParseBenchArgs(int argc, char** argv, BenchArgs* args,
                           std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--json") {
      args->json_path = value;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      *error = "unknown argument " + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

/// `s` as a JSON string literal: quotes, backslashes and every control
/// character escaped, so Status messages with newlines stay valid JSON.
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Full round-trip precision; JSON has no literal for inf/nan, so those
/// render as null (and the bench counts a non-finite metric as a
/// failure).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A JSON object built in insertion order; Dump() renders one line.
class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Integer(const std::string& key, int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    return Raw(key, buf);
  }
  JsonObject& String(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Object(const std::string& key, const JsonObject& v) {
    return Raw(key, v.Dump());
  }
  JsonObject& Raw(const std::string& key, std::string json) {
    entries_.emplace_back(JsonString(key), std::move(json));
    return *this;
  }

  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += entries_[i].first + ": " + entries_[i].second;
    }
    return out + "}";
  }

  /// Writes Dump() plus a newline to `path`; false when it cannot.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string text = Dump() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Quantiles of a sample set, reported together with the sample count
/// so a tail percentile is never read without knowing how many samples
/// lie beyond it.
struct SampleSummary {
  size_t count = 0;
  double p50 = 0;
  double q1 = 0;
  double q3 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// Collects samples (latencies, durations, sizes) from one thread.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  double Mean() const {
    double sum = 0;
    for (const double v : values_) sum += v;
    return values_.empty() ? 0 : sum / static_cast<double>(count());
  }

  /// Quantiles by linear interpolation between closest ranks; all 0
  /// when there are no samples.
  SampleSummary Summary() const {
    SampleSummary s;
    s.count = values_.size();
    if (values_.empty()) return s;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = Quantile(sorted, 0.5);
    s.q1 = Quantile(sorted, 0.25);
    s.q3 = Quantile(sorted, 0.75);
    s.p99 = Quantile(sorted, 0.99);
    s.p999 = Quantile(sorted, 0.999);
    return s;
  }
  double Median() const { return Summary().p50; }

 private:
  static double Quantile(const std::vector<double>& sorted, double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
  }

  std::vector<double> values_;
};

/// Peak resident set size of this process in MiB (getrusage max RSS).
inline double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One generated workload family ready to build: the instance, its
/// `replicas`-fold replicated query list, and a builder with a
/// `threads`-thread pool bound to the instance's world. Heap-allocated
/// so the builder's pointers into the instance stay valid.
struct FamilySetup {
  std::unique_ptr<WorkloadInstance> inst;
  std::vector<Query> queries;
  std::unique_ptr<WorkloadCacheBuilder> builder;
};

/// Generates `family` under `options`, replicates its queries, and binds
/// a builder (no build yet: callers decide how the queries reach it).
inline StatusOr<std::unique_ptr<FamilySetup>> MakeFamilySetup(
    const std::string& family, const WorkloadFamilyOptions& options,
    int replicas, int threads) {
  auto setup = std::make_unique<FamilySetup>();
  PINUM_ASSIGN_OR_RETURN(setup->inst, MakeWorkloadInstance(family, options));
  setup->queries = ReplicateQueries(setup->inst->queries, replicas);
  WorkloadCacheOptions opts;
  opts.num_threads = threads;
  setup->builder = std::make_unique<WorkloadCacheBuilder>(
      &setup->inst->catalog(), &setup->inst->set, &setup->inst->stats(),
      opts);
  return setup;
}

}  // namespace bench
}  // namespace pinum

#endif  // PINUM_BENCH_PIPELINE_PIPELINE_UTIL_H_
