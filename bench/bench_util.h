// Shared setup for the experiment harnesses: the paper-scale workload,
// candidate sets, random atomic configurations, and the machine-readable
// summary every bench can emit (--json out.json) so perf trajectories
// can be recorded per commit instead of scraped from stdout.
#ifndef PINUM_BENCH_BENCH_UTIL_H_
#define PINUM_BENCH_BENCH_UTIL_H_

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/candidate_generator.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "inum/access_cost_table.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/star_schema.h"

namespace pinum {
namespace bench {

/// A flat JSON object of bench results, written in insertion order.
/// Numbers render with full round-trip precision ("%.17g"); non-finite
/// doubles render as strings ("inf"/"-inf"/"nan") since JSON has no
/// literal for them. Keys and string values are escaped (Quote), so any
/// bytes produce a valid document.
class JsonSummary {
 public:
  /// `text` as a JSON string literal: quotes and backslashes escaped,
  /// control characters as \b \f \n \r \t or \u00XX. Other bytes
  /// pass through unchanged (UTF-8 stays UTF-8).
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\b':
          out += "\\b";
          break;
        case '\f':
          out += "\\f";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\r':
          out += "\\r";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  void Set(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      entries_.emplace_back(
          key, std::string("\"") +
                   (std::isnan(value) ? "nan" : value > 0 ? "inf" : "-inf") +
                   "\"");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    entries_.emplace_back(key, buf);
  }

  void Set(const std::string& key, int64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    entries_.emplace_back(key, buf);
  }

  void Set(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, Quote(value));
  }

  /// Writes the object to `path`; returns false (with a message on
  /// stderr) when the file cannot be written.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write JSON summary to %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  %s: %s%s\n", Quote(entries_[i].first).c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Paper-scale workload (10 GB-equivalent statistics, no data).
inline StarSchemaWorkload MakePaperWorkload() {
  StarSchemaSpec spec;
  auto w = StarSchemaWorkload::Create(spec);
  if (!w.ok()) {
    std::fprintf(stderr, "workload: %s\n", w.status().ToString().c_str());
    std::abort();
  }
  return std::move(*w);
}

/// Candidate universe for the whole workload (the paper's experiment
/// searches 1093 candidates; the count depends on the query generator's
/// seed and is reported by the harness).
inline CandidateSet MakeCandidates(const StarSchemaWorkload& w) {
  CandidateOptions copt;
  auto cands = GenerateCandidates(w.queries(), w.db().catalog(),
                                  w.db().stats(), copt);
  auto set = MakeCandidateSet(w.db().catalog(), cands);
  if (!set.ok()) {
    std::fprintf(stderr, "candidates: %s\n",
                 set.status().ToString().c_str());
    std::abort();
  }
  return std::move(*set);
}

/// Replicates a workload `times`-fold (renamed clones), modeling a
/// production workload where the same query templates recur — the regime
/// in which cross-query access-cost sharing pays off.
inline std::vector<Query> ReplicateQueries(const std::vector<Query>& queries,
                                           int times) {
  std::vector<Query> out;
  out.reserve(queries.size() * static_cast<size_t>(times));
  for (int r = 0; r < times; ++r) {
    for (const Query& q : queries) {
      Query clone = q;
      if (r > 0) clone.name += "_r" + std::to_string(r);
      out.push_back(std::move(clone));
    }
  }
  return out;
}

/// The serving benches' common preamble — paper workload, candidate
/// universe, `replicas`-fold replicated queries, and one timed build
/// through a WorkloadCacheBuilder — previously hand-rolled per bench.
/// Heap-allocated so the builder's pointers into workload/set stay
/// stable for the setup's lifetime.
struct ServingSetup {
  StarSchemaWorkload workload;
  CandidateSet set;
  std::vector<Query> queries;
  std::unique_ptr<WorkloadCacheBuilder> builder;
  WorkloadCacheResult built;
  /// Wall time of the cold BuildAll (what a restart would re-pay).
  double build_ms = 0;
};

/// Builds the full serving preamble; nullptr (with the error on stderr)
/// when the build fails.
inline std::unique_ptr<ServingSetup> MakeServingSetup(
    int replicas, WorkloadCacheOptions opts = {}) {
  auto setup = std::unique_ptr<ServingSetup>(new ServingSetup{
      MakePaperWorkload(), CandidateSet{}, {}, nullptr, {}, 0});
  setup->set = MakeCandidates(setup->workload);
  setup->queries = ReplicateQueries(setup->workload.queries(), replicas);
  setup->builder = std::make_unique<WorkloadCacheBuilder>(
      &setup->workload.db().catalog(), &setup->set,
      &setup->workload.db().stats(), opts);
  Stopwatch build_timer;
  auto built = setup->builder->BuildAll(setup->queries);
  setup->build_ms = build_timer.ElapsedMillis();
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return nullptr;
  }
  setup->built = std::move(*built);
  return setup;
}

/// Random atomic configuration over the candidates relevant to `q`
/// (at most one index per table, each table filled with prob. `p_fill`).
inline IndexConfig RandomAtomicConfig(const Query& q, const CandidateSet& set,
                                      Rng* rng, double p_fill = 0.6) {
  std::map<TableId, std::vector<IndexId>> per_table;
  for (IndexId id : set.candidate_ids) {
    const IndexDef* def = set.universe.FindIndex(id);
    if (q.PosOfTable(def->table) >= 0) per_table[def->table].push_back(id);
  }
  IndexConfig config;
  for (auto& [table, ids] : per_table) {
    (void)table;
    if (rng->Chance(p_fill)) config.push_back(ids[rng->Index(ids.size())]);
  }
  return config;
}

}  // namespace bench
}  // namespace pinum

#endif  // PINUM_BENCH_BENCH_UTIL_H_
