// Shared setup for the experiment harnesses: the paper workload, the
// serving benches' build preamble, random atomic configurations, the
// cold-rebuild and advisor identity checks, the one flag parser and
// floor check, and the machine-readable summary every bench can emit
// (--json out.json) so perf trajectories can be recorded per commit
// instead of scraped from stdout.
#ifndef PINUM_BENCH_BENCH_UTIL_H_
#define PINUM_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "inum/access_cost_table.h"
#include "serving/serving_engine.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/workload_family.h"

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

/// The paper workload (Section VI-A): the star family at the paper's
/// ten queries Q1..Q10 over paper-scale statistics (no rows), with the
/// candidate universe generated from all ten. It is byte-identical to
/// StarSchemaWorkload::Create({}) plus default GenerateCandidates
/// (WorkloadFamilyTest.StarAtPaperSizeIsThePaperWorkload), the world
/// every floor-gated bench's CI floor was set on.
inline std::unique_ptr<WorkloadInstance> MakePaperInstance() {
  WorkloadFamilyOptions options;
  options.num_queries = 10;
  auto inst = MakeWorkloadInstance("star", options);
  if (!inst.ok()) {
    std::fprintf(stderr, "paper workload: %s\n",
                 inst.status().ToString().c_str());
    std::abort();
  }
  return std::move(*inst);
}

/// The serving benches' common preamble: the paper workload, its
/// `replicas`-fold replicated queries, and one timed build through a
/// WorkloadCacheBuilder. Heap-allocated so the builder's pointers into
/// the world stay stable for the setup's lifetime.
struct ServingSetup {
  std::unique_ptr<WorkloadInstance> world;
  std::vector<Query> queries;
  std::unique_ptr<WorkloadCacheBuilder> builder;
  WorkloadCacheResult built;
  /// Wall time of the cold BuildAll (what a restart would re-pay).
  double build_ms = 0;
};

/// Builds the full serving preamble; nullptr (with the error on stderr)
/// when the build fails.
inline std::unique_ptr<ServingSetup> MakeServingSetup(int replicas) {
  auto setup = std::make_unique<ServingSetup>();
  setup->world = MakePaperInstance();
  setup->queries = ReplicateQueries(setup->world->queries, replicas);
  setup->builder = std::make_unique<WorkloadCacheBuilder>(
      &setup->world->catalog(), &setup->world->set, &setup->world->stats());
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

/// Bitwise identity guard for the serving benches: `engine`'s current
/// generation must price every configuration exactly as a cold BuildAll
/// of the setup's queries under the (possibly drifted) world does. False,
/// with the first divergence on stderr, otherwise.
inline bool ServesColdRebuild(const ServingEngine& engine,
                              const ServingSetup& setup,
                              const std::vector<IndexConfig>& configs,
                              const char* where) {
  WorkloadCacheBuilder cold_builder(&setup.world->catalog(),
                                    &setup.world->set, &setup.world->stats());
  auto cold = cold_builder.BuildAll(setup.queries);
  if (!cold.ok()) {
    std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
    return false;
  }
  const WorkloadCostEvaluator cold_eval(&cold->sealed);
  for (size_t i = 0; i < configs.size(); ++i) {
    const double served = engine.Cost(configs[i]).cost;
    const double rebuilt = cold_eval.Cost(configs[i]);
    if (served != rebuilt) {
      std::fprintf(stderr,
                   "FAIL (%s): served cost diverges from cold rebuild on"
                   " config %zu: %.17g vs %.17g\n",
                   where, i, served, rebuilt);
      return false;
    }
  }
  return true;
}

/// Exact equality of everything the greedy advisor reports, step by
/// step. Costs and benefits compare with ==: delta-priced, restored and
/// resealed caches promise bit-identical pricing, not approximate
/// agreement. full_evaluations is deliberately not compared: it counts
/// full-path resolutions, which is exactly what differs between the
/// batched and delta paths (src/advisor/greedy_advisor.h).
inline bool SameAdvice(const AdvisorResult& a, const AdvisorResult& b,
                       std::string* why) {
  auto fail = [&](const std::string& reason) {
    *why = reason;
    return false;
  };
  if (a.chosen != b.chosen) return fail("chosen index sets differ");
  if (a.steps.size() != b.steps.size()) return fail("step counts differ");
  for (size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].chosen != b.steps[i].chosen ||
        a.steps[i].benefit != b.steps[i].benefit ||
        a.steps[i].size_bytes != b.steps[i].size_bytes ||
        a.steps[i].workload_cost_after != b.steps[i].workload_cost_after) {
      return fail("step " + std::to_string(i) + " differs");
    }
  }
  if (a.workload_cost_before != b.workload_cost_before ||
      a.workload_cost_after != b.workload_cost_after) {
    return fail("workload costs differ");
  }
  if (a.total_size_bytes != b.total_size_bytes) {
    return fail("total sizes differ");
  }
  if (a.evaluations != b.evaluations) return fail("evaluation counts differ");
  return true;
}

/// What a floor-gated bench accepts on its command line:
///   [replicas] [--smoke] [--json F] [--seed S] [<floor> X]...
/// The replica count and --seed are accepted only by benches that read
/// them. Each floor flag fails the run (exit 1) when the bench's
/// measured ratio falls below X.
struct BenchFlagSpec {
  bool replicas = true;
  bool seed = false;
  std::vector<std::string> floors;
};

/// A parsed command line. Every declared floor has an entry; 0 means no
/// floor.
struct BenchFlags {
  /// The positional replica count; 3 when unspecified, 1 under --smoke.
  int replicas = 3;
  bool smoke = false;
  std::string json_path;
  uint64_t seed = 1;
  std::map<std::string, double> floors;
};

/// Parses `argv` against `spec` into `flags`. An unknown flag, a
/// missing, malformed or negative value, a second positional argument,
/// or a flag the bench does not read prints the reason and the usage
/// line to stderr and returns false; main then exits 2, so a mistyped
/// floor can never silently turn a CI gate off.
inline bool ParseBenchFlags(int argc, const char* const* argv,
                            const BenchFlagSpec& spec, BenchFlags* flags) {
  *flags = BenchFlags{};
  for (const std::string& floor : spec.floors) flags->floors[floor] = 0;
  // Each value must be the whole token: strtoull alone would also take
  // " 7", "+7" and "-7" (wrapped), strtod "1e9x" up to the "x".
  auto integer = [](const std::string& text, uint64_t* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtoull(text.c_str(), &end, 10);
    return !text.empty() && std::isdigit(static_cast<unsigned char>(text[0])) &&
           *end == '\0' && errno == 0;
  };
  auto number = [](const std::string& text, double* out) {
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && std::isfinite(*out) && *out >= 0;
  };
  std::string error;
  bool have_replicas = false;
  for (int i = 1; i < argc && error.empty(); ++i) {
    const std::string arg = argv[i];
    const bool takes_value = arg == "--json" ||
                             (arg == "--seed" && spec.seed) ||
                             flags->floors.count(arg) > 0;
    // A following flag is not a value: "--min-speedup --smoke" is the
    // floor's value gone missing, not a floor of "--smoke".
    const std::string value =
        takes_value && i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0
            ? argv[++i]
            : "";
    uint64_t replicas = 0;
    if (arg == "--smoke") {
      flags->smoke = true;
    } else if (takes_value && value.empty()) {
      error = "missing value for " + arg;
    } else if (arg == "--json") {
      flags->json_path = value;
    } else if (arg == "--seed" && spec.seed) {
      if (!integer(value, &flags->seed)) error = "bad --seed " + value;
    } else if (takes_value) {
      if (!number(value, &flags->floors[arg])) {
        error = "bad " + arg + " " + value;
      }
    } else if (spec.replicas && !have_replicas && integer(arg, &replicas) &&
               replicas >= 1 && replicas <= INT_MAX) {
      flags->replicas = static_cast<int>(replicas);
      have_replicas = true;
    } else {
      error = "unexpected argument " + arg;
    }
  }
  if (!have_replicas) flags->replicas = flags->smoke ? 1 : 3;
  if (error.empty()) return true;
  std::string usage = argc > 0 ? argv[0] : "bench";
  if (spec.replicas) usage += " [replicas]";
  usage += " [--smoke] [--json F]";
  if (spec.seed) usage += " [--seed S]";
  for (const std::string& floor : spec.floors) usage += " [" + floor + " X]";
  std::fprintf(stderr, "%s\nusage: %s\n", error.c_str(), usage.c_str());
  return false;
}

/// False, with the shortfall on stderr, when `measured` is below a set
/// `floor` (0 = no floor); the bench then exits 1.
inline bool MeetsFloor(const char* what, double measured, double floor) {
  if (floor <= 0 || measured >= floor) return true;
  std::fprintf(stderr, "FAIL: %s %.2fx below the %.2fx floor\n", what,
               measured, floor);
  return false;
}

/// The seven floor-gated benches' command lines (ci.yml's bench-smoke
/// job runs each with its floors set).
inline const BenchFlagSpec kServingThroughputFlags = {};
inline const BenchFlagSpec kAdvisorScaleFlags = {.floors = {"--min-speedup"}};
inline const BenchFlagSpec kAdvisorSearchFlags = {
    .replicas = false, .floors = {"--min-quality-ratio"}};
inline const BenchFlagSpec kSnapshotFlags = {
    .floors = {"--min-speedup", "--min-mmap-speedup"}};
inline const BenchFlagSpec kIncrementalResealFlags = {
    .seed = true, .floors = {"--min-speedup"}};
inline const BenchFlagSpec kLiveServingFlags = {.seed = true,
                                                .floors = {"--min-speedup"}};
inline const BenchFlagSpec kDegradedServingFlags = {
    .seed = true, .floors = {"--min-ratio"}};

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
