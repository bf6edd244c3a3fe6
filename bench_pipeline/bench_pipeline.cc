// bench_pipeline: one benchmark for the whole path a user of this
// system pays for — SQL text → PINUM build → seal → snapshot → what-if
// answers and index recommendations — on four workloads that stress
// different layers (README.md next to this file is the reference for
// workloads, metrics, tracing and the comparison protocol).
//
//   bench_pipeline --workload W --seed S [--seconds T] [--json out.json]
//                  [--trace trace.json] [--smoke] [--workdir DIR]
//   bench_pipeline --workload all ...   # re-runs itself once per workload
//
// W is advise_cold, advise_warm, whatif_steady or whatif_drift. Every run
// checks its outputs (SQL round trips, warm advice bit-identical to
// cold, sampled served answers against their generation, the drifted
// engine against a cold rebuild) and ends its standard output with one
// JSON line:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// holding the end-to-end metrics, or with --trace the per-layer metrics
// derived from the spans the run recorded around each call into src/.
// The exit status is 0 only when every check passed.
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "advisor/search_advisor.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "pinum/pinum_builder.h"
#include "pipeline_util.h"
#include "serving/serving_engine.h"
#include "serving_load.h"
#include "trace.h"
#include "workload/cache_manager.h"
#include "workload/workload_family.h"

extern char** environ;

namespace pinum {
namespace bench {
namespace {

/// Builder pool size (the caller plus one worker). The what-if workloads
/// also run a spinning sender, a collector and the dispatcher; a larger
/// pool puts more runnable threads on a 4-vCPU machine than it has, and
/// run-to-run spread then follows the scheduler rather than the code.
constexpr int kThreads = 2;
constexpr int kSetupRepeats = 3;
constexpr int kMinReps = 3;
constexpr size_t kNumConfigs = 1024;
constexpr int kClosedRounds = 15;
constexpr int kClosedWindow = 64;
constexpr double kSteadyRate = 20'000;
constexpr double kDriftRate = 5'000;
constexpr double kDriftPeriodS = 0.5;
constexpr int kRestarts = 20;
/// Pass id of the traced run's closing tour (set-up repeats are
/// negative, timed reps count up from 0).
constexpr int64_t kTourPass = 1'000'000;

enum class Kind { kAdviseCold, kAdviseWarm, kWhatifSteady, kWhatifDrift };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"advise_cold", Kind::kAdviseCold},
    {"advise_warm", Kind::kAdviseWarm},
    {"whatif_steady", Kind::kWhatifSteady},
    {"whatif_drift", Kind::kWhatifDrift},
};

struct FamilySpec {
  const char* family;
  uint64_t seed;
  int num_queries;
  int replicas;
};

/// The generated inputs are fixed per workload — star at the paper's
/// seed, the others at the golden-corpus seed — so every --seed prices
/// the same amount of work; --seed picks the statement order, the
/// what-if requests and the drift events.
std::vector<FamilySpec> FamiliesOf(Kind kind, bool smoke) {
  const int n = smoke ? 12 : 100;
  const FamilySpec star{"star", 42, 10, smoke ? 1 : 3};
  switch (kind) {
    case Kind::kAdviseCold:
    case Kind::kAdviseWarm:
      return {star, {"chain", 1, n, 1}, {"skew", 1, n, 1},
              {"fact_pair", 1, n, 1}};
    case Kind::kWhatifSteady:
      return {star};
    case Kind::kWhatifDrift:
      return {{"chain", 1, n, 1}};
  }
  return {};
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"answer_p50_ms", "ms"},
    {"update_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Reported by every traced run (BENCHMARK.json "per_layer").
constexpr MetricDef kPerLayer[] = {
    {"parser.parse_us", "us"},
    {"parser.queries", "count"},
    {"parser.self_share", "ratio"},
    {"optimizer.direct_call_ms", "ms"},
    {"optimizer.paths_considered", "count"},
    {"optimizer.self_share", "ratio"},
    {"pinum.build_ms", "ms"},
    {"pinum.plan_call_ms", "ms"},
    {"pinum.access_call_ms", "ms"},
    {"pinum.plan_calls", "count"},
    {"pinum.access_calls", "count"},
    {"pinum.access_calls_saved", "count"},
    {"pinum.share_hit_ratio", "ratio"},
    {"pinum.plans_exported", "count"},
    {"pinum.plans_cached", "count"},
    {"pinum.self_share", "ratio"},
    {"inum.seal_ms", "ms"},
    {"inum.plans_pruned", "count"},
    {"inum.prune_ratio", "ratio"},
    {"inum.terms", "count"},
    {"inum.postings", "count"},
    {"inum.arena_bytes", "bytes"},
    {"inum.cost_ns", "ns"},
    {"inum.snapshot_save_ms", "ms"},
    {"inum.snapshot_map_ms", "ms"},
    {"inum.snapshot_load_ms", "ms"},
    {"inum.snapshot_bytes", "bytes"},
    {"inum.self_share", "ratio"},
    {"workload.gen_ms", "ms"},
    {"workload.build_ms", "ms"},
    {"workload.stale_check_ms", "ms"},
    {"workload.drift_ms", "ms"},
    {"workload.stale_queries", "count"},
    {"workload.result_copy_ms", "ms"},
    {"workload.self_share", "ratio"},
    {"advisor.search_ms", "ms"},
    {"advisor.greedy_ms", "ms"},
    {"advisor.search_evaluations", "count"},
    {"advisor.search_full_evaluations", "count"},
    {"advisor.greedy_evaluations", "count"},
    {"advisor.restarts_completed", "count"},
    {"advisor.swaps_accepted", "count"},
    {"advisor.swaps_pruned", "count"},
    {"advisor.search_gain", "ratio"},
    {"advisor.cost_ratio", "ratio"},
    {"advisor.self_share", "ratio"},
    {"serving.submit_us", "us"},
    {"serving.pump_us", "us"},
    {"serving.batch_size", "count"},
    {"serving.queue_wait_us", "us"},
    {"serving.answered_ratio", "ratio"},
    {"serving.shed", "count"},
    {"serving.deadline_expired", "count"},
    {"serving.pricing_failures", "count"},
    {"serving.reseal_ms", "ms"},
    {"serving.staleness_ms", "ms"},
    {"serving.generations", "count"},
    {"serving.p99_us", "us"},
    {"serving.p999_us", "us"},
    {"serving.generator_late_p99_us", "us"},
    {"serving.self_share", "ratio"},
    {"trace.answer_p50_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.layer_coverage", "ratio"},
};

/// The src/ layers whose share of the timed operations' wall time the
/// traced run reports (everything else is the harness: "bench").
constexpr const char* kSelfShareLayers[] = {
    "parser", "optimizer", "pinum", "inum", "workload", "advisor", "serving"};

SearchOptions AdvisorSearchOptions() {
  SearchOptions options;
  options.base.budget_bytes = 3LL << 30;
  options.seed = 1;
  options.max_restarts = 16;
  return options;
}

/// One workload family after set-up.
struct Family {
  std::string name;
  /// Instance, builder, and the queries as parsed back from `sql`.
  std::unique_ptr<FamilySetup> setup;
  /// The workload as the user hands it over: one statement per query.
  std::vector<std::string> sql;
  /// Set-up build (moved into the engine by the what-if workloads).
  WorkloadCacheResult built;
  /// Seeded random atomic configurations: the what-if requests.
  std::vector<IndexConfig> configs;
  std::string snapshot_path;
  int64_t snapshot_bytes = 0;
  /// advise_*: the cold recommendation every rep must reproduce.
  SearchResult reference;
};

struct WorkloadState {
  std::vector<Family> families;
  /// Declared last so it is destroyed before the builders and queries
  /// it points into.
  std::unique_ptr<ServingEngine> engine;
};

/// What the timed phase measured.
struct Outcome {
  /// advise_*: one entry per rep (all families, SQL or snapshot to
  /// recommendation).
  Samples op_ms;
  /// Time from new input to the first answer that reflects it.
  Samples update_ms;
  double throughput_per_s = 0;
  bool has_serving = false;
  ServingLoadStats serving;
  bool has_drift = false;
  DriftStats drift;
  ServingStats engine_stats;
};

/// What the traced run's closing tour measured (sums over families).
struct Tour {
  int64_t queries = 0;
  PinumBuildStats counts;
  Samples direct_call_ms;
  int64_t paths_considered = 0;
  Samples cost_ns;
  int64_t snapshot_bytes = 0;
  int64_t plans_pruned = 0;
  int64_t terms = 0;
  int64_t postings = 0;
  int64_t arena_bytes = 0;
  int64_t search_evaluations = 0;
  int64_t search_full_evaluations = 0;
  int64_t greedy_evaluations = 0;
  int64_t restarts_completed = 0;
  int64_t swaps_accepted = 0;
  int64_t swaps_pruned = 0;
  double log_search_gain = 0;
  double log_cost_ratio = 0;
  int families = 0;
  ServingLoadStats serving;
  DriftStats drift;
  ServingStats engine_stats;
};

/// Run-wide settings and outcome accounting.
struct Run {
  BenchArgs args;
  Kind kind = Kind::kAdviseCold;
  bool traced = false;
  double seconds = 0;
  std::string workdir;
  /// Traced runs: the bench-owned pool the traced builds shard over.
  std::unique_ptr<ThreadPool> pool;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  Samples parse_us;
  /// "<metric>.<family>" per-family splits, reported as details.
  std::map<std::string, Samples> per_family;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  /// Folds a load or maintenance thread's own accounting in.
  void Absorb(int64_t attempted_ops, int64_t failed_ops,
              const std::vector<std::string>& messages) {
    attempted += attempted_ops;
    failed += failed_ops;
    for (const std::string& m : messages) {
      if (errors.size() < 20) errors.push_back(m);
    }
  }
};

bool SameAdvice(const SearchResult& a, const SearchResult& b) {
  return a.chosen == b.chosen && a.workload_cost_after == b.workload_cost_after;
}

/// SQL text -> queries named after `named`; false on a parse failure.
bool ParseAll(Run& run, const Catalog& catalog,
              const std::vector<std::string>& sql,
              const std::vector<Query>& named, size_t index,
              std::vector<Query>* out) {
  ScopedSpan span("parser.parse", static_cast<int64_t>(index));
  out->clear();
  out->reserve(sql.size());
  for (size_t i = 0; i < sql.size(); ++i) {
    const int64_t start = NowNs();
    StatusOr<Query> query = ParseSql(sql[i], catalog);
    run.parse_us.Add((NowNs() - start) / 1e3);
    if (!query.ok()) {
      run.Check(false, "parse " + named[i].name + ": " +
                           query.status().ToString());
      return false;
    }
    query->name = named[i].name;
    out->push_back(std::move(*query));
  }
  return true;
}

/// Generation, statement order, SQL rendering and parsing, and the
/// family's what-if requests.
Status SetUpFamily(Run& run, const FamilySpec& spec, size_t index,
                   Family* f) {
  f->name = spec.family;
  WorkloadFamilyOptions options;
  options.seed = spec.seed;
  options.num_queries = spec.num_queries;
  {
    ScopedSpan span("workload.gen", static_cast<int64_t>(index));
    PINUM_ASSIGN_OR_RETURN(f->setup, MakeFamilySetup(spec.family, options,
                                                     spec.replicas, kThreads));
  }
  Rng order(run.args.seed * 0x9e3779b97f4a7c15ULL + index);
  order.Shuffle(&f->setup->queries);
  const Catalog& catalog = f->setup->inst->catalog();
  {
    ScopedSpan span("query.to_sql", static_cast<int64_t>(index));
    for (const Query& q : f->setup->queries) f->sql.push_back(q.ToSql(catalog));
  }
  std::vector<Query> parsed;
  if (!ParseAll(run, catalog, f->sql, f->setup->queries, index, &parsed)) {
    return Status::InvalidArgument(f->name + ": workload SQL did not parse");
  }
  for (size_t i = 0; i < parsed.size(); ++i) {
    run.Check(parsed[i].ToSql(catalog) == f->sql[i],
              f->name + ": " + parsed[i].name + " re-renders differently");
  }
  f->setup->queries = std::move(parsed);
  Rng rng(run.args.seed * 1'000'003 + index + 1);
  const std::vector<Query>& queries = f->setup->queries;
  for (size_t i = 0; i < kNumConfigs; ++i) {
    f->configs.push_back(RandomAtomicConfig(queries[i % queries.size()],
                                            f->setup->inst->set, &rng));
  }
  return Status::OK();
}

Status BuildFamily(Family* f, size_t index) {
  ScopedSpan span("workload.build", static_cast<int64_t>(index));
  PINUM_ASSIGN_OR_RETURN(f->built,
                         f->setup->builder->BuildAll(f->setup->queries));
  return Status::OK();
}

/// The traced run's stand-in for WorkloadCacheBuilder::BuildAll: the
/// same per-query PINUM builds (one shared access-cost store) and seals,
/// so the caches are identical, but with a span per query build. The
/// build's two optimizer phases, which src/ times into PinumBuildStats
/// (plan-cache calls and the access-cost call, each with the catalog
/// set-up and plan harvesting around it), become its child spans, so
/// their time is split from the rest of the build.
StatusOr<std::vector<SealedCache>> TracedBuild(Run& run, const Family& f,
                                               const std::vector<Query>& queries,
                                               size_t index) {
  const WorkloadInstance& inst = *f.setup->inst;
  const size_t n = queries.size();
  std::vector<InumCache> caches(n);
  std::vector<Status> statuses(n);
  std::vector<int64_t> build_ns(n, 0);
  const int64_t region_start = NowNs();
  {
    ScopedSpan region("workload.build", static_cast<int64_t>(index));
    SharedAccessCostStore store;
    PinumBuildOptions options = WorkloadCacheOptions{}.pinum;
    options.shared_access = &store;
    const uint64_t parent = region.id();
    run.pool->ParallelFor(static_cast<int64_t>(n), [&](int64_t i) {
      const size_t q = static_cast<size_t>(i);
      PinumBuildStats stats;
      uint64_t span_id = 0;
      int64_t start = 0;
      {
        ScopedSpan span("pinum.build_query", i, parent);
        span_id = span.id();
        start = NowNs();
        StatusOr<InumCache> cache = BuildInumCachePinum(
            queries[q], inst.catalog(), inst.set, inst.stats(), options,
            &stats);
        if (cache.ok()) {
          caches[q] = std::move(*cache);
        } else {
          statuses[q] = cache.status();
        }
        build_ns[q] = NowNs() - start;
      }
      const int64_t plan_ns =
          std::min(build_ns[q], static_cast<int64_t>(stats.plan_cache_ms * 1e6));
      const int64_t access_ns = std::min(
          build_ns[q] - plan_ns, static_cast<int64_t>(stats.access_cost_ms * 1e6));
      RecordSpan("optimizer.plan_call", start, plan_ns, span_id, i);
      RecordSpan("optimizer.access_call", start + plan_ns, access_ns, span_id,
                 i);
    });
  }
  run.per_family["workload.build_ms." + f.name].Add((NowNs() - region_start) /
                                                    1e6);
  int64_t total_ns = 0;
  for (const int64_t ns : build_ns) total_ns += ns;
  run.per_family["pinum.build_ms." + f.name].Add(total_ns / 1e6);
  for (size_t q = 0; q < n; ++q) {
    if (!statuses[q].ok()) {
      return Status(statuses[q].code(),
                    queries[q].name + ": " + statuses[q].message());
    }
  }
  std::vector<SealedCache> sealed(n);
  ScopedSpan seal("inum.seal", static_cast<int64_t>(index));
  const IndexId num_index_ids = inst.set.NumIndexIds();
  run.pool->ParallelFor(static_cast<int64_t>(n), [&](int64_t i) {
    sealed[static_cast<size_t>(i)] =
        SealedCache::Seal(caches[static_cast<size_t>(i)], num_index_ids);
  });
  return sealed;
}

/// What every advisor session does once caches exist: the first priced
/// answer (the empty configuration) and the recommendation. Returns the
/// time from `start_ns` to the first answer.
double FirstAnswerAndAdvice(Run& run, const Family& f,
                            const std::vector<SealedCache>& sealed,
                            ThreadPool* pool, size_t index, int64_t start_ns,
                            SearchResult* advice) {
  const WorkloadCostEvaluator evaluator(&sealed, pool);
  double empty_cost = 0;
  {
    ScopedSpan span("inum.first_cost", static_cast<int64_t>(index));
    empty_cost = evaluator.Cost({});
  }
  const double first_ms = (NowNs() - start_ns) / 1e6;
  {
    ScopedSpan span("advisor.search", static_cast<int64_t>(index));
    const int64_t start = NowNs();
    *advice = RunSearchAdvisor(evaluator, f.setup->inst->set,
                               AdvisorSearchOptions());
    run.per_family["advisor.search_ms." + f.name].Add((NowNs() - start) / 1e6);
  }
  run.Check(empty_cost == advice->workload_cost_before,
            f.name + ": first answer differs from the advisor's base cost");
  return first_ms;
}

/// A cold advisor session: SQL text -> parse -> build + seal -> first
/// answer -> recommendation. False when a step failed (already counted).
bool ColdSession(Run& run, const Family& f, size_t index, double* first_ms,
                 SearchResult* advice) {
  const int64_t start = NowNs();
  const WorkloadInstance& inst = *f.setup->inst;
  std::vector<Query> queries;
  if (!ParseAll(run, inst.catalog(), f.sql, f.setup->queries, index,
                &queries)) {
    return false;
  }
  std::vector<SealedCache> sealed;
  ThreadPool* pool = run.pool.get();
  std::unique_ptr<WorkloadCacheBuilder> builder;
  if (run.traced) {
    StatusOr<std::vector<SealedCache>> built =
        TracedBuild(run, f, queries, index);
    if (!built.ok()) {
      run.Check(false, f.name + " build: " + built.status().ToString());
      return false;
    }
    sealed = std::move(*built);
  } else {
    WorkloadCacheOptions options;
    options.num_threads = kThreads;
    builder = std::make_unique<WorkloadCacheBuilder>(
        &inst.catalog(), &inst.set, &inst.stats(), options);
    StatusOr<WorkloadCacheResult> built = builder->BuildAll(queries);
    if (!built.ok()) {
      run.Check(false, f.name + " build: " + built.status().ToString());
      return false;
    }
    sealed = std::move(built->sealed);
    pool = builder->pool();
  }
  *first_ms = FirstAnswerAndAdvice(run, f, sealed, pool, index, start, advice);
  return true;
}

/// A warm advisor session: map the snapshot -> stale check (must be
/// empty) -> first answer -> recommendation, with no optimizer call.
bool WarmSession(Run& run, const Family& f, size_t index, double* first_ms,
                 SearchResult* advice) {
  const int64_t start = NowNs();
  WorkloadCacheBuilder& builder = *f.setup->builder;
  std::vector<std::string> names;
  StatusOr<WorkloadCacheResult> mapped = [&] {
    ScopedSpan span("inum.snapshot_map", static_cast<int64_t>(index));
    return builder.LoadSnapshotMapped(f.snapshot_path, &names);
  }();
  if (!mapped.ok()) {
    run.Check(false, f.name + " map: " + mapped.status().ToString());
    return false;
  }
  std::vector<size_t> stale;
  {
    ScopedSpan span("workload.stale_check", static_cast<int64_t>(index));
    stale = builder.StaleQueries(names, mapped->stamps, f.setup->queries);
  }
  run.Check(stale.empty(), f.name + ": " + std::to_string(stale.size()) +
                               " queries stale in a fresh snapshot");
  *first_ms = FirstAnswerAndAdvice(run, f, mapped->sealed, builder.pool(),
                                   index, start, advice);
  return true;
}

Status SaveFamilySnapshot(Run& run, Family* f, size_t index,
                          const WorkloadCacheResult& result) {
  f->snapshot_path = run.workdir + "/" + f->name + ".snap";
  {
    ScopedSpan span("inum.snapshot_save", static_cast<int64_t>(index));
    PINUM_RETURN_IF_ERROR(f->setup->builder->SaveSnapshot(
        f->snapshot_path, result, f->setup->queries));
  }
  f->snapshot_bytes =
      static_cast<int64_t>(std::filesystem::file_size(f->snapshot_path));
  return Status::OK();
}

/// Everything before the timed phase. Repeated; the median is setup_s.
Status SetUp(Run& run, WorkloadState* state) {
  const std::vector<FamilySpec> specs = FamiliesOf(run.kind, run.args.smoke);
  state->families.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Family& f = state->families[i];
    PINUM_RETURN_IF_ERROR(SetUpFamily(run, specs[i], i, &f));
    switch (run.kind) {
      case Kind::kAdviseCold: {
        // One untimed session warms allocators and page tables and
        // yields the recommendation every timed rep must reproduce.
        double first_ms = 0;
        if (!ColdSession(run, f, i, &first_ms, &f.reference)) {
          return Status::Internal(f.name + ": cold warm-up session failed");
        }
        break;
      }
      case Kind::kAdviseWarm: {
        PINUM_RETURN_IF_ERROR(BuildFamily(&f, i));
        ScopedSpan span("advisor.search", static_cast<int64_t>(i));
        f.reference =
            RunSearchAdvisor(WorkloadCostEvaluator(&f.built.sealed,
                                                   f.setup->builder->pool()),
                             f.setup->inst->set, AdvisorSearchOptions());
        PINUM_RETURN_IF_ERROR(SaveFamilySnapshot(run, &f, i, f.built));
        // A warm process starts from the snapshot alone.
        f.built = WorkloadCacheResult{};
        break;
      }
      case Kind::kWhatifSteady:
      case Kind::kWhatifDrift: {
        PINUM_RETURN_IF_ERROR(BuildFamily(&f, i));
        if (run.kind == Kind::kWhatifSteady) {
          PINUM_RETURN_IF_ERROR(SaveFamilySnapshot(run, &f, i, f.built));
        }
        ServingOptions options;
        options.pool = f.setup->builder->pool();
        state->engine = std::make_unique<ServingEngine>(
            f.setup->builder.get(), &f.setup->queries, std::move(f.built),
            options);
        // The first requests of a fresh engine fault in its caches and
        // wake the pool; keep them out of the timed phase.
        ServingLoad warm(state->engine.get(), &f.configs, run.args.seed,
                         run.traced);
        warm.ClosedRound(run.args.smoke ? 0.05 : 0.2, kClosedWindow);
        warm.Finish();
        run.Absorb(warm.stats().attempted, warm.stats().failed,
                   warm.stats().errors);
        break;
      }
    }
  }
  return Status::OK();
}

void AdviseLoop(Run& run, WorkloadState& state, Outcome* out) {
  const bool cold = run.kind == Kind::kAdviseCold;
  const int64_t end = NowNs() + static_cast<int64_t>(run.seconds * 1e9);
  double busy_s = 0;
  for (int64_t rep = 0; rep < kMinReps || NowNs() < end; ++rep) {
    Tracer::SetPass(rep);
    ScopedSpan root("bench.rep", rep);
    const int64_t rep_start = NowNs();
    double first_ms_total = 0;
    for (size_t i = 0; i < state.families.size(); ++i) {
      const Family& f = state.families[i];
      const int64_t start = NowNs();
      double first_ms = 0;
      SearchResult advice;
      const bool ok = cold ? ColdSession(run, f, i, &first_ms, &advice)
                           : WarmSession(run, f, i, &first_ms, &advice);
      run.per_family["advise_ms." + f.name].Add((NowNs() - start) / 1e6);
      run.per_family["update_ms." + f.name].Add(first_ms);
      first_ms_total += first_ms;
      if (ok) {
        run.Check(SameAdvice(advice, f.reference),
                  f.name + ": rep " + std::to_string(rep) +
                      " recommendation differs from the cold reference");
      }
    }
    const double rep_ms = (NowNs() - rep_start) / 1e6;
    busy_s += rep_ms / 1e3;
    out->op_ms.Add(rep_ms);
    out->update_ms.Add(first_ms_total);
  }
  out->throughput_per_s = static_cast<double>(out->op_ms.count()) / busy_s;
}

/// Checks every sampled answer against the generation it names.
void CheckAnswers(Run& run, const ServingLoadStats& stats,
                  const std::map<uint64_t, std::vector<SealedCache>>& gens,
                  const std::vector<IndexConfig>& configs) {
  for (const AnswerSample& s : stats.checked) {
    const auto it = gens.find(s.generation);
    if (it == gens.end()) {
      run.Check(false, "answer names unknown generation " +
                           std::to_string(s.generation));
      continue;
    }
    const double expected =
        WorkloadCostEvaluator(&it->second).Cost(configs[s.config]);
    run.Check(expected == s.cost,
              "served cost differs from generation " +
                  std::to_string(s.generation) + " on config " +
                  std::to_string(s.config));
  }
}

/// Closed-loop capacity rounds, then the fixed-rate open loop; the
/// rounds take half of the timed phase. Capacity swings between rounds
/// (batching falls into different regimes), so many short rounds give a
/// steadier median than a few long ones.
void DriveServing(Run& run, ServingLoad* load, double rate) {
  const double closed = run.seconds / 2;
  for (int r = 0; r < kClosedRounds; ++r) {
    load->ClosedRound(closed / kClosedRounds, kClosedWindow);
  }
  load->OpenLoop(rate, run.seconds - closed);
}

void SteadyLoop(Run& run, WorkloadState& state, Outcome* out) {
  Family& f = state.families[0];
  ServingEngine& engine = *state.engine;
  ServingLoad load(&engine, &f.configs, run.args.seed + 1, run.traced);
  DriveServing(run, &load, kSteadyRate);
  load.Finish();
  out->serving = std::move(load.stats());
  out->has_serving = true;
  run.Absorb(out->serving.attempted, out->serving.failed, out->serving.errors);
  const auto served = engine.Pin();
  CheckAnswers(run, out->serving, {{served->id, served->sealed()}}, f.configs);
  out->throughput_per_s = out->serving.capacity_qps.Median();

  // update: a serving process restarting from the snapshot — map, stale
  // check, a new engine, and its first answer through the front end.
  WorkloadCacheBuilder& builder = *f.setup->builder;
  const int restarts = run.args.smoke ? 3 : kRestarts;
  for (int i = 0; i < restarts; ++i) {
    Tracer::SetPass(i + 1);
    const int64_t start = NowNs();
    std::vector<std::string> names;
    StatusOr<WorkloadCacheResult> mapped = [&] {
      ScopedSpan span("inum.snapshot_map", i);
      return builder.LoadSnapshotMapped(f.snapshot_path, &names);
    }();
    if (!mapped.ok()) {
      run.Check(false, "restart map: " + mapped.status().ToString());
      continue;
    }
    std::vector<size_t> stale;
    {
      ScopedSpan span("workload.stale_check", i);
      stale = builder.StaleQueries(names, mapped->stamps, f.setup->queries);
    }
    ServingOptions options;
    options.pool = builder.pool();
    ServingEngine restarted(&builder, &f.setup->queries, std::move(*mapped),
                            options);
    const IndexConfig& config = f.configs[static_cast<size_t>(i)];
    auto future = restarted.SubmitCost(config);
    if (!future.ok()) {
      run.Check(false, "restart submit: " + future.status().ToString());
      continue;
    }
    restarted.PumpOnce();
    const CostAnswer answer = future->get();
    out->update_ms.Add((NowNs() - start) / 1e6);
    run.Check(stale.empty() && answer.status.ok() &&
                  answer.cost == engine.Cost(config).cost,
              "restarted engine answers differently");
  }
}

void DriftLoop(Run& run, WorkloadState& state, Outcome* out) {
  Family& f = state.families[0];
  ServingEngine& engine = *state.engine;
  WorkloadInstance& inst = *f.setup->inst;
  ServingLoad load(&engine, &f.configs, run.args.seed + 1, run.traced);
  DriftMaintainer maintainer(&engine, &inst, &f.setup->queries, run.args.seed,
                             run.args.smoke ? 0.1 : kDriftPeriodS, run.traced);
  maintainer.Start();
  DriveServing(run, &load, kDriftRate);
  maintainer.Stop();
  load.Finish();
  out->serving = std::move(load.stats());
  out->has_serving = true;
  out->drift = std::move(maintainer.stats());
  out->has_drift = true;
  run.Absorb(out->serving.attempted, out->serving.failed, out->serving.errors);
  run.Absorb(out->drift.attempted, out->drift.failed, out->drift.errors);
  CheckAnswers(run, out->serving, out->drift.generations, f.configs);
  out->throughput_per_s = out->serving.capacity_qps.Median();
  out->update_ms = out->drift.reseal_ms;

  // The final generation must price every request exactly as a cold
  // build under the drifted world does.
  WorkloadCacheOptions options;
  options.num_threads = kThreads;
  WorkloadCacheBuilder cold(&inst.catalog(), &inst.set, &inst.stats(), options);
  StatusOr<WorkloadCacheResult> rebuilt = cold.BuildAll(f.setup->queries);
  if (!rebuilt.ok()) {
    run.Check(false, "cold rebuild: " + rebuilt.status().ToString());
    return;
  }
  const auto final_gen = engine.Pin();
  const std::vector<double> served =
      WorkloadCostEvaluator(&final_gen->sealed(), cold.pool()).BatchCost(f.configs);
  const std::vector<double> expected =
      WorkloadCostEvaluator(&rebuilt->sealed, cold.pool()).BatchCost(f.configs);
  for (size_t i = 0; i < served.size(); ++i) {
    run.Check(served[i] == expected[i],
              "final generation differs from a cold rebuild on config " +
                  std::to_string(i));
  }
}

// ---- Traced run: the closing tour ----------------------------------------

/// Exact optimizer-call counts: one serial build with a fresh store (a
/// pooled build's split between calls and shared answers depends on
/// scheduling).
void CountCalls(Run& run, const Family& f, Tour* t) {
  const WorkloadInstance& inst = *f.setup->inst;
  SharedAccessCostStore store;
  PinumBuildOptions options = WorkloadCacheOptions{}.pinum;
  options.shared_access = &store;
  for (const Query& q : f.setup->queries) {
    PinumBuildStats stats;
    const StatusOr<InumCache> cache = BuildInumCachePinum(
        q, inst.catalog(), inst.set, inst.stats(), options, &stats);
    run.Check(cache.ok(), f.name + " serial build of " + q.name);
    t->counts.plan_cache_calls += stats.plan_cache_calls;
    t->counts.access_cost_calls += stats.access_cost_calls;
    t->counts.access_calls_saved += stats.access_calls_saved;
    t->counts.plans_exported += stats.plans_exported;
    t->counts.plans_cached += stats.plans_cached;
  }
}

/// The per-question price without a cache: one optimizer call per query
/// under its own what-if configuration.
void DirectOptimizerCalls(Run& run, const Family& f, Tour* t) {
  const WorkloadInstance& inst = *f.setup->inst;
  const std::vector<Query>& queries = f.setup->queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Catalog what_if = inst.set.Subset(f.configs[i]);
    const Optimizer optimizer(&what_if, &inst.stats());
    const int64_t start = NowNs();
    StatusOr<OptimizeResult> result = [&] {
      ScopedSpan span("optimizer.direct_call", static_cast<int64_t>(i));
      return optimizer.Optimize(queries[i], PlannerKnobs{});
    }();
    t->direct_call_ms.Add((NowNs() - start) / 1e6);
    run.Check(result.ok(), f.name + " direct optimizer call on " +
                               queries[i].name);
    if (result.ok()) t->paths_considered += result->paths_considered;
  }
}

/// Keeps the probe's results observable so its loop is not optimized out.
volatile double g_cost_sink = 0;

/// Median SealedCache::Cost time, measured 64 calls at a time.
void CostProbe(const Family& f, const std::vector<SealedCache>& sealed,
               Tour* t) {
  constexpr size_t kChunk = 64;
  double sum = 0;
  for (const SealedCache& cache : sealed) {
    for (size_t c = 0; c + kChunk <= f.configs.size(); c += kChunk) {
      const int64_t start = NowNs();
      for (size_t k = 0; k < kChunk; ++k) sum += cache.Cost(f.configs[c + k]);
      t->cost_ns.Add(static_cast<double>(NowNs() - start) / kChunk);
    }
  }
  g_cost_sink = sum;
}

/// Save, map and decode a snapshot of `sealed`; both readers must price
/// like the caches that were saved.
void SnapshotRoundTrip(Run& run, Family& f, size_t index,
                       const std::vector<SealedCache>& sealed, Tour* t) {
  WorkloadCacheBuilder& builder = *f.setup->builder;
  WorkloadCacheResult result;
  result.sealed = sealed;
  std::map<TableId, uint64_t> fp_cache;
  for (const Query& q : f.setup->queries) {
    result.stamps.push_back(builder.QueryStamp(q, &fp_cache));
  }
  const std::string path = run.workdir + "/tour-" + f.name + ".snap";
  Status saved = [&] {
    ScopedSpan span("inum.snapshot_save", static_cast<int64_t>(index));
    return builder.SaveSnapshot(path, result, f.setup->queries);
  }();
  if (!saved.ok()) {
    run.Check(false, "tour save: " + saved.ToString());
    return;
  }
  t->snapshot_bytes += static_cast<int64_t>(std::filesystem::file_size(path));
  std::vector<std::string> names;
  StatusOr<WorkloadCacheResult> mapped = [&] {
    ScopedSpan span("inum.snapshot_map", static_cast<int64_t>(index));
    return builder.LoadSnapshotMapped(path, &names);
  }();
  StatusOr<WorkloadSnapshot> decoded = [&] {
    ScopedSpan span("inum.snapshot_load", static_cast<int64_t>(index));
    return builder.LoadSnapshot(path);
  }();
  if (!mapped.ok() || !decoded.ok()) {
    run.Check(false, "tour reload: " + mapped.status().ToString() + " / " +
                         decoded.status().ToString());
    return;
  }
  {
    ScopedSpan span("workload.stale_check", static_cast<int64_t>(index));
    run.Check(builder.StaleQueries(names, mapped->stamps, f.setup->queries)
                  .empty(),
              "tour snapshot is stale right after its save");
  }
  const WorkloadCostEvaluator built_eval(&sealed);
  const WorkloadCostEvaluator mapped_eval(&mapped->sealed);
  const WorkloadCostEvaluator decoded_eval(&decoded->sealed);
  for (size_t i = 0; i < 64; ++i) {
    const double expected = built_eval.Cost(f.configs[i]);
    run.Check(mapped_eval.Cost(f.configs[i]) == expected &&
                  decoded_eval.Cost(f.configs[i]) == expected,
              "snapshot reader prices config " + std::to_string(i) +
                  " differently");
  }
}

void TourAdvisor(const Family& f, const std::vector<SealedCache>& sealed,
                 ThreadPool* pool, size_t index, Tour* t) {
  const WorkloadCostEvaluator evaluator(&sealed, pool);
  const SearchOptions options = AdvisorSearchOptions();
  AdvisorResult greedy;
  {
    ScopedSpan span("advisor.greedy", static_cast<int64_t>(index));
    greedy = RunGreedyAdvisor(evaluator, f.setup->inst->set, options.base);
  }
  SearchResult search;
  {
    ScopedSpan span("advisor.search", static_cast<int64_t>(index));
    search = RunSearchAdvisor(evaluator, f.setup->inst->set, options);
  }
  t->greedy_evaluations += greedy.evaluations;
  t->search_evaluations += search.evaluations;
  t->search_full_evaluations += search.full_evaluations;
  t->restarts_completed += search.restarts_completed;
  t->swaps_accepted += search.swaps_accepted;
  t->swaps_pruned += search.swap_candidates_pruned;
  t->log_search_gain +=
      std::log(greedy.workload_cost_after / search.workload_cost_after);
  t->log_cost_ratio +=
      std::log(search.workload_cost_after / search.workload_cost_before);
  ++t->families;
}

/// A short traced serving window with drift on the first family, for
/// workloads whose timed phase does not serve or does not drift.
void ServingProbe(Run& run, WorkloadState& state, Tour* t) {
  Family& f = state.families[0];
  WorkloadCacheBuilder& builder = *f.setup->builder;
  std::unique_ptr<ServingEngine> own;
  ServingEngine* engine = state.engine.get();
  if (engine == nullptr) {
    StatusOr<WorkloadCacheResult> built = builder.BuildAll(f.setup->queries);
    if (!built.ok()) {
      run.Check(false, "probe build: " + built.status().ToString());
      return;
    }
    ServingOptions options;
    options.pool = builder.pool();
    own = std::make_unique<ServingEngine>(&builder, &f.setup->queries,
                                          std::move(*built), options);
    engine = own.get();
  }
  ServingLoad load(engine, &f.configs, run.args.seed + 2, /*traced=*/true);
  DriftMaintainer maintainer(engine, f.setup->inst.get(), &f.setup->queries,
                             run.args.seed + 1000, 0.25, /*traced=*/true);
  maintainer.Start();
  load.OpenLoop(kDriftRate, run.args.smoke ? 0.15 : 1.0);
  maintainer.Stop();
  load.Finish();
  t->serving = std::move(load.stats());
  t->drift = std::move(maintainer.stats());
  t->engine_stats = engine->Stats();
  run.Absorb(t->serving.attempted, t->serving.failed, t->serving.errors);
  run.Absorb(t->drift.attempted, t->drift.failed, t->drift.errors);
  CheckAnswers(run, t->serving, t->drift.generations, f.configs);
}

/// Exercises every layer once on the workload's own families, so each
/// traced run reports every per-layer metric; layers the timed phase
/// exercised are dominated by its samples.
void RunTour(Run& run, WorkloadState& state, Tour* t) {
  Tracer::SetPass(kTourPass);
  for (size_t i = 0; i < state.families.size(); ++i) {
    Family& f = state.families[i];
    t->queries += static_cast<int64_t>(f.setup->queries.size());
    CountCalls(run, f, t);
    StatusOr<std::vector<SealedCache>> sealed =
        TracedBuild(run, f, f.setup->queries, i);
    if (!sealed.ok()) {
      run.Check(false, "tour build: " + sealed.status().ToString());
      continue;
    }
    for (const SealedCache& cache : *sealed) {
      t->plans_pruned += static_cast<int64_t>(cache.NumPlansPruned());
      t->terms += static_cast<int64_t>(cache.NumTerms());
      t->postings += static_cast<int64_t>(cache.NumPostings());
      t->arena_bytes += static_cast<int64_t>(cache.ArenaBytes());
    }
    DirectOptimizerCalls(run, f, t);
    CostProbe(f, *sealed, t);
    SnapshotRoundTrip(run, f, i, *sealed, t);
    TourAdvisor(f, *sealed, run.pool.get(), i, t);
  }
  if (run.kind != Kind::kWhatifDrift) ServingProbe(run, state, t);
}

// ---- Metrics ---------------------------------------------------------------

bool IsTimedRoot(const Span& s) {
  return s.parent == 0 && s.pass >= 0 && s.pass < kTourPass &&
         (std::strcmp(s.name, "bench.rep") == 0 ||
          std::strcmp(s.name, "serving.request") == 0);
}

double AnswerP50Ms(const Run& run, const Outcome& out) {
  if (run.kind == Kind::kAdviseCold || run.kind == Kind::kAdviseWarm) {
    return out.op_ms.Median();
  }
  return out.serving.latency_us.Median() / 1e3;
}

std::map<std::string, double> LayerMetrics(const Run& run, const Outcome& out,
                                           const Tour& t,
                                           const std::vector<Span>& spans) {
  auto pass_median = [&](const char* name) {
    Samples sums;
    for (const double v : PassSumsMs(spans, name)) sums.Add(v);
    return sums.Median();
  };
  const ServingLoadStats& serving = out.has_serving ? out.serving : t.serving;
  const DriftStats& drift = out.has_drift ? out.drift : t.drift;
  // The traffic that ran next to the drift events above.
  const ServingLoadStats& drift_serving = out.has_drift ? out.serving : t.serving;
  const ServingStats& engine = out.has_serving ? out.engine_stats : t.engine_stats;
  const PinumBuildStats& c = t.counts;
  const double families = std::max(1, t.families);
  const SampleSummary latency = serving.latency_us.Summary();

  // How long clients kept getting old-world answers after a drift.
  Samples staleness_ms;
  for (const auto& [generation, applied] : drift.applied_ns) {
    const auto seen = drift_serving.first_seen_ns.find(generation);
    if (seen != drift_serving.first_seen_ns.end()) {
      staleness_ms.Add((seen->second - applied) / 1e6);
    }
  }

  std::map<std::string, double> m;
  m["parser.parse_us"] = run.parse_us.Median();
  m["parser.queries"] = static_cast<double>(t.queries);
  m["optimizer.direct_call_ms"] = t.direct_call_ms.Median();
  m["optimizer.paths_considered"] = static_cast<double>(t.paths_considered);
  m["pinum.build_ms"] = pass_median("pinum.build_query");
  m["pinum.plan_call_ms"] = pass_median("optimizer.plan_call");
  m["pinum.access_call_ms"] = pass_median("optimizer.access_call");
  m["pinum.plan_calls"] = static_cast<double>(c.plan_cache_calls);
  m["pinum.access_calls"] = static_cast<double>(c.access_cost_calls);
  m["pinum.access_calls_saved"] = static_cast<double>(c.access_calls_saved);
  m["pinum.share_hit_ratio"] =
      static_cast<double>(c.access_calls_saved) /
      static_cast<double>(std::max<int64_t>(
          1, c.plan_cache_calls + c.access_cost_calls + c.access_calls_saved));
  m["pinum.plans_exported"] = static_cast<double>(c.plans_exported);
  m["pinum.plans_cached"] = static_cast<double>(c.plans_cached);
  m["inum.seal_ms"] = pass_median("inum.seal");
  m["inum.plans_pruned"] = static_cast<double>(t.plans_pruned);
  m["inum.prune_ratio"] =
      static_cast<double>(t.plans_pruned) /
      static_cast<double>(std::max<size_t>(1, c.plans_cached));
  m["inum.terms"] = static_cast<double>(t.terms);
  m["inum.postings"] = static_cast<double>(t.postings);
  m["inum.arena_bytes"] = static_cast<double>(t.arena_bytes);
  m["inum.cost_ns"] = t.cost_ns.Median();
  m["inum.snapshot_save_ms"] = pass_median("inum.snapshot_save");
  m["inum.snapshot_map_ms"] = pass_median("inum.snapshot_map");
  m["inum.snapshot_load_ms"] = pass_median("inum.snapshot_load");
  m["inum.snapshot_bytes"] = static_cast<double>(t.snapshot_bytes);
  m["workload.gen_ms"] = pass_median("workload.gen");
  m["workload.build_ms"] = pass_median("workload.build");
  m["workload.stale_check_ms"] = pass_median("workload.stale_check");
  m["workload.drift_ms"] = drift.drift_ms.Median();
  m["workload.stale_queries"] = drift.stale_queries.Mean();
  m["workload.result_copy_ms"] = drift.copy_ms.Median();
  m["advisor.search_ms"] = pass_median("advisor.search");
  m["advisor.greedy_ms"] = pass_median("advisor.greedy");
  m["advisor.search_evaluations"] = static_cast<double>(t.search_evaluations);
  m["advisor.search_full_evaluations"] =
      static_cast<double>(t.search_full_evaluations);
  m["advisor.greedy_evaluations"] = static_cast<double>(t.greedy_evaluations);
  m["advisor.restarts_completed"] = static_cast<double>(t.restarts_completed);
  m["advisor.swaps_accepted"] = static_cast<double>(t.swaps_accepted);
  m["advisor.swaps_pruned"] = static_cast<double>(t.swaps_pruned);
  m["advisor.search_gain"] = std::exp(t.log_search_gain / families);
  m["advisor.cost_ratio"] = std::exp(t.log_cost_ratio / families);
  m["serving.submit_us"] = serving.submit_us.Median();
  m["serving.pump_us"] = serving.pump_us.Median();
  m["serving.batch_size"] = serving.batch_size.Mean();
  m["serving.queue_wait_us"] = serving.queue_wait_us.Median();
  m["serving.answered_ratio"] =
      static_cast<double>(engine.answered) /
      static_cast<double>(std::max<uint64_t>(1, engine.submitted));
  m["serving.shed"] = static_cast<double>(engine.shed_unavailable);
  m["serving.deadline_expired"] = static_cast<double>(engine.deadline_expired);
  m["serving.pricing_failures"] = static_cast<double>(engine.pricing_failures);
  m["serving.reseal_ms"] = drift.reseal_ms.Median();
  m["serving.staleness_ms"] = staleness_ms.Median();
  m["serving.generations"] = static_cast<double>(drift.applied_ns.size());
  m["serving.p99_us"] = latency.p99;
  m["serving.p999_us"] = latency.p999;
  m["serving.generator_late_p99_us"] = serving.late_us.Summary().p99;
  m["trace.answer_p50_ms"] = AnswerP50Ms(run, out);
  m["trace.spans"] = static_cast<double>(spans.size());

  const std::map<std::string, double> by_layer =
      WallShareByLayer(spans, IsTimedRoot);
  double total = 0;
  for (const auto& [layer, ns] : by_layer) total += ns;
  double covered = 0;
  for (const char* layer : kSelfShareLayers) {
    const auto it = by_layer.find(layer);
    const double share =
        it == by_layer.end() || total <= 0 ? 0.0 : it->second / total;
    m[std::string(layer) + ".self_share"] = share;
    covered += share;
  }
  m["trace.layer_coverage"] = covered;
  return m;
}

/// Per-layer self time of the timed operations, printed for reading.
void PrintSelfTimes(const std::vector<Span>& spans, size_t ops) {
  const std::map<std::string, double> by_layer =
      WallShareByLayer(spans, IsTimedRoot);
  double total = 0;
  for (const auto& [layer, ns] : by_layer) total += ns;
  std::printf("# self time per timed operation (%zu operations)\n", ops);
  std::printf("#   %-10s %12s %8s\n", "layer", "ms/op", "share");
  for (const auto& [layer, ns] : by_layer) {
    std::printf("#   %-10s %12.4f %8.4f\n", layer.c_str(),
                ns / 1e6 / static_cast<double>(std::max<size_t>(1, ops)),
                total > 0 ? ns / total : 0.0);
  }
}

JsonObject MetricsJson(const std::vector<std::pair<std::string, double>>& values,
                       const std::map<std::string, std::string>& units) {
  JsonObject metrics;
  for (const auto& [name, value] : values) {
    metrics.Object(name, JsonObject().Number("value", value).String(
                             "unit", units.at(name)));
  }
  return metrics;
}

/// Returns freed heap pages to the OS, so what a discarded set-up repeat
/// left in the allocator does not count toward peak_rss_mb.
void ReleaseFreeMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

int RunWorkload(const BenchArgs& args, Kind kind) {
  Run run;
  run.args = args;
  run.kind = kind;
  run.traced = !args.trace_path.empty();
  run.seconds = args.seconds > 0 ? args.seconds : (args.smoke ? 0.3 : 25.0);
  run.workdir = args.workdir + "/" + args.workload + "-" +
                std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::create_directories(run.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_pipeline: cannot create %s: %s\n",
                 run.workdir.c_str(), ec.message().c_str());
    return 1;
  }
  Tracer tracer;
  if (run.traced) {
    Tracer::Install(&tracer);
    run.pool = std::make_unique<ThreadPool>(kThreads);
  }

  WorkloadState state;
  Samples setup_s;
  const int repeats = args.smoke ? 2 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    // The engine points into the families' builders and queries.
    state.engine.reset();
    state.families.clear();
    ReleaseFreeMemory();
    Tracer::SetPass(-1 - k);
    const int64_t start = NowNs();
    const Status status = SetUp(run, &state);
    setup_s.Add((NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_pipeline: set-up failed: %s\n",
                   status.ToString().c_str());
      std::filesystem::remove_all(run.workdir, ec);
      return 1;
    }
  }

  Tracer::SetPass(0);
  Outcome out;
  switch (kind) {
    case Kind::kAdviseCold:
    case Kind::kAdviseWarm:
      AdviseLoop(run, state, &out);
      break;
    case Kind::kWhatifSteady:
      SteadyLoop(run, state, &out);
      break;
    case Kind::kWhatifDrift:
      DriftLoop(run, state, &out);
      break;
  }
  if (state.engine != nullptr) out.engine_stats = state.engine->Stats();
  const double peak_rss_mb = PeakRssMb();

  std::map<std::string, std::string> units;
  for (const MetricDef& d : kEndToEnd) units[d.name] = d.unit;
  for (const MetricDef& d : kPerLayer) units[d.name] = d.unit;

  std::vector<std::pair<std::string, double>> reported;
  std::vector<std::pair<std::string, double>> details;
  if (run.traced) {
    Tour tour;
    RunTour(run, state, &tour);
    const std::vector<Span> spans = tracer.Spans();
    const std::map<std::string, double> layer =
        LayerMetrics(run, out, tour, spans);
    for (const MetricDef& d : kPerLayer) reported.emplace_back(d.name, layer.at(d.name));
    PrintSelfTimes(spans, std::max(out.op_ms.count(),
                                   static_cast<size_t>(std::count_if(
                                       spans.begin(), spans.end(), IsTimedRoot))));
    if (!tracer.WriteChromeJson(args.trace_path)) {
      run.Check(false, "cannot write trace " + args.trace_path);
    }
    Tracer::Install(nullptr);
  } else {
    const std::map<std::string, double> e2e = {
        {"setup_s", setup_s.Median()},
        {"answer_p50_ms", AnswerP50Ms(run, out)},
        {"update_p50_ms", out.update_ms.Median()},
        {"throughput_per_s", out.throughput_per_s},
        {"peak_rss_mb", peak_rss_mb},
    };
    for (const MetricDef& d : kEndToEnd) reported.emplace_back(d.name, e2e.at(d.name));
  }

  // Workload-specific names, kept next to the gated metrics for reading.
  const bool advise = kind == Kind::kAdviseCold || kind == Kind::kAdviseWarm;
  details.emplace_back("setup_s", setup_s.Median());
  if (advise) {
    const SampleSummary reps = out.op_ms.Summary();
    details.emplace_back("advise_s", reps.p50 / 1e3);
    details.emplace_back("advise_q1_s", reps.q1 / 1e3);
    details.emplace_back("advise_q3_s", reps.q3 / 1e3);
    details.emplace_back("advise_reps", static_cast<double>(reps.count));
    if (kind == Kind::kAdviseWarm) {
      details.emplace_back("restart_s", out.update_ms.Median() / 1e3);
    }
    double log_ratio = 0;
    int64_t snapshot_bytes = 0;
    for (const Family& f : state.families) {
      log_ratio += std::log(f.reference.workload_cost_after /
                            f.reference.workload_cost_before);
      snapshot_bytes += f.snapshot_bytes;
    }
    details.emplace_back("recommend_cost_ratio",
                         std::exp(log_ratio / state.families.size()));
    if (kind == Kind::kAdviseWarm) {
      details.emplace_back("snapshot_mb", snapshot_bytes / 1048576.0);
    }
  } else {
    const SampleSummary latency = out.serving.latency_us.Summary();
    details.emplace_back("whatif_p50_us", latency.p50);
    details.emplace_back("whatif_p99_us", latency.p99);
    details.emplace_back("whatif_p999_us", latency.p999);
    details.emplace_back("whatif_samples", static_cast<double>(latency.count));
    details.emplace_back("generator_late_p99_us",
                         out.serving.late_us.Summary().p99);
    const SampleSummary rounds = out.serving.capacity_qps.Summary();
    details.emplace_back("whatif_capacity_qps", rounds.p50);
    details.emplace_back("whatif_capacity_q1_qps", rounds.q1);
    details.emplace_back("whatif_capacity_q3_qps", rounds.q3);
    if (kind == Kind::kWhatifDrift) {
      details.emplace_back("reseal_s", out.drift.reseal_ms.Median() / 1e3);
      details.emplace_back("reseals", static_cast<double>(out.drift.reseal_ms.count()));
    } else {
      details.emplace_back("restart_s", out.update_ms.Median() / 1e3);
    }
  }
  details.emplace_back("error_rate", static_cast<double>(run.failed) /
                                         static_cast<double>(std::max<int64_t>(
                                             1, run.attempted)));
  details.emplace_back("peak_rss_mb", peak_rss_mb);
  for (const auto& [name, samples] : run.per_family) {
    details.emplace_back(name, samples.Median());
  }

  for (const auto& [name, value] : reported) {
    if (!std::isfinite(value)) run.Fail(name + " is not a finite number");
  }
  const bool correct = run.failed == 0;

  std::printf("# bench_pipeline %s seed=%llu seconds=%g%s%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              run.seconds, run.traced ? " traced" : "",
              args.smoke ? " smoke" : "");
  for (const auto& [name, value] : details) {
    std::printf("#   %-34s %.6g\n", name.c_str(), value);
  }
  for (const std::string& e : run.errors) std::printf("# FAIL %s\n", e.c_str());

  if (!args.json_path.empty()) {
    JsonObject details_json;
    for (const auto& [name, value] : details) details_json.Number(name, value);
    std::string errors = "[";
    for (size_t i = 0; i < run.errors.size(); ++i) {
      errors += (i > 0 ? ", " : "") + JsonString(run.errors[i]);
    }
    JsonObject report;
    report.String("workload", args.workload)
        .Integer("seed", static_cast<int64_t>(args.seed))
        .Number("seconds", run.seconds)
        .Bool("smoke", args.smoke)
        .Bool("traced", run.traced)
        .Bool("correct", correct)
        .Integer("attempted", run.attempted)
        .Integer("failed", run.failed)
        .Raw("errors", errors + "]")
        .Object(run.traced ? "per_layer" : "end_to_end",
                MetricsJson(reported, units))
        .Object("details", details_json);
    if (!report.WriteTo(args.json_path)) {
      std::fprintf(stderr, "bench_pipeline: cannot write %s\n",
                   args.json_path.c_str());
    }
  }

  std::filesystem::remove_all(run.workdir, ec);
  JsonObject result;
  result.Bool("correct", correct)
      .Integer("attempted", std::max<int64_t>(1, run.attempted))
      .Integer("failed", run.failed)
      .Object("metrics", MetricsJson(reported, units));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---- --workload all --------------------------------------------------------

/// Runs this binary with `argv`, echoing its output; returns its exit
/// status (-1 if it could not run) and its last output line.
int RunChild(const std::vector<std::string>& argv, std::string* last_line) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    return -1;
  }
  std::FILE* out = fdopen(fds[0], "r");
  char* line = nullptr;
  size_t capacity = 0;
  while (getline(&line, &capacity, out) > 0) {
    std::fputs(line, stdout);
    *last_line = line;
  }
  std::free(line);
  std::fclose(out);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The number after `"key": ` (or after `"key": {"value": ` for a
/// metric) in a result line; NaN when absent.
double ResultField(const std::string& line, const std::string& key,
                   bool metric) {
  const std::string needle =
      JsonString(key) + (metric ? ": {\"value\": " : ": ");
  const size_t at = line.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

int RunAll(const BenchArgs& args) {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  JsonObject metrics;
  std::vector<std::string> summary;
  for (const WorkloadSpec& w : kWorkloads) {
    double untraced_p50 = std::nan("");
    for (const bool traced : {false, true}) {
      if (traced && args.trace_path.empty()) continue;
      std::vector<std::string> argv = {"bench_pipeline", "--workload", w.name,
                                       "--seed", std::to_string(args.seed),
                                       "--workdir", args.workdir};
      if (args.seconds > 0) {
        argv.insert(argv.end(), {"--seconds", std::to_string(args.seconds)});
      }
      if (args.smoke) argv.push_back("--smoke");
      const std::string suffix = std::string(".") + w.name + ".json";
      if (!args.json_path.empty()) {
        argv.insert(argv.end(), {"--json", args.json_path +
                                               (traced ? ".traced" : "") +
                                               suffix});
      }
      if (traced) argv.insert(argv.end(), {"--trace", args.trace_path + suffix});
      std::string last;
      const int code = RunChild(argv, &last);
      const bool ok = code == 0 && last.find("\"correct\": true") != std::string::npos;
      correct = correct && ok;
      const double a = ResultField(last, "attempted", false);
      const double f = ResultField(last, "failed", false);
      attempted += std::isfinite(a) ? static_cast<int64_t>(a) : 0;
      failed += std::isfinite(f) ? static_cast<int64_t>(f) : (ok ? 0 : 1);
      if (!traced) {
        untraced_p50 = ResultField(last, "answer_p50_ms", true);
        metrics.Object(std::string(w.name) + ".answer_p50_ms",
                       JsonObject().Number("value", untraced_p50).String("unit", "ms"));
        summary.push_back(std::string(w.name) + ": exit " + std::to_string(code) +
                          (ok ? ", correct" : ", FAILED"));
      } else {
        const double traced_p50 = ResultField(last, "trace.answer_p50_ms", true);
        const double overhead = traced_p50 / untraced_p50 - 1;
        metrics.Object(std::string(w.name) + ".trace_overhead",
                       JsonObject().Number("value", overhead).String("unit", "ratio"));
        summary.push_back(std::string(w.name) + " traced: exit " +
                          std::to_string(code) + ", answer_p50 " +
                          std::to_string(traced_p50) + " ms vs " +
                          std::to_string(untraced_p50) +
                          " ms untraced (tracing overhead " +
                          std::to_string(overhead * 100) + "%)");
      }
    }
  }
  for (const std::string& s : summary) std::printf("# %s\n", s.c_str());
  JsonObject result;
  result.Bool("correct", correct)
      .Integer("attempted", std::max<int64_t>(1, attempted))
      .Integer("failed", failed)
      .Object("metrics", metrics);
  std::printf("%s\n", result.Dump().c_str());
  return correct ? 0 : 1;
}

constexpr const char* kUsage =
    "usage: bench_pipeline --workload "
    "advise_cold|advise_warm|whatif_steady|whatif_drift|all\n"
    "                      [--seed S] [--seconds T] [--json out.json]\n"
    "                      [--trace trace.json] [--smoke] [--workdir DIR]\n";

}  // namespace
}  // namespace bench
}  // namespace pinum

int main(int argc, char** argv) {
  using namespace pinum::bench;
  BenchArgs args;
  std::string error;
  if (!ParseBenchArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "bench_pipeline: %s\n%s", error.c_str(), kUsage);
    return 2;
  }
  if (args.workload == "all") return RunAll(args);
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) return RunWorkload(args, w.kind);
  }
  std::fprintf(stderr, "bench_pipeline: unknown workload %s\n%s",
               args.workload.c_str(), kUsage);
  return 2;
}
