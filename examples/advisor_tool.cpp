// Index-selection tool (the paper's Section V-E application): generates
// the star-schema workload, builds every query's PINUM cache in parallel
// through the WorkloadCacheBuilder (sharing access-cost calls across
// queries), and greedily picks indexes under a space budget — evaluating
// thousands of configurations with pure arithmetic.
//
// With --save the sealed caches are persisted to a versioned snapshot
// file (docs/SNAPSHOT_FORMAT.md); with --load the build step is skipped
// entirely — no optimizer call is made — and the advisor serves from the
// restored caches, with bit-identical suggestions. --load-mmap goes one
// step further: the file is not even read — it is mapped read-only and
// the advisor serves straight from the page cache (the format's arena
// records are position-independent), printing the map-vs-read wall time
// side by side. With --reseal K the
// tool additionally simulates statistics drift staling ~K queries
// (seeded, src/workload/drift.h) and repairs the serving state through
// WorkloadCacheBuilder::RebuildQueries — k queries' worth of optimizer
// calls instead of a whole-workload rebuild — before advising; combined
// with --save, the resealed caches are saved again and the re-save time
// printed.
//
// With --search the greedy pass is followed by the anytime randomized
// search (src/advisor/search_advisor.h): seeded parallel restarts plus
// swap/backtracking moves, printed as a side-by-side quality comparison
// — the configurations the single greedy sweep cannot see. --seed and
// --restarts shape it; the result is reproducible bit-for-bit for a
// fixed (workload, options) pair.
//
//   $ ./advisor_tool [budget_mb] [--save FILE | --load FILE |
//                    --load-mmap FILE] [--reseal K]
//                    [--search] [--seed N] [--restarts N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "advisor/search_advisor.h"
#include "common/stopwatch.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"
#include "workload/star_schema.h"

using namespace pinum;

namespace {

/// The restart path behind --load and --load-mmap: restores the snapshot
/// at `path` (mapped or read), checks it holds this workload's
/// caches, and reseals exactly the stale queries. Prints what
/// it did and returns the serving caches.
StatusOr<std::vector<SealedCache>> Restore(WorkloadCacheBuilder& builder,
                                           const std::vector<Query>& queries,
                                           const std::string& path,
                                           bool mapped) {
  Stopwatch restore_timer;
  std::vector<std::string> names;
  WorkloadCacheResult restored;
  if (mapped) {
    // Zero-copy restart: validate + mmap once, then serve straight from
    // the mapped arena images. Each cache's arena co-owns the mapping,
    // so the caches stay valid after every handle here is gone.
    PINUM_ASSIGN_OR_RETURN(restored, builder.LoadSnapshotMapped(path, &names));
  } else {
    PINUM_ASSIGN_OR_RETURN(WorkloadSnapshot snapshot,
                           builder.LoadSnapshot(path));
    restored =
        WorkloadCacheBuilder::ResultFromSnapshot(std::move(snapshot), &names);
  }
  const double restore_ms = restore_timer.ElapsedMillis();
  // The epoch binds catalog/candidates/stats but deliberately not the
  // query set (any workload over the same universe may snapshot), so
  // check here that these caches really are this workload's — serving
  // another query set's caches would be silently wrong suggestions.
  const bool same_workload =
      std::equal(names.begin(), names.end(), queries.begin(), queries.end(),
                 [](const std::string& name, const Query& q) {
                   return name == q.name;
                 });
  if (!same_workload) {
    return Status::FailedPrecondition(
        "snapshot " + path + " holds " + std::to_string(names.size()) +
        " caches for a different query set; this workload has " +
        std::to_string(queries.size()) + " queries — rebuild with --save");
  }
  // Per-query epoch stamps: a snapshot that predates stats drift or
  // append-only universe growth still restores — repair exactly the
  // stale queries (mapped ones get fresh heap seals, the rest keep
  // serving from the snapshot) instead of rebuilding the workload.
  // (This tool regenerates the same world every run, so the set is
  // normally empty; it is the production restart path nonetheless.)
  const std::vector<size_t> stale =
      builder.StaleQueries(names, restored.stamps, queries);
  if (!stale.empty()) {
    std::vector<std::string> stale_names;
    for (size_t i : stale) stale_names.push_back(queries[i].name);
    WorkloadCacheStats totals;
    PINUM_ASSIGN_OR_RETURN(
        restored,
        builder.RebuildQueries(stale_names, queries, restored, &totals));
    std::printf("snapshot was stale for %zu of %zu queries; resealed "
                "them with %lld optimizer calls\n",
                stale.size(), queries.size(),
                static_cast<long long>(totals.plan_cache_calls +
                                       totals.access_cost_calls));
  }
  if (!mapped) {
    std::printf("snapshot restored: %zu sealed caches from %s in %.1f ms "
                "(%zu stale, %s)\n",
                restored.sealed.size(), path.c_str(),
                restore_timer.ElapsedMillis(), stale.size(),
                stale.empty() ? "0 optimizer calls" : "resealed above");
    return std::move(restored.sealed);
  }
  // The headline number: map-and-validate vs read-and-validate on the
  // same file (both bind the same bytes in place and serve bit-identical
  // costs; only the file read differs).
  Stopwatch read_timer;
  const bool read = builder.LoadSnapshot(path).ok();
  const double read_ms = read_timer.ElapsedMillis();
  size_t borrowed_bytes = 0;
  for (const SealedCache& c : restored.sealed) borrowed_bytes += c.ArenaBytes();
  std::printf("snapshot mapped: %zu sealed caches (%.2f MB of arenas "
              "borrowed from the page cache) in %.2f ms; %zu stale "
              "resealed\n",
              restored.sealed.size(), borrowed_bytes / 1048576.0,
              restore_ms, stale.size());
  if (read) {
    std::printf("read-load of the same file: %.2f ms -> mmap is "
                "%.1fx faster to first answer\n",
                read_ms, restore_ms > 0 ? read_ms / restore_ms : 0.0);
  }
  return std::move(restored.sealed);
}

}  // namespace

int main(int argc, char** argv) {
  AdvisorOptions aopts;
  SearchOptions sopts;
  bool run_search = false;
  std::string save_path;
  std::string load_path;
  std::string mmap_path;
  long long reseal_target = -1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--save") == 0 ||
        std::strcmp(argv[a], "--load") == 0 ||
        std::strcmp(argv[a], "--load-mmap") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "%s requires a file path\n", argv[a]);
        return 2;
      }
      std::string& slot = std::strcmp(argv[a], "--save") == 0 ? save_path
                          : std::strcmp(argv[a], "--load") == 0
                              ? load_path
                              : mmap_path;
      slot = argv[++a];
    } else if (std::strcmp(argv[a], "--reseal") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--reseal requires a stale-query target\n");
        return 2;
      }
      reseal_target = std::atoll(argv[++a]);
    } else if (std::strcmp(argv[a], "--search") == 0) {
      run_search = true;
    } else if (std::strcmp(argv[a], "--seed") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--seed requires a value\n");
        return 2;
      }
      sopts.seed = static_cast<uint64_t>(std::atoll(argv[++a]));
    } else if (std::strcmp(argv[a], "--restarts") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--restarts requires a value\n");
        return 2;
      }
      sopts.max_restarts = std::atoi(argv[++a]);
    } else if (std::strncmp(argv[a], "--", 2) == 0) {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: advisor_tool [budget_mb] "
                   "[--save FILE | --load FILE | --load-mmap FILE] "
                   "[--reseal K] [--search] [--seed N] [--restarts N]\n",
                   argv[a]);
      return 2;
    } else {
      aopts.budget_bytes = std::atoll(argv[a]) * 1024 * 1024;
    }
  }
  if (static_cast<int>(!save_path.empty()) +
          static_cast<int>(!load_path.empty()) +
          static_cast<int>(!mmap_path.empty()) >
      1) {
    std::fprintf(stderr,
                 "--save, --load, and --load-mmap are mutually exclusive\n");
    return 2;
  }
  if (reseal_target >= 0 && (!load_path.empty() || !mmap_path.empty())) {
    std::fprintf(stderr, "--reseal needs a fresh build (not --load)\n");
    return 2;
  }

  StarSchemaSpec spec;
  auto workload = StarSchemaWorkload::Create(spec);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  Database& db = workload->db();
  std::printf("star schema: %zu tables, %zu queries\n",
              workload->tables().size(), workload->queries().size());

  CandidateOptions copt;
  auto candidates = GenerateCandidates(workload->queries(), db.catalog(),
                                       db.stats(), copt);
  auto set = MakeCandidateSet(db.catalog(), candidates);
  std::printf("candidate indexes: %zu\n", set->candidate_ids.size());

  WorkloadCacheBuilder builder(&db.catalog(), &*set, &db.stats());
  // The serving-ready caches come from one of two places: a fresh
  // parallel PINUM build, or a snapshot written by an earlier --save —
  // the restart path, milliseconds instead of optimizer calls.
  std::vector<SealedCache> serving;
  if (!load_path.empty() || !mmap_path.empty()) {
    auto restored = Restore(builder, workload->queries(),
                            mmap_path.empty() ? load_path : mmap_path,
                            !mmap_path.empty());
    if (!restored.ok()) {
      std::fprintf(stderr, "%s\n", restored.status().ToString().c_str());
      return 1;
    }
    serving = std::move(*restored);
  } else {
    // One PINUM cache per distinct statement — a handful of optimizer
    // calls each instead of the hundreds-to-thousands classic INUM would
    // need — built concurrently, with repeated statements sharing one
    // build and access-cost calls shared across queries.
    auto built = builder.BuildAll(workload->queries());
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < workload->queries().size(); ++i) {
      const QueryBuildStats& qs = built->per_query[i];
      const SealedCache& sealed = built->sealed[i];
      std::printf("  %s: %zu cached plans (%lld optimizer calls, "
                  "%lld shared)\n",
                  workload->queries()[i].name.c_str(),
                  sealed.NumPlans() + sealed.NumPlansPruned(),
                  static_cast<long long>(qs.plan_cache_calls +
                                         qs.access_cost_calls),
                  static_cast<long long>(qs.access_calls_saved));
    }
    std::printf("total optimizer calls: %lld (%lld saved by sharing, "
                "%.1f ms wall)\n",
                static_cast<long long>(built->totals.plan_cache_calls +
                                       built->totals.access_cost_calls),
                static_cast<long long>(built->totals.access_calls_saved),
                built->totals.wall_ms);
    std::printf("sealed for serving: %zu of %zu plans pruned as dominated, "
                "%zu shared terms, %zu postings (%.1f ms)\n",
                built->totals.plans_pruned, built->totals.plans_cached,
                built->totals.terms, built->totals.postings,
                built->totals.seal_ms);
    const int64_t full_build_calls =
        built->totals.plan_cache_calls + built->totals.access_cost_calls;
    if (!save_path.empty()) {
      Stopwatch save_timer;
      Status st =
          builder.SaveSnapshot(save_path, *built, workload->queries());
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("snapshot saved to %s in %.1f ms "
                  "(reload with --load to skip the build)\n",
                  save_path.c_str(), save_timer.ElapsedMillis());
    }

    // Incremental reseal demo: drift the statistics under the serving
    // layer (seeded) and repair only the stale queries —
    // the maintenance path a long-lived what-if service runs on every
    // re-ANALYZE instead of a full rebuild.
    if (reseal_target >= 0) {
      auto drift =
          ApplyDrift(workload->queries(), &*set, &db.stats(),
                     static_cast<size_t>(reseal_target), /*seed=*/1);
      if (!drift.ok()) {
        std::fprintf(stderr, "%s\n", drift.status().ToString().c_str());
        return 1;
      }
      std::printf("\nsimulated stats drift on %zu tables -> %zu of %zu "
                  "queries stale\n",
                  drift->drifted_tables.size(), drift->stale_queries.size(),
                  workload->queries().size());
      WorkloadCacheStats reseal_totals;
      Stopwatch reseal_timer;
      auto resealed = builder.RebuildQueries(
          drift->stale_queries, workload->queries(), *built, &reseal_totals);
      if (!resealed.ok()) {
        std::fprintf(stderr, "%s\n", resealed.status().ToString().c_str());
        return 1;
      }
      *built = std::move(*resealed);
      std::printf("incremental reseal: %lld optimizer calls, %.1f ms "
                  "(a full rebuild would re-pay %lld calls)\n",
                  static_cast<long long>(reseal_totals.plan_cache_calls +
                                         reseal_totals.access_cost_calls),
                  reseal_timer.ElapsedMillis(),
                  static_cast<long long>(full_build_calls));
      if (!save_path.empty()) {
        Stopwatch resave_timer;
        Status resave = builder.SaveSnapshot(save_path, *built,
                                             workload->queries());
        if (!resave.ok()) {
          std::fprintf(stderr, "%s\n", resave.ToString().c_str());
          return 1;
        }
        std::printf("resealed snapshot saved to %s in %.1f ms\n",
                    save_path.c_str(), resave_timer.ElapsedMillis());
      }
    }
    serving = std::move(built->sealed);
  }

  // Delta pricing from the sealed serving form: every greedy iteration
  // pins chosen-so-far into per-query contexts (sharded over the
  // builder's pool) and sweeps all surviving candidates through their
  // posting overlays.
  const WorkloadCostEvaluator evaluator(&serving, builder.pool());
  const AdvisorResult result = RunGreedyAdvisor(evaluator, *set, aopts);

  // The counter split (src/advisor/greedy_advisor.h): `evaluations`
  // counts configurations priced — the optimizer calls a classic what-if
  // advisor would have made — while `full_evaluations` counts how few of
  // those needed a full-path resolution on the delta path.
  std::printf("\nbudget %.0f MB -> %zu indexes chosen (%.0f MB), "
              "%lld what-if configurations priced from the cache "
              "(%lld full-path, rest delta)\n",
              aopts.budget_bytes / 1048576.0, result.chosen.size(),
              result.total_size_bytes / 1048576.0,
              static_cast<long long>(result.evaluations),
              static_cast<long long>(result.full_evaluations));
  std::printf("estimated workload cost: %.0f -> %.0f (%.1f%% better)\n",
              result.workload_cost_before, result.workload_cost_after,
              100 * (1 - result.workload_cost_after /
                             result.workload_cost_before));
  std::printf("\nsuggested indexes (CREATE INDEX order):\n");
  for (const AdvisorStep& step : result.steps) {
    const IndexDef* def = set->universe.FindIndex(step.chosen);
    const TableDef* table = db.catalog().FindTable(def->table);
    std::string cols;
    for (ColumnIdx c : def->key_columns) {
      if (!cols.empty()) cols += ", ";
      cols += table->columns[static_cast<size_t>(c)].name;
    }
    std::printf("  CREATE INDEX ON %s (%s);   -- benefit %.0f, %.1f MB\n",
                table->name.c_str(), cols.c_str(), step.benefit,
                step.size_bytes / 1048576.0);
  }

  if (run_search) {
    sopts.base = aopts;
    const SearchResult search = RunSearchAdvisor(evaluator, *set, sopts);
    std::printf("\nanytime search (seed %llu, %d restarts + swap moves, "
                "%.1f ms): %lld configurations priced, %lld sweeps "
                "pruned\n",
                static_cast<unsigned long long>(sopts.seed),
                sopts.max_restarts, search.wall_ms,
                static_cast<long long>(search.evaluations),
                static_cast<long long>(search.swap_candidates_pruned));
    std::printf("  greedy cost %.0f vs search cost %.0f (%lld restarts, "
                "%lld swaps accepted)\n",
                search.greedy_cost_after, search.workload_cost_after,
                static_cast<long long>(search.restarts_completed),
                static_cast<long long>(search.swaps_accepted));
    if (search.workload_cost_after < search.greedy_cost_after) {
      std::printf("  search beat greedy by %.2f%%; its configuration "
                  "(%zu indexes, %.0f MB):\n",
                  100 * (1 - search.workload_cost_after /
                                 search.greedy_cost_after),
                  search.chosen.size(),
                  search.total_size_bytes / 1048576.0);
      for (IndexId id : search.chosen) {
        const IndexDef* def = set->universe.FindIndex(id);
        const TableDef* table = db.catalog().FindTable(def->table);
        std::string cols;
        for (ColumnIdx c : def->key_columns) {
          if (!cols.empty()) cols += ", ";
          cols += table->columns[static_cast<size_t>(c)].name;
        }
        std::printf("  CREATE INDEX ON %s (%s);   -- %.1f MB\n",
                    table->name.c_str(), cols.c_str(),
                    IndexSizeBytes(*def) / 1048576.0);
      }
    } else {
      std::printf("  greedy was already optimal within the search "
                  "horizon; suggestions above stand\n");
    }
  }
  return 0;
}
