// Workload-scale cache construction: builds one PINUM cache per
// distinct workload statement concurrently, hands repeated statements
// the same sealed cache, and shares access-cost optimizer calls among
// the queries of one build batch whose table footprints match. This
// scales the paper's per-query procedure ("caching all plans with just
// one optimizer call") to whole workloads — the input the index
// advisor actually consumes.
#ifndef PINUM_WORKLOAD_CACHE_MANAGER_H_
#define PINUM_WORKLOAD_CACHE_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "inum/access_cost_store.h"
#include "inum/cache.h"
#include "inum/sealed_cache.h"
#include "inum/snapshot.h"
#include "pinum/pinum_builder.h"
#include "query/query.h"
#include "whatif/candidate_set.h"

namespace pinum {

/// Workload-build configuration. Every query's cache is built by PINUM's
/// hooked calls (BuildInumCachePinum); the paper's classic INUM baseline
/// is BuildInumCacheClassic, called per query.
struct WorkloadCacheOptions {
  /// 0 = one thread per hardware core; 1 = strictly serial (the
  /// determinism baseline).
  int num_threads = 0;
  /// Per-query knobs. The shared_access field is managed by the builder
  /// and ignored if set.
  PinumBuildOptions pinum;
};

/// Per-query optimizer-call accounting (the subset of PinumBuildStats
/// the workload totals sum). Plan counts live on the sealed cache itself
/// (NumPlans + NumPlansPruned).
struct QueryBuildStats {
  int64_t plan_cache_calls = 0;
  int64_t access_cost_calls = 0;
  int64_t access_calls_saved = 0;
  /// 1 when the query repeats a statement built earlier in the same batch
  /// and took that build's sealed cache, with zero optimizer calls.
  int64_t shared_builds = 0;
};

/// Whole-workload accounting.
struct WorkloadCacheStats {
  int64_t plan_cache_calls = 0;
  int64_t access_cost_calls = 0;
  /// Access-cost optimizer calls answered by another statement of the
  /// same batch with equal table footprints. Under concurrency two
  /// statements can race to compute the same entry, so the split between
  /// calls and saved calls can depend on scheduling (see
  /// SharedAccessCostStore); the cache contents never do.
  int64_t access_calls_saved = 0;
  /// Queries that repeated an earlier statement of their batch and
  /// shared its build instead of paying their own.
  int64_t shared_builds = 0;
  /// Plans the builds harvested, summed from the sealed caches
  /// (NumPlans + NumPlansPruned), so restored results report it too.
  size_t plans_cached = 0;
  /// Plans the seal step discarded as dominated (can never win under any
  /// configuration); plans served = plans_cached - plans_pruned.
  size_t plans_pruned = 0;
  /// Distinct shared slot-requirement terms across all sealed caches.
  size_t terms = 0;
  /// Posting-list entries across all sealed caches: (index, term) pairs
  /// where the index can lower the term below its base cost. The delta
  /// costing path's per-candidate work is proportional to postings per
  /// index, not to terms — postings / (terms x universe ids) is the
  /// sparsity the advisor's CostWithExtra sweep exploits.
  size_t postings = 0;
  double wall_ms = 0;
  /// Per-build seal times, summed. Each statement is sealed inside its
  /// own pooled build task, so with several threads the sum can exceed
  /// wall_ms.
  double seal_ms = 0;
};

/// The built caches in their serving form, parallel to the input query
/// vector: sealed[i] answers every cost question for queries[i]. Queries
/// that repeat a statement hold copies of one SealedCache (one arena,
/// one seal id). The build-time InumCache each was sealed from does not
/// outlive its build task (BuildQueryCache rebuilds one on request).
/// Copying a result shares every cache's arena, so a copy costs refcount
/// bumps, not cache bytes, and a cache whose arena borrows a snapshot
/// file mapping (LoadSnapshotMapped) keeps those pages mapped through
/// every copy.
struct WorkloadCacheResult {
  std::vector<SealedCache> sealed;
  std::vector<QueryBuildStats> per_query;
  /// Per-query epoch stamps captured when each cache was (re)built —
  /// QueryStamp under the world that build actually consumed. Snapshots
  /// persist these, NOT stamps recomputed at save time: if the world
  /// drifts between a build and a save, the stored stamps must still
  /// describe the caches' world so StaleQueries reports the drift
  /// instead of masking it.
  std::vector<uint64_t> stamps;
  WorkloadCacheStats totals;
};

/// Builds per-query plan caches for an entire workload. One instance is
/// bound to a (base catalog, candidate universe, statistics) by pointer
/// and reads that world as it is at each call, so a drift between calls
/// (ApplyDrift) needs no notice. Nothing outlives a call but the thread
/// pool: each BuildAll or RebuildQueries batch shares access-cost
/// answers through its own SharedAccessCostStore, which dies with the
/// batch.
class WorkloadCacheBuilder {
 public:
  WorkloadCacheBuilder(const Catalog* base_catalog,
                       const CandidateSet* candidates,
                       const StatsCatalog* stats,
                       WorkloadCacheOptions options = WorkloadCacheOptions{});

  /// Builds every query's cache (concurrently when num_threads != 1) and
  /// seals it for serving inside the same pool task. result.sealed[i]
  /// corresponds to queries[i]; the first per-query build error aborts
  /// the batch. Each distinct statement is built once and its repeats
  /// get copies of its sealed cache, with zero optimizer calls and
  /// shared_builds = 1 in their per_query rows (the paper workload
  /// replicated 3x pays 65 plan calls, not 195).
  StatusOr<WorkloadCacheResult> BuildAll(const std::vector<Query>& queries);

  /// The build-time form of one query's cache, on request: the
  /// per-statement body BuildAll and RebuildQueries run before sealing,
  /// with the same planner knobs and no access-cost store — the
  /// unshared per-query baseline. For callers that need the harvested
  /// plans themselves (the golden corpus's per-plan lines, including
  /// plans the seal prunes, and test oracles) or one query's own
  /// optimizer calls. Fires the workload.build_query failpoint;
  /// `query_stats`, when given, receives the optimizer-call accounting.
  StatusOr<InumCache> BuildQueryCache(const Query& query,
                                      QueryBuildStats* query_stats = nullptr);

  /// Incremental reseal: re-runs the optimizer and reseals *only* the
  /// named queries — the ones a drift staled (stats re-ANALYZEd,
  /// candidates appended; see src/workload/drift.h and StaleQueries) —
  /// and returns a copy of `base` with those queries' slots replaced.
  /// `base` is never written, so it may be a published serving
  /// generation that readers keep serving from throughout; the copy
  /// shares every untouched cache's arena, so it costs refcount bumps,
  /// not cache bytes. `queries` and `base` must be BuildAll's inputs
  /// and output (parallel vectors); every name must resolve to a query.
  /// Costs k stale queries' worth of optimizer calls instead of a
  /// whole-workload rebuild, and fewer when stale queries repeat a
  /// statement: like BuildAll, it builds each distinct statement among
  /// the named queries once, sharing access-cost answers only within
  /// this batch (the caches of queries not named are never reused for
  /// them):
  ///
  ///  - rebuilt queries reseal against the *current* universe
  ///    (candidates appended since BuildAll become priceable), while
  ///    untouched queries keep their sealed form — which prices
  ///    beyond-universe ids at base cost, exactly what a cold rebuild
  ///    would compute for them, so mixed-generation serving stays
  ///    bit-identical to a cold BuildAll under the drifted world (the
  ///    differential suite in tests/incremental_reseal_test.cc pins
  ///    this across evaluator and advisor paths);
  ///  - the returned totals are recomputed from the updated per-query
  ///    rows and sealed caches (wall_ms/seal_ms become this rebuild's
  ///    times); the rebuild's own accounting lands in `rebuild_totals`
  ///    when given.
  StatusOr<WorkloadCacheResult> RebuildQueries(
      const std::vector<std::string>& names,
      const std::vector<Query>& queries, const WorkloadCacheResult& base,
      WorkloadCacheStats* rebuild_totals = nullptr);

  /// The per-query epoch stamp this builder seals `query` under *right
  /// now*: ComputeQueryStamp over the bound (candidates, stats) folded
  /// with every PlannerKnobs field of options.pinum (join switches, cost
  /// constants, hooks) and its NLJ settings — every input of the build
  /// this builder can vary, so a drifted stamp means "reseal me". The
  /// optimizer's own code is not an input: a binary whose cost model
  /// changed must not serve an older binary's snapshot.
  /// BuildAll/RebuildQueries capture these into
  /// WorkloadCacheResult::stamps at build time; `table_fp_cache`, when
  /// given, memoizes per-table fingerprints across calls (star workloads
  /// touch the fact table from every query).
  uint64_t QueryStamp(const Query& query,
                      std::map<TableId, uint64_t>* table_fp_cache =
                          nullptr) const;

  /// Indices into `queries` whose stored entry is stale: the name at
  /// that position differs, or the stored stamp differs from the live
  /// QueryStamp. `names` and `stamps` are what a restored snapshot
  /// carries (WorkloadSnapshot::query_names and query_stamps, or
  /// LoadSnapshotMapped's names and result stamps). When either is not
  /// exactly queries.size() long, the entries are not this workload's
  /// and every query is stale: the restored result is not parallel to
  /// `queries`, so RebuildQueries rejects it with kInvalidArgument and
  /// the caller rebuilds with BuildAll. Otherwise pass the result's
  /// names straight to RebuildQueries after turning the snapshot into a
  /// result (ResultFromSnapshot); an empty return means the snapshot
  /// serves the whole workload as-is.
  std::vector<size_t> StaleQueries(const std::vector<std::string>& names,
                                   const std::vector<uint64_t>& stamps,
                                   const std::vector<Query>& queries) const;

  /// Persists a build's sealed caches to `path` as one versioned
  /// snapshot file (format: docs/SNAPSHOT_FORMAT.md), carrying the
  /// universe epoch of this builder's bound candidates plus the stamps
  /// `result` captured at build time. Every record is written from
  /// `result.sealed`, whatever `path` held before, via tmp+rename.
  /// `result.sealed` must be parallel to `queries` — pass BuildAll's
  /// inputs and output unchanged.
  Status SaveSnapshot(const std::string& path,
                      const WorkloadCacheResult& result,
                      const std::vector<Query>& queries) const;

  /// Restores a snapshot into serving-ready sealed caches without any
  /// optimizer call — the restart path. The snapshot must be
  /// *compatible* with this builder's bound candidates: same base
  /// schema, and its universe equal to — or an append-only prefix of —
  /// the live one; any other mutation is rejected with
  /// kFailedPrecondition (see inum/snapshot.h for the full failure-code
  /// taxonomy). Statistics drift does NOT reject the load: diff the
  /// returned stamps with StaleQueries and hand the stale names to
  /// RebuildQueries — that pair is the incremental restart path. The
  /// restored caches answer every cost question bit-identically to the
  /// caches that were saved. The epoch deliberately does not bind the
  /// query set (any workload over the same universe may snapshot);
  /// callers serving a specific workload should verify the returned
  /// query_names match it, as advisor_tool --load does.
  StatusOr<WorkloadSnapshot> LoadSnapshot(const std::string& path) const;

  /// The mapped restart path: MapSnapshot, then ResultFromSnapshot.
  /// The sealed caches' arenas point straight into a read-only mapping
  /// of the file, so not even the file read is paid. Same compatibility
  /// rule, failure taxonomy and cost bits as LoadSnapshot. Every cache's
  /// arena pins the mapped pages, so the result, and serving
  /// generations copied from it, outlive the file's directory entry
  /// (saves replace via rename).
  StatusOr<WorkloadCacheResult> LoadSnapshotMapped(
      const std::string& path,
      std::vector<std::string>* query_names = nullptr) const;

  /// A restored snapshot (either reader) as a RebuildQueries-ready
  /// result: the stored sealed caches and stamps, zero optimizer calls
  /// per query, and totals summed from the caches, which equal the
  /// saving build's plan, pruning, term and posting counts.
  /// `query_names`, when given, receives the stored names: diff them
  /// with StaleQueries(names, result.stamps, queries) to find what to
  /// reseal, and check they match the workload being served.
  static WorkloadCacheResult ResultFromSnapshot(
      WorkloadSnapshot snapshot,
      std::vector<std::string>* query_names = nullptr);

  /// The builder's pool — reusable for batched configuration pricing.
  ThreadPool* pool() { return &pool_; }

 private:
  /// Builds and seals queries[targets[j]] into (*sealed)[j] and
  /// (*stats)[j]: the shared body of BuildAll and RebuildQueries.
  /// `stamps[j]` is QueryStamp(queries[targets[j]]). Targets are grouped
  /// by statement (bucketed by stamp, confirmed by Query::SameStatement,
  /// so a stamp collision never shares a cache) and each group's first
  /// target is built in one pool task; the others copy its sealed cache
  /// after the pool finishes. The builds share one SharedAccessCostStore
  /// that lives for this call only, so every answer it serves was
  /// computed under the world this batch reads. Returns the first
  /// failure (annotated with the query name) once every task has
  /// finished; `seal_ms` receives the summed per-build seal time.
  Status BuildAndSeal(const std::vector<Query>& queries,
                      const std::vector<size_t>& targets,
                      const std::vector<uint64_t>& stamps,
                      std::vector<SealedCache>* sealed,
                      std::vector<QueryBuildStats>* stats, double* seal_ms);

  /// One query's build, reading and filling `store` when it is not null:
  /// BuildQueryCache passes none, BuildAndSeal its batch store.
  StatusOr<InumCache> BuildOne(const Query& query,
                               SharedAccessCostStore* store,
                               QueryBuildStats* query_stats);

  /// Optimizer calls summed from `stats` plus plan, pruning, term and
  /// posting counts summed from `sealed`; wall/seal times are left zero
  /// for the caller.
  static WorkloadCacheStats SumCounts(const std::vector<QueryBuildStats>& stats,
                                      const std::vector<SealedCache>& sealed);

  const Catalog* base_catalog_;
  const CandidateSet* candidates_;
  const StatsCatalog* stats_;
  WorkloadCacheOptions options_;
  ThreadPool pool_;
};

}  // namespace pinum

#endif  // PINUM_WORKLOAD_CACHE_MANAGER_H_
