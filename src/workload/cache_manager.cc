#include "workload/cache_manager.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/failpoint.h"
#include "common/stopwatch.h"

namespace pinum {

WorkloadCacheBuilder::WorkloadCacheBuilder(const Catalog* base_catalog,
                                           const CandidateSet* candidates,
                                           const StatsCatalog* stats,
                                           WorkloadCacheOptions options)
    : base_catalog_(base_catalog),
      candidates_(candidates),
      stats_(stats),
      options_(std::move(options)),
      pool_(options_.num_threads) {}

StatusOr<InumCache> WorkloadCacheBuilder::BuildQueryCache(
    const Query& query, QueryBuildStats* query_stats) {
  return BuildOne(query, nullptr, query_stats);
}

StatusOr<InumCache> WorkloadCacheBuilder::BuildOne(
    const Query& query, SharedAccessCostStore* store,
    QueryBuildStats* query_stats) {
  // One hit per statement (re)build — the unit a reseal retries. Fired
  // from whichever pool thread claims the statement; BuildAndSeal
  // annotates the returned Status with the query name.
  PINUM_RETURN_IF_ERROR(FailPoint::Check("workload.build_query"));
  PinumBuildOptions opts = options_.pinum;
  opts.shared_access = store;
  PinumBuildStats stats;
  StatusOr<InumCache> cache = BuildInumCachePinum(
      query, *base_catalog_, *candidates_, *stats_, opts, &stats);
  if (query_stats != nullptr) {
    *query_stats = {stats.plan_cache_calls, stats.access_cost_calls,
                    stats.access_calls_saved};
  }
  return cache;
}

Status WorkloadCacheBuilder::BuildAndSeal(const std::vector<Query>& queries,
                                          const std::vector<size_t>& targets,
                                          const std::vector<uint64_t>& stamps,
                                          std::vector<SealedCache>* sealed,
                                          std::vector<QueryBuildStats>* stats,
                                          double* seal_ms) {
  const size_t k = targets.size();
  sealed->resize(k);
  stats->resize(k);
  std::vector<Status> statuses(k);
  std::vector<double> seal_times(k, 0);
  // twin[j]: the target whose build j takes (j itself when j is built).
  // Equal statements have equal stamps, so a stamp bucket holds every
  // candidate twin; the field compare keeps a collision from sharing.
  std::vector<size_t> twin(k);
  std::vector<size_t> builds;
  std::map<uint64_t, std::vector<size_t>> by_stamp;
  for (size_t j = 0; j < k; ++j) {
    twin[j] = j;
    std::vector<size_t>& bucket = by_stamp[stamps[j]];
    for (const size_t b : bucket) {
      if (queries[targets[b]].SameStatement(queries[targets[j]])) {
        twin[j] = b;
        break;
      }
    }
    if (twin[j] == j) {
      bucket.push_back(j);
      builds.push_back(j);
    }
  }
  // Seal against the *current* universe: ids appended since an earlier
  // build become priceable in every cache sealed here.
  const IndexId num_index_ids = candidates_->NumIndexIds();
  SharedAccessCostStore store;
  pool_.ParallelFor(static_cast<int64_t>(builds.size()), [&](int64_t b) {
    const size_t at = builds[static_cast<size_t>(b)];
    const Query& q = queries[targets[at]];
    StatusOr<InumCache> cache = BuildOne(q, &store, &(*stats)[at]);
    if (!cache.ok()) {
      // Failed builds keep the query's name so batch errors stay
      // attributable (replicated workloads have many similar queries).
      statuses[at] = Status(cache.status().code(),
                            q.name + ": " + cache.status().message());
      return;
    }
    // Sealed inside the build task: dominated-plan pruning plus flat
    // access-cost vectors over the universe's stable ids. The build-time
    // cache dies with the task.
    Stopwatch seal_timer;
    (*sealed)[at] = SealedCache::Seal(*cache, num_index_ids);
    seal_times[at] = seal_timer.ElapsedMillis();
  });
  // A repeat shares its twin's arena and seal id: a refcount bump, no
  // optimizer call.
  for (size_t j = 0; j < k; ++j) {
    if (twin[j] == j) continue;
    (*sealed)[j] = (*sealed)[twin[j]];
    (*stats)[j].shared_builds = 1;
  }
  *seal_ms = 0;
  for (const double ms : seal_times) *seal_ms += ms;
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

WorkloadCacheStats WorkloadCacheBuilder::SumCounts(
    const std::vector<QueryBuildStats>& stats,
    const std::vector<SealedCache>& sealed) {
  WorkloadCacheStats totals;
  for (const QueryBuildStats& qs : stats) {
    totals.plan_cache_calls += qs.plan_cache_calls;
    totals.access_cost_calls += qs.access_cost_calls;
    totals.access_calls_saved += qs.access_calls_saved;
    totals.shared_builds += qs.shared_builds;
  }
  for (const SealedCache& cache : sealed) {
    totals.plans_cached += cache.NumPlans() + cache.NumPlansPruned();
    totals.plans_pruned += cache.NumPlansPruned();
    totals.terms += cache.NumTerms();
    totals.postings += cache.NumPostings();
  }
  return totals;
}

StatusOr<WorkloadCacheResult> WorkloadCacheBuilder::BuildAll(
    const std::vector<Query>& queries) {
  const size_t n = queries.size();
  WorkloadCacheResult result;

  // Capture each query's epoch stamp now, against the world this build
  // consumes — snapshots persist these, so a drift after the build (but
  // before a save) still reads as staleness instead of being masked by
  // save-time recomputation.
  std::map<TableId, uint64_t> fp_cache;
  result.stamps.reserve(n);
  for (const Query& q : queries) {
    result.stamps.push_back(QueryStamp(q, &fp_cache));
  }

  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  Stopwatch wall;
  double seal_ms = 0;
  PINUM_RETURN_IF_ERROR(BuildAndSeal(queries, all, result.stamps,
                                     &result.sealed, &result.per_query,
                                     &seal_ms));
  result.totals = SumCounts(result.per_query, result.sealed);
  result.totals.wall_ms = wall.ElapsedMillis();
  result.totals.seal_ms = seal_ms;
  return result;
}

StatusOr<WorkloadCacheResult> WorkloadCacheBuilder::RebuildQueries(
    const std::vector<std::string>& names, const std::vector<Query>& queries,
    const WorkloadCacheResult& base, WorkloadCacheStats* rebuild_totals) {
  if (base.sealed.size() != queries.size() ||
      base.per_query.size() != queries.size() ||
      base.stamps.size() != queries.size()) {
    return Status::InvalidArgument(
        "reseal: result is not parallel to queries (" +
        std::to_string(base.sealed.size()) + " caches, " +
        std::to_string(queries.size()) + " queries) — pass BuildAll's"
        " inputs and output unchanged (restored snapshots:"
        " ResultFromSnapshot)");
  }
  // Resolve names to positions (first match; workload names are unique).
  std::vector<size_t> targets;
  for (const std::string& name : names) {
    size_t at = queries.size();
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].name == name) {
        at = i;
        break;
      }
    }
    if (at == queries.size()) {
      return Status::InvalidArgument("reseal: no query named '" + name + "'");
    }
    if (std::find(targets.begin(), targets.end(), at) == targets.end()) {
      targets.push_back(at);
    }
  }

  // Stamp the targets against the drifted world these rebuilds consume;
  // untouched queries keep the stamps of the world they were built
  // under.
  std::map<TableId, uint64_t> fp_cache;
  std::vector<uint64_t> fresh_stamps;
  fresh_stamps.reserve(targets.size());
  for (const size_t i : targets) {
    fresh_stamps.push_back(QueryStamp(queries[i], &fp_cache));
  }

  // Rebuilt queries reseal against the *current* universe, while
  // untouched queries keep their narrower sealed form — which prices
  // the new ids at base cost, bit-identical to what a cold rebuild
  // computes for a query the new candidates cannot serve.
  std::vector<SealedCache> fresh_sealed;
  std::vector<QueryBuildStats> fresh_stats;
  Stopwatch wall;
  double seal_ms = 0;
  PINUM_RETURN_IF_ERROR(BuildAndSeal(queries, targets, fresh_stamps,
                                     &fresh_sealed, &fresh_stats, &seal_ms));
  const double wall_ms = wall.ElapsedMillis();
  if (rebuild_totals != nullptr) {
    *rebuild_totals = SumCounts(fresh_stats, fresh_sealed);
    rebuild_totals->wall_ms = wall_ms;
    rebuild_totals->seal_ms = seal_ms;
  }

  WorkloadCacheResult next = base;
  for (size_t j = 0; j < targets.size(); ++j) {
    const size_t i = targets[j];
    next.sealed[i] = std::move(fresh_sealed[j]);
    next.per_query[i] = fresh_stats[j];
    next.stamps[i] = fresh_stamps[j];
  }
  next.totals = SumCounts(next.per_query, next.sealed);
  next.totals.wall_ms = wall_ms;
  next.totals.seal_ms = seal_ms;
  return next;
}

uint64_t WorkloadCacheBuilder::QueryStamp(
    const Query& query, std::map<TableId, uint64_t>* table_fp_cache) const {
  // Fold the world-slice stamp with the build shape: two builders bound
  // to one world but building different cache flavours (NLJ handling,
  // any planner knob) must not treat each other's caches as current.
  uint64_t h =
      ComputeQueryStamp(query, *candidates_, *stats_, table_fp_cache);
  auto fold = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  // A constant where a retired build-mode switch was folded, so stamps
  // already written to snapshots stay valid.
  fold(0);
  const PlannerKnobs& knobs = options_.pinum.base_knobs;
  static_assert(sizeof(CostParams) == 6 * sizeof(double) &&
                    sizeof(PlannerHooks) == 2 * sizeof(bool),
                "fold every CostParams and PlannerHooks field below");
  fold(knobs.enable_nestloop ? 1 : 0);
  fold(knobs.enable_hashjoin ? 1 : 0);
  fold(knobs.enable_mergejoin ? 1 : 0);
  for (const double v :
       {knobs.cost.seq_page_cost, knobs.cost.random_page_cost,
        knobs.cost.cpu_tuple_cost, knobs.cost.cpu_index_tuple_cost,
        knobs.cost.cpu_operator_cost, knobs.cost.work_mem_bytes}) {
    fold(std::bit_cast<uint64_t>(v));
  }
  fold(knobs.hooks.export_all_plans ? 1 : 0);
  fold(knobs.hooks.disable_dominance_pruning ? 1 : 0);
  fold(static_cast<uint64_t>(options_.pinum.nlj_extreme_calls) * 2 +
       (options_.pinum.nlj_export_all ? 1 : 0));
  return h;
}

std::vector<size_t> WorkloadCacheBuilder::StaleQueries(
    const std::vector<std::string>& names,
    const std::vector<uint64_t>& stamps,
    const std::vector<Query>& queries) const {
  std::vector<size_t> stale;
  // Entries of another length belong to another workload, even when
  // their names begin with this one's: every query is stale.
  const bool parallel =
      names.size() == queries.size() && stamps.size() == queries.size();
  std::map<TableId, uint64_t> fp_cache;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!parallel || names[i] != queries[i].name ||
        stamps[i] != QueryStamp(queries[i], &fp_cache)) {
      stale.push_back(i);
    }
  }
  return stale;
}

Status WorkloadCacheBuilder::SaveSnapshot(
    const std::string& path, const WorkloadCacheResult& result,
    const std::vector<Query>& queries) const {
  if (result.sealed.size() != queries.size() ||
      result.stamps.size() != queries.size()) {
    return Status::InvalidArgument(
        "snapshot save: result.sealed/stamps and queries are not parallel"
        " (" + std::to_string(result.sealed.size()) + " caches, " +
        std::to_string(result.stamps.size()) + " stamps, " +
        std::to_string(queries.size()) + " queries)");
  }
  std::vector<std::string> names;
  names.reserve(queries.size());
  for (const Query& q : queries) names.push_back(q.name);
  // The stamps persisted are the ones captured when each cache was
  // (re)built — the world the bytes were actually derived from. Stamps
  // recomputed here from the live world would mask any drift that
  // happened since the build, which is exactly what StaleQueries must
  // be able to see after a reload.
  return pinum::SaveSnapshot(path, names, result.stamps, result.sealed,
                             ComputeSnapshotEpoch(*candidates_));
}

StatusOr<WorkloadSnapshot> WorkloadCacheBuilder::LoadSnapshot(
    const std::string& path) const {
  return pinum::LoadSnapshot(path, ComputeSnapshotEpoch(*candidates_));
}

StatusOr<WorkloadCacheResult> WorkloadCacheBuilder::LoadSnapshotMapped(
    const std::string& path, std::vector<std::string>* query_names) const {
  PINUM_ASSIGN_OR_RETURN(
      WorkloadSnapshot mapped,
      MapSnapshot(path, ComputeSnapshotEpoch(*candidates_)));
  return ResultFromSnapshot(std::move(mapped), query_names);
}

WorkloadCacheResult WorkloadCacheBuilder::ResultFromSnapshot(
    WorkloadSnapshot snapshot, std::vector<std::string>* query_names) {
  WorkloadCacheResult result;
  // Parallel to the caches (the RebuildQueries precondition): a restart
  // spent no optimizer calls on any query; a reseal replaces exactly
  // the rows it rebuilds.
  result.per_query.resize(snapshot.sealed.size());
  result.sealed = std::move(snapshot.sealed);
  result.stamps = std::move(snapshot.query_stamps);
  result.totals = SumCounts(result.per_query, result.sealed);
  if (query_names != nullptr) *query_names = std::move(snapshot.query_names);
  return result;
}

}  // namespace pinum
