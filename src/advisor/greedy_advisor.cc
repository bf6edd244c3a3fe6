#include "advisor/greedy_advisor.h"

#include <algorithm>
#include <cassert>

#include "whatif/whatif_index.h"

namespace pinum {

double WorkloadCostEvaluator::Cost(const IndexConfig& config) const {
  double total = 0;
  for (const SealedCache& cache : *caches_) total += cache.Cost(config);
  return total;
}

std::vector<double> WorkloadCostEvaluator::BatchCost(
    const std::vector<IndexConfig>& configs) const {
  std::vector<double> costs(configs.size());
  if (pool_ == nullptr || configs.size() <= 1) {
    for (size_t i = 0; i < configs.size(); ++i) costs[i] = Cost(configs[i]);
    return costs;
  }
  pool_->ParallelFor(static_cast<int64_t>(configs.size()), [&](int64_t i) {
    costs[static_cast<size_t>(i)] = Cost(configs[static_cast<size_t>(i)]);
  });
  return costs;
}

const std::vector<double>& WorkloadCostEvaluator::BatchCostWithExtras(
    const IndexConfig& base, const std::vector<IndexId>& extras,
    EvalScratch* scratch) const {
  // A scratch's contexts index one cache vector's seals; serving them to
  // a different vector would return the wrong workload's costs. Identity
  // is recorded on first use and asserted (debug builds) ever after.
  assert((scratch->bound_caches == nullptr ||
          scratch->bound_caches == caches_) &&
         "EvalScratch reused with a different evaluator's cache vector");
  scratch->bound_caches = caches_;
  const size_t num_queries = caches_->size();
  const size_t num_extras = extras.size();
  if (scratch->per_query.size() != num_queries) {
    scratch->per_query.assign(num_queries, {});
    scratch->pinned_valid = false;
  }
  scratch->per_query_costs.resize(num_queries * num_extras);

  // Context reuse across calls: the greedy advisor's bases grow one
  // winner at a time, so the common case extends the pinned contexts by
  // one id's postings instead of re-resolving every term against the
  // whole base. A context the winner did not change, or one re-pinned
  // to bitwise-equal values, keeps its memoized sweep answers.
  const bool reuse = scratch->pinned_valid && base == scratch->pinned_base;
  const bool extend =
      !reuse && scratch->pinned_valid &&
      base.size() == scratch->pinned_base.size() + 1 &&
      std::equal(scratch->pinned_base.begin(), scratch->pinned_base.end(),
                 base.begin());
  const IndexId appended = extend ? base.back() : kInvalidIndexId;

  // One id -> sweep-slot map, built once and shared by every query's
  // inverted sweep (walk the cache's posting-bearing ids, not all
  // extras). A repeated id maps to its first slot; the later slots copy
  // that slot's total after the reduction. The map spans the widest
  // seal's universe and no further: no id at or beyond it bears
  // postings anywhere, so such extras (and negative ones) keep the base
  // cost without an entry, however large they are.
  size_t map_size = 0;
  for (const SealedCache& cache : *caches_) {
    map_size = std::max(map_size, cache.UniverseSize());
  }
  scratch->position_of_id.assign(map_size, SealedCache::kNotSwept);
  for (size_t e = 0; e < num_extras; ++e) {
    const IndexId id = extras[e];
    if (id < 0 || static_cast<size_t>(id) >= map_size) continue;
    uint32_t& slot = scratch->position_of_id[static_cast<size_t>(id)];
    if (slot == SealedCache::kNotSwept) slot = static_cast<uint32_t>(e);
  }
  const uint32_t* position_of_id = scratch->position_of_id.data();

  // Shard by query: each query pins the base once, then sweeps every
  // extra through its posting overlay or its memo. Slots are disjoint
  // and each context belongs to one worker, so the matrix contents are
  // deterministic regardless of scheduling.
  auto price_query = [&](int64_t q) {
    const SealedCache& cache = (*caches_)[static_cast<size_t>(q)];
    SealedCache::CostContext& ctx =
        scratch->per_query[static_cast<size_t>(q)];
    if (ctx.seal_id() != cache.seal_id()) {
      // The cache at this slot was resealed (or replaced) since the
      // context was pinned — a rebuilt result assigned over the vector
      // swaps stale queries' seals — so the pinned values index a dead
      // term layout. Re-prepare against the live seal; only the resealed
      // queries pay this, their neighbours keep their warm contexts.
      cache.PrepareContext(base, &ctx);
    } else if (extend) {
      cache.ExtendContext(&ctx, appended);
    } else if (!reuse) {
      cache.PrepareContext(base, &ctx);
    }
    double* row = scratch->per_query_costs.data() +
                  static_cast<size_t>(q) * num_extras;
    std::fill(row, row + num_extras, ctx.base_cost());
    cache.CostActiveExtrasInto(&ctx, position_of_id, map_size, row);
  };
  if (pool_ == nullptr || num_queries <= 1) {
    for (size_t q = 0; q < num_queries; ++q) {
      price_query(static_cast<int64_t>(q));
    }
  } else {
    pool_->ParallelFor(static_cast<int64_t>(num_queries), price_query);
  }

  scratch->pinned_base = base;
  scratch->pinned_valid = true;

  // Reduce the per-query partial results in query order — floating-point
  // addition is not associative, and this is the order Cost() sums in,
  // which makes the delta and batched paths bit-identical.
  scratch->totals.assign(num_extras, 0.0);
  for (size_t q = 0; q < num_queries; ++q) {
    const double* row = scratch->per_query_costs.data() + q * num_extras;
    for (size_t e = 0; e < num_extras; ++e) scratch->totals[e] += row[e];
  }
  // A repeated id's later slots copy its first slot's total: both sum
  // the same per-query costs in the same order, so the bits agree.
  for (size_t e = 0; e < num_extras; ++e) {
    const IndexId id = extras[e];
    if (id < 0 || static_cast<size_t>(id) >= map_size) continue;
    const uint32_t first = position_of_id[static_cast<size_t>(id)];
    if (first != e) scratch->totals[e] = scratch->totals[first];
  }
  return scratch->totals;
}

std::vector<AdvisorCandidate> ResolveAdvisorCandidates(
    const CandidateSet& candidates) {
  std::vector<AdvisorCandidate> resolved;
  resolved.reserve(candidates.candidate_ids.size());
  for (size_t i = 0; i < candidates.candidate_ids.size(); ++i) {
    const IndexId cand = candidates.candidate_ids[i];
    const IndexDef* def = candidates.universe.FindIndex(cand);
    if (def == nullptr) continue;
    resolved.push_back(
        {cand, IndexSizeBytes(*def), static_cast<uint32_t>(i)});
  }
  return resolved;
}

GreedyRun RunGreedyFrom(const WorkloadCostEvaluator& evaluator,
                        const std::vector<AdvisorCandidate>& candidates,
                        const IndexConfig& start, int64_t start_bytes,
                        double floor_scale, const AdvisorOptions& options,
                        WorkloadCostEvaluator::EvalScratch* scratch,
                        GreedySweepFilter* filter) {
  GreedyRun run;
  IndexConfig chosen = start;
  run.start_cost = evaluator.Cost(chosen);
  run.evaluations = 1;
  run.full_evaluations = 1;
  if (floor_scale <= 0) floor_scale = run.start_cost;
  double current_cost = run.start_cost;
  int64_t used_bytes = start_bytes;

  // Working set: everything not already in the start configuration.
  std::vector<AdvisorCandidate> remaining;
  remaining.reserve(candidates.size());
  for (const AdvisorCandidate& cand : candidates) {
    if (std::find(start.begin(), start.end(), cand.id) != start.end()) {
      continue;
    }
    remaining.push_back(cand);
  }

  std::vector<AdvisorCandidate> swept;
  std::vector<IndexId> sweep_ids;
  std::vector<IndexConfig> batch;
  const size_t npos = static_cast<size_t>(-1);

  while (true) {
    if (options.max_indexes > 0 &&
        static_cast<int>(chosen.size()) >= options.max_indexes) {
      break;
    }
    // Permanent budget pruning: used_bytes only grows, so a candidate
    // that no longer fits never fits again — swap-and-pop it instead of
    // re-filtering the whole set every iteration.
    for (size_t i = 0; i < remaining.size();) {
      if (used_bytes + remaining[i].size_bytes > options.budget_bytes) {
        remaining[i] = remaining.back();
        remaining.pop_back();
      } else {
        ++i;
      }
    }
    if (remaining.empty()) break;

    // One sweep per iteration: every surviving candidate appended to the
    // current configuration, priced together. A filter may exclude
    // candidates it can prove dominated (below the stopping floor); that
    // never changes the outcome — see GreedySweepFilter's contract.
    swept.clear();
    sweep_ids.clear();
    for (const AdvisorCandidate& cand : remaining) {
      if (filter != nullptr && filter->Skip(cand)) continue;
      swept.push_back(cand);
      sweep_ids.push_back(cand.id);
    }
    if (swept.empty()) break;
    const std::vector<double>* costs;
    std::vector<double> batched_costs;
    if (options.cost_path == AdvisorCostPath::kDelta) {
      costs = &evaluator.BatchCostWithExtras(chosen, sweep_ids, scratch);
      run.full_evaluations += 1;  // the pinned base; extras are overlays
    } else {
      batch.clear();
      batch.reserve(sweep_ids.size());
      for (IndexId id : sweep_ids) {
        IndexConfig config = chosen;
        config.push_back(id);
        batch.push_back(std::move(config));
      }
      batched_costs = evaluator.BatchCost(batch);
      costs = &batched_costs;
      run.full_evaluations += static_cast<int64_t>(sweep_ids.size());
    }
    run.evaluations += static_cast<int64_t>(sweep_ids.size());

    // Strictly-better argmin with ties broken by original candidate
    // order: identical to pricing the candidates one at a time in
    // candidate order, but independent of the working set's layout, so
    // swap-and-pop removals cannot change which index is selected.
    size_t best_i = npos;
    double best_cost = current_cost;
    for (size_t i = 0; i < swept.size(); ++i) {
      const double cost = (*costs)[i];
      const bool wins =
          best_i == npos
              ? cost < best_cost
              : cost < best_cost ||
                    (cost == best_cost && swept[i].order < swept[best_i].order);
      if (wins) {
        best_i = i;
        best_cost = cost;
      }
    }
    if (best_i == npos) {
      // Nothing strictly better: this sweep was priced against the final
      // configuration, so expose it for dominance pruning.
      run.final_sweep_valid = true;
      run.final_sweep = swept;
      run.final_sweep_costs = *costs;
      break;
    }
    const double benefit = current_cost - best_cost;
    if (benefit < options.min_relative_benefit * floor_scale ||
        benefit < options.min_absolute_benefit) {
      run.final_sweep_valid = true;
      run.final_sweep = swept;
      run.final_sweep_costs = *costs;
      break;
    }
    const AdvisorCandidate winner = swept[best_i];
    chosen.push_back(winner.id);
    used_bytes += winner.size_bytes;
    current_cost = best_cost;
    for (size_t i = 0; i < remaining.size(); ++i) {
      // Match on (id, order): order is the unique original slot, so a
      // duplicated id can never evict its twin.
      if (remaining[i].id == winner.id &&
          remaining[i].order == winner.order) {
        remaining[i] = remaining.back();
        remaining.pop_back();
        break;
      }
    }
    if (filter != nullptr) filter->OnPick(winner);
    run.steps.push_back(
        {winner.id, benefit, winner.size_bytes, current_cost});
  }

  run.chosen = std::move(chosen);
  run.cost_after = current_cost;
  run.used_bytes = used_bytes;
  return run;
}

AdvisorResult RunGreedyAdvisor(const WorkloadCostEvaluator& evaluator,
                               const CandidateSet& candidates,
                               const AdvisorOptions& options) {
  const std::vector<AdvisorCandidate> resolved =
      ResolveAdvisorCandidates(candidates);
  WorkloadCostEvaluator::EvalScratch scratch;  // pinned across iterations
  const GreedyRun run =
      RunGreedyFrom(evaluator, resolved, /*start=*/{}, /*start_bytes=*/0,
                    /*floor_scale=*/0, options, &scratch, /*filter=*/nullptr);
  AdvisorResult result;
  result.chosen = run.chosen;
  result.steps = run.steps;
  result.workload_cost_before = run.start_cost;
  result.workload_cost_after = run.cost_after;
  result.total_size_bytes = run.used_bytes;
  result.evaluations = run.evaluations;
  result.full_evaluations = run.full_evaluations;
  return result;
}

AdvisorResult RunGreedyAdvisor(const std::vector<SealedCache>& caches,
                               const CandidateSet& candidates,
                               const AdvisorOptions& options) {
  return RunGreedyAdvisor(WorkloadCostEvaluator(&caches), candidates,
                          options);
}

}  // namespace pinum
