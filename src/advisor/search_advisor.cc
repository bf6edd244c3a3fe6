#include "advisor/search_advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stopwatch.h"

namespace pinum {
namespace {

// Passes of swap/backtracking local moves over the incumbent; each pass
// tries evicting every chosen position once. Stops early at a fixpoint
// (a pass with no accepted move).
constexpr int kMaxLocalPasses = 4;

// SplitMix64 finalizer: decorrelates the per-restart streams so restart
// r's prefix is pinned by (seed, r) alone.
uint64_t MixSeed(uint64_t seed, uint64_t r) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (r + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Per-candidate posting-footprint signature: a 64-bit bloom over the
// queries where the candidate bears postings. A query's cost depends
// only on the configuration members with postings in that query's cache
// (ids without postings never fold into its term values), so two
// candidates with disjoint signatures provably touch disjoint query
// sets — changing one cannot move the other's workload benefit.
std::vector<uint64_t> PostingSignatures(const std::vector<SealedCache>& caches,
                                        size_t universe) {
  std::vector<uint64_t> sigs(universe, 0);
  for (size_t q = 0; q < caches.size(); ++q) {
    const uint64_t bit = 1ULL << (MixSeed(0, q) & 63);
    for (const IndexId id : caches[q].PostingBearingIds()) {
      if (id >= 0 && static_cast<size_t>(id) < universe) sigs[id] |= bit;
    }
  }
  return sigs;
}

// The swap-sweep filter. Always bars the evicted index itself from
// re-insertion — otherwise a locally-best index is immediately re-picked
// and the move degenerates to a no-op, never exploring the
// interaction-aware configurations the swap exists to reach.
//
// When pruning is on it also skips dominated candidates. Evidence: the
// incumbent's final greedy
// sweep priced every surviving candidate against the full incumbent
// configuration, so benefit_c(incumbent) is known for each. A swap
// chain's configuration differs from the incumbent only by the evicted
// index and the chain's insertions; if candidate c's query signature is
// disjoint from all of those, then every query where c bears postings
// sees the exact incumbent configuration, so benefit_c(chain base) ==
// benefit_c(incumbent). When that benefit already fails the stopping
// floor, c can neither be accepted nor change the chain's stopping
// point (the sweep argmin's benefit would fail the floor with or
// without c) — skipping it is exact, per GreedySweepFilter's contract.
class SwapPruner : public GreedySweepFilter {
 public:
  SwapPruner(IndexId evicted, bool prune, const std::vector<uint64_t>* sigs,
             const std::vector<double>* incumbent_sweep_cost,
             double incumbent_cost, double rel_floor, double abs_floor,
             uint64_t changed_sig)
      : evicted_(evicted),
        prune_(prune),
        sigs_(sigs),
        sweep_cost_(incumbent_sweep_cost),
        incumbent_cost_(incumbent_cost),
        rel_floor_(rel_floor),
        abs_floor_(abs_floor),
        changed_sig_(changed_sig) {}

  bool Skip(const AdvisorCandidate& cand) override {
    if (cand.id == evicted_) return true;  // the move's defining exclusion
    if (!prune_) return false;
    const size_t id = static_cast<size_t>(cand.id);
    if (id >= sigs_->size()) return false;
    if (((*sigs_)[id] & changed_sig_) != 0) return false;  // maybe moved
    const double cost = (*sweep_cost_)[id];
    if (std::isnan(cost)) return false;  // no incumbent evidence
    const double benefit = incumbent_cost_ - cost;
    if (benefit < rel_floor_ || benefit < abs_floor_) {
      ++skipped_;
      return true;
    }
    return false;
  }

  void OnPick(const AdvisorCandidate& cand) override {
    const size_t id = static_cast<size_t>(cand.id);
    // An insertion invalidates the evidence for every candidate sharing
    // a query with it; out-of-range ids (impossible for resolved
    // candidates) conservatively invalidate everything.
    changed_sig_ |= id < sigs_->size() ? (*sigs_)[id] : ~0ULL;
  }

  int64_t skipped() const { return skipped_; }

 private:
  IndexId evicted_;
  bool prune_;
  const std::vector<uint64_t>* sigs_;
  const std::vector<double>* sweep_cost_;
  double incumbent_cost_;
  double rel_floor_;
  double abs_floor_;
  uint64_t changed_sig_;
  int64_t skipped_ = 0;
};

}  // namespace

SearchResult RunSearchAdvisor(const WorkloadCostEvaluator& evaluator,
                              const CandidateSet& candidates,
                              const SearchOptions& options) {
  Stopwatch wall;
  SearchResult result;
  const std::vector<AdvisorCandidate> cands =
      ResolveAdvisorCandidates(candidates);
  auto expired = [&] {
    return options.time_budget_ms > 0 &&
           wall.ElapsedMillis() >= options.time_budget_ms;
  };

  // Restart 0: the canonical greedy baseline. Always runs to completion
  // — even with the budget already spent — which is what guarantees the
  // search never returns a configuration worse than greedy's. Sweeps
  // shard query-parallel on the evaluator's pool.
  const int num_random =
      cands.empty() ? 0 : std::max(0, options.max_restarts);
  std::vector<GreedyRun> runs(static_cast<size_t>(num_random) + 1);
  std::vector<uint32_t> prefix_sizes(runs.size(), 0);
  std::vector<char> completed(runs.size(), 0);
  WorkloadCostEvaluator::EvalScratch scratch;
  runs[0] = RunGreedyFrom(evaluator, cands, /*start=*/{}, /*start_bytes=*/0,
                          /*floor_scale=*/0, options.base, &scratch,
                          /*filter=*/nullptr);
  completed[0] = 1;
  const double empty_cost = runs[0].start_cost;
  result.workload_cost_before = empty_cost;
  result.greedy_cost_after = runs[0].cost_after;

  // Randomized restarts: a seeded random budget-fitting candidate prefix,
  // greedy-completed. Restarts shard over the pool — one restart per
  // worker, each pricing serially through its own evaluator and scratch
  // (BatchCostWithExtras must not nest on the pool) — and their outcomes
  // depend only on (seed, restart), never on scheduling.
  const size_t max_prefix = std::max<size_t>(
      1, std::min(cands.size(), runs[0].chosen.size() + 2));
  auto run_restart = [&](int64_t idx) {
    const size_t r = static_cast<size_t>(idx) + 1;
    if (expired()) return;  // anytime: skip whole restarts past deadline
    Rng rng(MixSeed(options.seed, r));
    size_t want = 1 + rng.Index(max_prefix);
    if (options.base.max_indexes > 0) {
      want = std::min(want, static_cast<size_t>(options.base.max_indexes));
    }
    IndexConfig prefix;
    int64_t prefix_bytes = 0;
    for (const size_t i : rng.SampleIndices(cands.size(), cands.size())) {
      if (prefix.size() >= want) break;
      if (prefix_bytes + cands[i].size_bytes > options.base.budget_bytes) {
        continue;
      }
      prefix.push_back(cands[i].id);
      prefix_bytes += cands[i].size_bytes;
    }
    WorkloadCostEvaluator serial(evaluator.caches(), nullptr);
    WorkloadCostEvaluator::EvalScratch restart_scratch;
    runs[r] = RunGreedyFrom(serial, cands, prefix, prefix_bytes, empty_cost,
                            options.base, &restart_scratch,
                            /*filter=*/nullptr);
    prefix_sizes[r] = static_cast<uint32_t>(prefix.size());
    completed[r] = 1;
  };
  ThreadPool* pool = evaluator.pool();
  if (num_random > 0) {
    if (pool != nullptr) {
      pool->ParallelFor(num_random, run_restart);
    } else {
      for (int64_t r = 0; r < num_random; ++r) run_restart(r);
    }
  }

  // Canonical reduction: best completed restart, ties to the lowest
  // restart index — pool scheduling cannot change the winner.
  size_t best = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!completed[r]) continue;
    ++result.restarts_completed;
    result.evaluations += runs[r].evaluations;
    result.full_evaluations += runs[r].full_evaluations;
    if (runs[r].cost_after < runs[best].cost_after) best = r;
    SearchRestart entry;
    entry.restart = static_cast<uint32_t>(r);
    entry.prefix_size = prefix_sizes[r];
    entry.completed = true;
    entry.cost_after = runs[r].cost_after;
    entry.num_chosen = static_cast<uint32_t>(runs[r].chosen.size());
    result.restarts.push_back(entry);
  }
  for (size_t r = 0; r < runs.size(); ++r) {
    if (completed[r]) continue;
    SearchRestart entry;
    entry.restart = static_cast<uint32_t>(r);
    result.restarts.push_back(entry);
  }
  std::sort(result.restarts.begin(), result.restarts.end(),
            [](const SearchRestart& a, const SearchRestart& b) {
              return a.restart < b.restart;
            });

  // Swap/backtracking local moves on the incumbent: evict one chosen
  // index, greedy-complete from the freed budget (the re-sweep prices
  // through BatchCostWithExtras with the shared pinned scratch), accept
  // strictly-improving moves that pass the same benefit floor greedy
  // stops under. Candidates provably still below the floor are pruned
  // via the posting-overlap signatures.
  GreedyRun& incumbent = runs[best];
  IndexConfig chosen = incumbent.chosen;
  int64_t used_bytes = incumbent.used_bytes;
  double current_cost = incumbent.cost_after;
  const size_t universe = candidates.NumIndexIds();
  std::vector<uint64_t> sigs;
  if (options.prune_dominated_swaps) {
    sigs = PostingSignatures(*evaluator.caches(), universe);
  }
  std::vector<double> sweep_cost(universe,
                                 std::numeric_limits<double>::quiet_NaN());
  bool sweep_valid = false;
  auto load_sweep = [&](const GreedyRun& run) {
    sweep_cost.assign(universe, std::numeric_limits<double>::quiet_NaN());
    sweep_valid = run.final_sweep_valid;
    if (!sweep_valid) return;
    for (size_t i = 0; i < run.final_sweep.size(); ++i) {
      const size_t id = static_cast<size_t>(run.final_sweep[i].id);
      if (id < universe) sweep_cost[id] = run.final_sweep_costs[i];
    }
  };
  load_sweep(incumbent);
  auto size_of = [&](IndexId id) {
    for (const AdvisorCandidate& cand : cands) {
      if (cand.id == id) return cand.size_bytes;
    }
    return int64_t{0};
  };
  const double rel_floor =
      options.base.min_relative_benefit * empty_cost;
  const double abs_floor = options.base.min_absolute_benefit;

  bool out_of_time = false;
  for (int pass = 0; pass < kMaxLocalPasses && !out_of_time; ++pass) {
    bool pass_improved = false;
    for (size_t pos = 0; pos < chosen.size(); ++pos) {
      if (expired()) {  // anytime: finish between whole eviction moves
        out_of_time = true;
        break;
      }
      const IndexId evicted = chosen[pos];
      IndexConfig swap_base;
      swap_base.reserve(chosen.size() - 1);
      for (size_t i = 0; i < chosen.size(); ++i) {
        if (i != pos) swap_base.push_back(chosen[i]);
      }
      const int64_t swap_base_bytes = used_bytes - size_of(evicted);
      const bool prune = options.prune_dominated_swaps && sweep_valid &&
                         static_cast<size_t>(evicted) < sigs.size();
      SwapPruner pruner(evicted, prune, &sigs, &sweep_cost, current_cost,
                        rel_floor, abs_floor,
                        prune ? sigs[static_cast<size_t>(evicted)] : 0);
      GreedyRun chain = RunGreedyFrom(
          evaluator, cands, swap_base, swap_base_bytes, empty_cost,
          options.base, &scratch, &pruner);
      result.evaluations += chain.evaluations;
      result.full_evaluations += chain.full_evaluations;
      result.swap_candidates_pruned += pruner.skipped();
      const double improvement = current_cost - chain.cost_after;
      if (improvement > 0 &&
          !(improvement < rel_floor || improvement < abs_floor)) {
        SearchSwap swap;
        swap.pass = static_cast<uint32_t>(pass);
        swap.evicted = evicted;
        swap.inserted =
            chain.steps.empty() ? kInvalidIndexId : chain.steps[0].chosen;
        swap.chain_length = static_cast<uint32_t>(chain.steps.size());
        swap.cost_after = chain.cost_after;
        result.swaps.push_back(swap);
        ++result.swaps_accepted;
        chosen = chain.chosen;
        used_bytes = chain.used_bytes;
        current_cost = chain.cost_after;
        load_sweep(chain);
        pass_improved = true;
        // `pos` now indexes the mutated configuration; continuing is
        // fine — every position gets revisited next pass, and the
        // fixpoint rule below decides when to stop.
      }
    }
    if (!pass_improved) break;
  }

  result.chosen = std::move(chosen);
  result.workload_cost_after = current_cost;
  result.total_size_bytes = used_bytes;
  result.wall_ms = wall.ElapsedMillis();
  return result;
}

SearchResult RunSearchAdvisor(const std::vector<SealedCache>& caches,
                              const CandidateSet& candidates,
                              const SearchOptions& options) {
  return RunSearchAdvisor(WorkloadCostEvaluator(&caches), candidates,
                          options);
}

}  // namespace pinum
