// Anytime randomized configuration search on top of the delta engine.
//
// The paper's Section V-E advisor is a single greedy sweep because every
// evaluation used to cost an optimizer call; the delta path prices a
// candidate in O(postings), cheap enough to afford *search*. The search
// runs (1) parallel randomized restarts — greedy completions from
// seeded random candidate prefixes, sharded over the ThreadPool — and
// (2) swap/backtracking local moves on the best restart: evict one
// chosen index, re-sweep the survivors through BatchCostWithExtras with
// the pinned EvalScratch, and greedy-complete from the freed budget,
// which captures index-interaction effects a single greedy pass misses.
// Posting-overlap signatures from the sealed caches prune swap
// candidates that are provably still below the stopping floor
// (docs/ADVISOR.md spells out the soundness argument).
//
// Determinism contract: the result (minus wall_ms) is a pure function
// of (caches, candidates, options). Restart outcomes depend only on
// their per-restart seeded RNG and reduce in canonical restart order,
// so pool scheduling and thread counts never change the returned bits;
// runs on a fresh build and on a restored snapshot are bit-identical.
// With time_budget_ms > 0 the search is *anytime*: the deadline is
// checked between whole units of work (a restart, an eviction), the
// greedy baseline always completes, and whatever has finished reduces
// under the same canonical rule — so a truncated run is still never
// worse than greedy, but which units finished is machine-dependent.
// Leave the deadline at 0 wherever reproducibility matters (tests, the
// golden corpus).
#ifndef PINUM_ADVISOR_SEARCH_ADVISOR_H_
#define PINUM_ADVISOR_SEARCH_ADVISOR_H_

#include <cstdint>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "whatif/candidate_set.h"

namespace pinum {

/// Search configuration. The embedded AdvisorOptions carry the space
/// budget and stopping rule shared with greedy; the fields here shape
/// the search itself.
struct SearchOptions {
  /// Space budget, stopping floors, max_indexes, cost path — shared by
  /// the greedy baseline, every restart, and every swap chain.
  AdvisorOptions base;
  /// Master seed. Restart r draws from an independent stream seeded by
  /// SplitMix64(seed, r), so (seed, r) pins a restart's prefix exactly.
  uint64_t seed = 1;
  /// Randomized restarts run after the greedy baseline (restart 0).
  int max_restarts = 16;
  /// Wall-clock budget in milliseconds; 0 = unlimited (fully
  /// deterministic). The greedy baseline always completes even when the
  /// budget is already spent, so the search never returns a
  /// configuration worse than greedy's.
  double time_budget_ms = 0;
  /// Skip swap-sweep candidates whose posting footprint is disjoint
  /// from everything the incumbent changed and whose last swept benefit
  /// already failed the stopping floor. Exact (never changes the
  /// result — SearchPruningNeverChangesTheResult pins this), purely a
  /// work saver; exposed so tests can diff on/off.
  bool prune_dominated_swaps = true;
};

/// One restart's trajectory entry, in canonical restart order.
struct SearchRestart {
  /// 0 = the greedy baseline (empty prefix).
  uint32_t restart = 0;
  /// Random budget-fitting candidates the greedy completion grew from.
  uint32_t prefix_size = 0;
  /// False only when the time budget skipped this restart.
  bool completed = false;
  double cost_after = 0;
  uint32_t num_chosen = 0;
};

/// One accepted swap move.
struct SearchSwap {
  uint32_t pass = 0;
  IndexId evicted = kInvalidIndexId;
  /// First index the re-sweep chain inserted (kInvalidIndexId when the
  /// move shrank the configuration outright).
  IndexId inserted = kInvalidIndexId;
  /// Total insertions after the eviction (>1 = backtracking: several
  /// smaller indexes replaced one large one).
  uint32_t chain_length = 0;
  double cost_after = 0;
};

/// Search output. Everything except wall_ms is covered by the
/// determinism contract above.
struct SearchResult {
  /// Best configuration found, in growth order (restart prefix + greedy
  /// picks, mutated by accepted swaps).
  IndexConfig chosen;
  double workload_cost_before = 0;
  double workload_cost_after = 0;
  /// Restart 0's converged cost — the greedy baseline the quality
  /// guarantee is measured against. workload_cost_after is never above
  /// this.
  double greedy_cost_after = 0;
  int64_t total_size_bytes = 0;
  /// Counter semantics match AdvisorResult: configurations priced
  /// across all restarts and swap chains / full-path resolutions only.
  int64_t evaluations = 0;
  int64_t full_evaluations = 0;
  /// Restarts that ran to completion (always >= 1: the baseline).
  int64_t restarts_completed = 0;
  int64_t swaps_accepted = 0;
  /// Swap-sweep candidates skipped by the posting-overlap pruner.
  int64_t swap_candidates_pruned = 0;
  /// Trajectories, for the plan-stability corpus and debugging.
  std::vector<SearchRestart> restarts;
  std::vector<SearchSwap> swaps;
  /// Measured wall clock; the one field outside the determinism
  /// contract.
  double wall_ms = 0;
};

/// Runs the search. The evaluator's pool (when present) shards the
/// randomized restarts — each restart prices serially on its worker —
/// and then the swap-move sweeps query-parallel; a pool-less evaluator
/// runs everything serially with identical bits.
SearchResult RunSearchAdvisor(const WorkloadCostEvaluator& evaluator,
                              const CandidateSet& candidates,
                              const SearchOptions& options);

/// Convenience overload: serial search over already-sealed caches.
SearchResult RunSearchAdvisor(const std::vector<SealedCache>& caches,
                              const CandidateSet& candidates,
                              const SearchOptions& options);

}  // namespace pinum

#endif  // PINUM_ADVISOR_SEARCH_ADVISOR_H_
