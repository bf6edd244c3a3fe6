// The index-selection tool of Section V-E: an iterative greedy algorithm
// over a large candidate set, evaluating configurations through the
// (P)INUM cache instead of the optimizer. The greedy core is exposed as
// RunGreedyFrom so the search advisor (src/advisor/search_advisor.h) can
// run it from arbitrary start configurations — randomized-restart
// prefixes and swap-move bases — without duplicating the sweep loop.
#ifndef PINUM_ADVISOR_GREEDY_ADVISOR_H_
#define PINUM_ADVISOR_GREEDY_ADVISOR_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "inum/sealed_cache.h"
#include "whatif/candidate_set.h"

namespace pinum {

/// Batched what-if costing over a workload's per-query sealed caches:
/// prices a whole set of candidate configurations in one call — in
/// parallel when given a pool — instead of looping query-by-query at
/// every call site. Results are written into per-configuration slots, so
/// batched and serial pricing return bit-identical costs.
///
/// Two batch shapes are offered. BatchCost prices arbitrary
/// configurations from scratch. BatchCostWithExtras prices one base
/// configuration plus each of many single-index extensions — the greedy
/// advisor's iteration shape — through the delta path: each query's
/// sealed cache pins the base into a CostContext once, then every extra
/// is a sparse posting-list overlay (O(postings) instead of
/// O(|base| x terms) per extra). Work shards across queries on the pool,
/// per-query costs land in per-(query, extra) slots, and the final
/// per-extra sums reduce in query order — the exact addition order the
/// serial Cost() path uses — so the delta and batched paths return
/// bit-identical workload costs.
///
/// The evaluator consumes the serve-time SealedCache form only, and so
/// does the advisor: WorkloadCacheBuilder hands out sealed caches, and a
/// caller holding build-time InumCaches seals each once
/// (SealedCache::Seal) before pricing.
class WorkloadCostEvaluator {
 public:
  /// Reusable scratch for BatchCostWithExtras: per-query pinned contexts
  /// and the per-(query, extra) cost matrix. Keep one instance alive
  /// across advisor iterations so contexts stay pinned: when a call's
  /// base equals the previous call's base plus one appended id — the
  /// greedy advisor's winner — the contexts are extended in place
  /// (O(postings) per query) instead of re-resolved from scratch. A
  /// scratch belongs to one evaluator's cache vector; do not share it
  /// across evaluators over different vectors or concurrent calls — the
  /// first call records the cache-vector identity in `bound_caches` and
  /// debug builds assert on a mismatch. It IS safe to keep using a
  /// scratch after assigning a WorkloadCacheBuilder::RebuildQueries
  /// result over the evaluator's vector: every call compares each
  /// context's recorded seal id against its cache's
  /// (SealedCache::seal_id) and re-prepares exactly the resealed
  /// queries' contexts, so reuse can never serve costs from a dead
  /// seal's term layout.
  struct EvalScratch {
    std::vector<SealedCache::CostContext> per_query;
    /// Row-major [query][extra] per-query costs.
    std::vector<double> per_query_costs;
    /// Per-extra workload totals, reduced in query order.
    std::vector<double> totals;
    /// The base configuration the contexts currently pin.
    IndexConfig pinned_base;
    bool pinned_valid = false;
    /// id -> sweep slot map shared by every query's inverted sweep, one
    /// widest-seal universe long; a repeated id aliases to its first slot.
    std::vector<uint32_t> position_of_id;
    /// The cache vector this scratch's contexts belong to, recorded on
    /// first use. Contexts index one vector's seals; feeding them to an
    /// evaluator over a different vector would serve costs from the
    /// wrong workload, so debug builds assert identity on every call.
    const void* bound_caches = nullptr;
  };

  /// `caches` must outlive the evaluator (it may come from a fresh
  /// WorkloadCacheBuilder::BuildAll or from a restored snapshot —
  /// LoadSnapshot's caches serve bit-identically). `pool` is optional
  /// (serial pricing when null) and not owned; it may be shared with
  /// other users between calls but not during one.
  explicit WorkloadCostEvaluator(const std::vector<SealedCache>* caches,
                                 ThreadPool* pool = nullptr)
      : caches_(caches), pool_(pool) {}

  /// Workload cost of one configuration: sum of per-query cache costs,
  /// added in query order (the canonical order every batch path reduces
  /// in, which is what makes them bit-identical to this). Thread-safe.
  double Cost(const IndexConfig& config) const;

  /// Workload cost of every configuration; result[i] prices configs[i].
  /// Configurations shard across the pool when one was given;
  /// scheduling never affects the returned bits. Thread-safe.
  std::vector<double> BatchCost(const std::vector<IndexConfig>& configs) const;

  /// Workload cost of base + {extras[i]} for every i, through the delta
  /// path; the returned reference (scratch->totals) is valid until the
  /// next call with the same scratch. result[i] is bit-identical to
  /// Cost(base + {extras[i]}). Duplicate ids in `extras` are allowed (a
  /// repeated id is priced once and its later slots copy the first);
  /// ids outside the universe, however large, and ids already in `base`
  /// price as Cost(base). NOT thread-safe with respect to `scratch`: one
  /// scratch, one caller at a time.
  const std::vector<double>& BatchCostWithExtras(
      const IndexConfig& base, const std::vector<IndexId>& extras,
      EvalScratch* scratch) const;

  /// The cache vector this evaluator prices against (not owned). The
  /// search advisor uses this to spin up serial per-restart evaluators
  /// over the same caches and to read posting footprints for pruning.
  const std::vector<SealedCache>* caches() const { return caches_; }

  /// The pool sweeps shard over; nullptr for serial pricing.
  ThreadPool* pool() const { return pool_; }

 private:
  const std::vector<SealedCache>* caches_;
  ThreadPool* pool_;
};

/// How the advisor prices each iteration's candidate sweep. Both paths
/// produce bit-identical AdvisorResults apart from the
/// `full_evaluations` work counter (the equivalence suite pins this);
/// the delta path is the fast default, the batched path is the PR-2
/// baseline kept for verification and benchmarking.
enum class AdvisorCostPath {
  /// Pin chosen-so-far into per-query contexts once per iteration, sweep
  /// candidates through SealedCache::CostWithExtra posting overlays.
  kDelta,
  /// Re-price chosen + {cand} from scratch per candidate (PR-2 path).
  kBatched,
};

/// Advisor configuration.
struct AdvisorOptions {
  /// Disk-space budget for the suggested indexes (bytes). The paper's
  /// experiment restricts suggestions to 5 GB against a 10 GB database.
  int64_t budget_bytes = 5LL * 1024 * 1024 * 1024;
  /// Stop after this many winners regardless of budget (0 = unlimited).
  int max_indexes = 0;
  /// Minimum benefit to keep iterating, as a fraction of the workload's
  /// starting cost: the loop stops when an iteration's best benefit
  /// falls below min_relative_benefit * workload_cost_before. Genuinely
  /// relative at every scale — a workload whose total cost is 0.5 keeps
  /// winners worth 5e-7 under the default, where the pre-fix rule
  /// (scaling by max(1.0, cost_before)) silently became an absolute
  /// 1e-6 cutoff. Callers that want the old behavior for sub-1.0
  /// workloads can say so explicitly via min_absolute_benefit.
  double min_relative_benefit = 1e-6;
  /// Absolute benefit floor applied alongside the relative rule: the
  /// loop also stops when the best benefit falls below this many cost
  /// units, regardless of workload scale. 0 (default) disables it.
  double min_absolute_benefit = 0;
  /// Candidate-sweep pricing path.
  AdvisorCostPath cost_path = AdvisorCostPath::kDelta;
};

/// One greedy iteration's outcome.
struct AdvisorStep {
  IndexId chosen = kInvalidIndexId;
  double benefit = 0;
  int64_t size_bytes = 0;
  double workload_cost_after = 0;
};

/// Advisor output.
struct AdvisorResult {
  std::vector<IndexId> chosen;
  std::vector<AdvisorStep> steps;
  double workload_cost_before = 0;
  double workload_cost_after = 0;
  int64_t total_size_bytes = 0;
  /// Configurations priced. Each one would have been a whole optimizer
  /// call without the cache, so this is also the optimizer-calls-avoided
  /// count. Path-independent: the delta and batched paths price the
  /// same configurations.
  int64_t evaluations = 0;
  /// Configurations actually resolved through the full pricing path
  /// (term-matrix scan over the whole configuration). The delta path
  /// resolves only each iteration's base and prices the sweep as
  /// O(postings) posting overlays, so full_evaluations stays at
  /// 1 + iterations there, while the batched path pays one full
  /// resolution per priced configuration (== evaluations). The gap
  /// between the two counters is the work the delta engine avoided —
  /// deliberately path-DEPENDENT, unlike every other field.
  int64_t full_evaluations = 0;
};

/// A budget-resolvable candidate in the advisor working set: its id, its
/// estimated size (computed once), and its position in
/// CandidateSet::candidate_ids — the deterministic tie-break rank.
struct AdvisorCandidate {
  IndexId id = kInvalidIndexId;
  int64_t size_bytes = 0;
  uint32_t order = 0;
};

/// Resolves a candidate set into the advisor working form. Ids the
/// universe cannot resolve are dropped here instead of being re-probed
/// (and re-skipped) every iteration.
std::vector<AdvisorCandidate> ResolveAdvisorCandidates(
    const CandidateSet& candidates);

/// Hook for skipping individual candidates out of RunGreedyFrom sweeps.
/// Skip() must be *exact*: it may only return true for a candidate that
/// provably cannot change the run's outcome — i.e. one whose benefit
/// against the run's current configuration is known to fall below the
/// stopping rule's floor (such a candidate is never accepted, and if it
/// were the sweep argmin the loop would stop either way, since every
/// other candidate's benefit is no larger). The search advisor's
/// posting-overlap pruner (docs/ADVISOR.md) is the intended
/// implementation. OnPick is invoked after each accepted winner so the
/// filter can track how the configuration has drifted from whatever
/// reference its skip evidence was gathered against.
class GreedySweepFilter {
 public:
  virtual ~GreedySweepFilter() = default;
  virtual bool Skip(const AdvisorCandidate& cand) = 0;
  virtual void OnPick(const AdvisorCandidate& cand) { (void)cand; }
};

/// One greedy run from an arbitrary start configuration — the core loop
/// of RunGreedyAdvisor, exposed for the search advisor's restart and
/// swap-chain moves.
struct GreedyRun {
  /// start + picks, in growth order.
  IndexConfig chosen;
  /// The picks only (start members have no steps).
  std::vector<AdvisorStep> steps;
  /// Cost of the start configuration / of `chosen`.
  double start_cost = 0;
  double cost_after = 0;
  /// start_bytes + picked sizes.
  int64_t used_bytes = 0;
  int64_t evaluations = 0;
  int64_t full_evaluations = 0;
  /// The last sweep the loop priced, exposed so a search layer can prove
  /// candidates dominated in later moves. Valid only when that sweep was
  /// priced against the final `chosen` (the loop ended because no swept
  /// candidate beat the benefit floor); runs that end on the budget,
  /// max_indexes, or empty-sweep exits leave it invalid.
  bool final_sweep_valid = false;
  std::vector<AdvisorCandidate> final_sweep;
  /// final_sweep_costs[i] = Cost(chosen + {final_sweep[i].id}).
  std::vector<double> final_sweep_costs;
};

/// Runs greedy selection starting from `start` (whose indexes occupy
/// `start_bytes` of the budget): repeatedly adds the candidate with the
/// largest workload benefit until the space budget would be violated or
/// no candidate helps. Candidates already in `start` are excluded from
/// the working set; `options.max_indexes` counts start members.
/// `floor_scale` is the workload cost the relative stopping rule scales
/// by — pass 0 (or any non-positive value) to scale by the start
/// configuration's own cost, which is what RunGreedyAdvisor does; the
/// search advisor passes the empty configuration's cost so every
/// restart and swap chain stops under the same rule. `scratch` keeps
/// contexts pinned across iterations (and across calls — swap chains
/// share one). `filter` optionally skips provably-dominated candidates
/// (see GreedySweepFilter); pass nullptr to sweep everything.
///
/// Deterministic: the result is a pure function of (caches, candidates,
/// start, floor_scale, options) plus the filter's decisions — ties
/// break on candidate order rank, pool sharding never changes reduction
/// order.
GreedyRun RunGreedyFrom(const WorkloadCostEvaluator& evaluator,
                        const std::vector<AdvisorCandidate>& candidates,
                        const IndexConfig& start, int64_t start_bytes,
                        double floor_scale, const AdvisorOptions& options,
                        WorkloadCostEvaluator::EvalScratch* scratch,
                        GreedySweepFilter* filter);

/// Runs the greedy selection: repeatedly adds the candidate with the
/// largest workload benefit until the space budget would be violated or
/// no candidate helps. Each iteration sweeps all surviving candidates
/// through the evaluator — pure arithmetic, no optimizer calls, parallel
/// when the evaluator has a pool. Candidates are dropped from the
/// working set permanently once they can never return: unknown ids up
/// front, and over-budget ids as soon as they stop fitting (the used
/// budget only grows).
///
/// Deterministic: the result is a pure function of (caches, candidates,
/// options) — ties break on candidate order rank, pool sharding never
/// changes reduction order — so runs on a fresh build, on a restored
/// snapshot, on either cost path, and at any thread count are all
/// bit-identical (the equivalence suites in tests/advisor_test.cc and
/// tests/snapshot_test.cc pin this; `full_evaluations` is the one
/// deliberately path-dependent field).
AdvisorResult RunGreedyAdvisor(const WorkloadCostEvaluator& evaluator,
                               const CandidateSet& candidates,
                               const AdvisorOptions& options);

/// Convenience overload: serial pricing over already-sealed caches.
AdvisorResult RunGreedyAdvisor(const std::vector<SealedCache>& caches,
                               const CandidateSet& candidates,
                               const AdvisorOptions& options);

}  // namespace pinum

#endif  // PINUM_ADVISOR_GREEDY_ADVISOR_H_
