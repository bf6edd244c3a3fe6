// The serving-optimized form of a finished InumCache. Sealing happens
// once after a cache is built; every subsequent what-if question — the
// advisor issues O(candidates x iterations x queries) of them — is
// answered from the sealed form:
//
//  - plans that can never win are pruned: a plan whose every slot
//    requires at least as much as another plan's (same kind-or-stronger
//    requirement, no smaller multiplier) with no smaller internal cost is
//    dominated (the paper's Section IV redundancy observation applied at
//    serve time), and a plan with a requirement no universe index can
//    serve prices infinite under every configuration. The repo's own
//    builders already eliminate both at build time (Section V-D export
//    dominance plus requirement relaxation and key dedup — the property
//    suite pins this), so sealing re-establishes irredundancy as an
//    invariant of the serve-time type no matter where the cache came
//    from (merged, persisted, or hand-built caches included);
//  - per-slot std::map probes are replaced by a dense index-major term
//    matrix over the candidate universe's stable ids (CandidateSet
//    guarantees id stability): distinct slot requirements are
//    deduplicated into shared "terms", and pricing a configuration is a
//    base-row copy plus one contiguous min-fold per configuration
//    index;
//  - per-index posting lists record, for every universe index, the few
//    terms that index can actually lower below their base cost. They
//    drive the delta-costing path: with a CostContext pinning a base
//    configuration's resolved term values, CostWithExtra prices
//    base + {id} by folding only postings[id] — O(postings), not
//    O(|base| x terms) — which turns the greedy advisor's inner loop
//    from re-resolving every term per candidate into a sparse overlay;
//  - surviving plans are sorted by ascending internal cost, so the scan
//    early-exits as soon as internal_cost >= best_so_far (access costs
//    are non-negative, making internal cost a lower bound). A context
//    additionally pins the base configuration's plan-scan result, which
//    seeds the delta scan's early exit: term values under base + {id}
//    are pointwise <= the base values, so the base cost is a valid
//    initial upper bound.
//
// Cost() is bit-identical to InumCache::Cost() on every configuration —
// pruning removes only plans that are pointwise >= a survivor in exact
// floating-point arithmetic, and the surviving plans' costs are computed
// from the same doubles in the same per-slot order. CostWithExtra(ctx,
// id) is bit-identical to Cost(base + {id}) — skipped terms are exactly
// those whose min the extra index cannot change.
//
// Storage: every array lives in ONE relocatable, 8-byte-aligned arena
// image (src/inum/arena.h) and is read through ArenaSpan views. The
// image is what Seal() builds on the heap, what the snapshot layer
// writes to disk verbatim (a snapshot's cache record IS the image — see
// docs/SNAPSHOT_FORMAT.md), and what both snapshot readers
// (src/inum/snapshot.cc) serve in place, out of the loaded file's
// buffer or a mapping, with zero per-element decode. Copying a
// SealedCache shares the immutable arena (cheap — publishing a serving
// generation copies a whole workload's caches); moving transfers the
// backing and leaves the source default-constructed. Both preserve
// seal_id(), so CostContexts pinned before a copy/move stay valid
// against the surviving cache.
//
// The API is seal-only by design: InumCache stays the mutable build-time
// type, SealedCache the immutable serve-time type; there is no Unseal.
#ifndef PINUM_INUM_SEALED_CACHE_H_
#define PINUM_INUM_SEALED_CACHE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "inum/arena.h"
#include "inum/cache.h"

namespace pinum {

class SnapshotCodec;

class SealedCache {
 public:
  SealedCache() = default;

  /// Copies share the immutable arena (a refcount bump, not a deep
  /// copy); both caches answer bit-identically and keep the seal id.
  SealedCache(const SealedCache&) = default;
  SealedCache& operator=(const SealedCache&) = default;

  /// Moves transfer the arena backing and reset the source to the
  /// default-constructed state — a moved-from cache holds no dangling
  /// views (it prices everything as the empty cache does). The
  /// destination keeps the seal id, so CostContexts prepared against
  /// the source before the move stay valid against the destination
  /// (the contract RebuildQueries' slot replacement and the serving
  /// engine's generation plumbing rely on; pinned by the
  /// move-regression test alongside ScratchReuseAcrossResealServesLiveCosts).
  SealedCache(SealedCache&& other) noexcept { *this = std::move(other); }
  SealedCache& operator=(SealedCache&& other) noexcept;

  /// A pinned evaluation context: one base configuration's resolved
  /// per-term values plus its plan-scan result. Prepared once per
  /// (cache, base) and swept across many extras by CostWithExtra; reuse
  /// the same object across advisor iterations to keep its buffers warm.
  /// A context belongs to the cache that prepared it and to one thread
  /// at a time.
  class CostContext {
   public:
    CostContext() = default;

    /// Cost of the pinned base configuration (== Cost(base)).
    double base_cost() const { return base_cost_; }

    /// seal_id() of the cache that prepared this context, 0 when never
    /// prepared. A context whose seal id differs from its cache's is
    /// stale — the cache was resealed (or replaced) since the pin — and
    /// its values_ index a dead term layout; callers holding contexts
    /// across reseals (WorkloadCostEvaluator::EvalScratch) compare the
    /// ids and re-prepare instead of serving torn costs.
    uint64_t seal_id() const { return seal_id_; }

   private:
    friend class SealedCache;
    std::vector<double> values_;
    /// (term, previous value) overlay log so CostWithExtra can restore
    /// the pinned values after each extra; capacity persists across
    /// calls.
    std::vector<std::pair<uint32_t, double>> undo_;
    double base_cost_ = kInfiniteCost;
    uint64_t seal_id_ = 0;
  };

  /// Seals `cache` for serving. `num_index_ids` bounds the dense vectors:
  /// one past the largest IndexId the cache can be asked about (use
  /// CandidateSet::NumIndexIds()). Configuration entries outside
  /// [0, num_index_ids) price as absent, exactly as InumCache treats ids
  /// missing from its access-cost table.
  static SealedCache Seal(const InumCache& cache, IndexId num_index_ids);

  /// Estimated query cost under `config`; bit-identical to
  /// InumCache::Cost(config) on the cache this was sealed from.
  /// Thread-safe: concurrent Cost() calls on one cache never share state
  /// (the scratch context is thread-local), which is what lets the
  /// batched evaluator price configurations on a pool.
  double Cost(const IndexConfig& config) const;

  /// Pins `base` into `ctx`: resolves every term against `base` (a
  /// min-fold over the index-major matrix) and records the plan-scan
  /// result, so base + {extra} questions become sparse overlays.
  void PrepareContext(const IndexConfig& base, CostContext* ctx) const;

  /// Re-pins `ctx` from its base configuration B to B + {extra} by
  /// folding postings[extra] in permanently — O(postings), the greedy
  /// advisor's iteration-to-iteration step once a winner is chosen.
  /// Bit-identical to PrepareContext(B + {extra}, ctx): the values agree
  /// term by term (min-folding the winner's matrix row changes exactly
  /// the posting-bearing terms) and the plan rescan seeded with the old
  /// base cost returns the exact new minimum.
  void ExtendContext(CostContext* ctx, IndexId extra) const;

  /// Cost of base + {extra} for the configuration pinned in `ctx`;
  /// bit-identical to Cost(base_config + {extra}). Folds only
  /// postings[extra] into the pinned term values (restoring them before
  /// returning, so one context serves any number of extras in any
  /// order). Ids outside the universe, ids already in the base, and ids
  /// that cannot lower any term short-circuit to ctx->base_cost().
  double CostWithExtra(CostContext* ctx, IndexId extra) const;

  /// CostWithExtra for a whole sweep, the advisor-shaped entry point.
  /// The caller fills `out` with ctx->base_cost() and amortizes an id ->
  /// slot map across queries (kNotSwept for ids not swept, one slot per
  /// swept id; ids >= map_size are not swept). The sweep walks only this
  /// cache's posting-bearing ids (PostingBearingIds) and writes
  /// out[position_of_id[id]] = CostWithExtra(ctx, id) for each one the
  /// map sweeps; every other swept id has no postings here, so its
  /// base-cost slot already holds CostWithExtra's answer bit for bit.
  static constexpr uint32_t kNotSwept = UINT32_MAX;
  void CostActiveExtrasInto(CostContext* ctx, const uint32_t* position_of_id,
                            size_t map_size, double* out) const;

  /// Universe ids with non-empty posting lists: the only ids whose
  /// addition can change any cost this cache serves. A view into the
  /// arena — valid as long as this cache (or any copy) is alive.
  ArenaSpan<IndexId> PostingBearingIds() const { return posting_ids_; }

  /// Plans surviving dominance pruning.
  size_t NumPlans() const { return plans_.size(); }
  /// Plans the seal discarded as dominated.
  size_t NumPlansPruned() const { return plans_pruned_; }
  /// Distinct slot requirements shared across the surviving plans.
  size_t NumTerms() const { return term_bases_.size(); }
  /// Total posting-list entries across the universe: (index, term) pairs
  /// where the index can lower the term below its base cost. The delta
  /// path's per-extra work is its share of these, not NumTerms().
  size_t NumPostings() const { return posting_terms_.size(); }
  /// One past the largest IndexId this seal covers. Ids at or beyond it
  /// price as absent (their base cost) — which is also bit-identical to
  /// what a wider reseal computes for an id whose access costs this
  /// cache never saw, the property that lets a sealed cache keep serving
  /// unreseal'd after append-only universe growth (incremental reseal).
  size_t UniverseSize() const { return universe_; }
  /// Process-unique identity of this seal's *contents*: freshly drawn by
  /// every Seal() and snapshot load/map (never 0, never reused within
  /// a process), carried along by copies and moves — both answer
  /// bit-identically, so contexts pinned against the original stay
  /// valid. Assigning a different cache into a slot (RebuildQueries
  /// replacing a resealed query) changes the slot's seal id,
  /// which is how CostContext/EvalScratch staleness is detected.
  uint64_t seal_id() const { return seal_id_; }
  /// Bytes of the backing arena image (0 for a default-constructed
  /// cache) — also exactly this cache's snapshot record size.
  size_t ArenaBytes() const { return arena_.size; }

 private:
  /// The persistence layer (src/inum/snapshot.cc) writes the arena
  /// image verbatim and rebinds views over validated bytes; any layout
  /// change must bump kSnapshotFormatVersion and be reflected in
  /// docs/SNAPSHOT_FORMAT.md in the same change.
  friend class SnapshotCodec;

  /// One surviving plan: internal cost plus a slice of
  /// (plan_term_ids_, plan_multipliers_) in original slot order. Stored
  /// in the arena image verbatim — layout is part of the snapshot
  /// format (16 bytes: f64 internal_cost, u32 first_slot, u32
  /// num_slots).
  struct Plan {
    double internal_cost = 0;
    uint32_t first_slot = 0;
    uint32_t num_slots = 0;
  };
  static_assert(sizeof(Plan) == 16 && alignof(Plan) == kArenaAlign,
                "Plan is persisted verbatim; its layout is format-stable");

  // ---- Arena image layout (all offsets relative to the image start,
  // every array offset a multiple of kArenaAlign; see
  // docs/SNAPSHOT_FORMAT.md "Cache record = arena image") ---------------
  /// Array order in the image directory.
  enum ImageArray : size_t {
    kImgTermBases = 0,
    kImgMatrix = 1,
    kImgPostingOffsets = 2,
    kImgPostingTerms = 3,
    kImgPostingValues = 4,
    kImgPostingIds = 5,
    kImgPlans = 6,
    kImgPlanTermIds = 7,
    kImgPlanMultipliers = 8,
    kImgArrayCount = 9,
  };
  /// u64 universe + u64 plans_pruned, then the directory.
  static constexpr size_t kImageDirectoryAt = 16;
  /// Directory entry: u64 byte offset + u64 element count.
  static constexpr size_t kImageArraysAt =
      kImageDirectoryAt + kImgArrayCount * 16;

  /// Structural validation of an untrusted image — every check the
  /// serving scans rely on (alignment, bounds, CSR closure, plan
  /// ordering, strict-improvement postings, posting-id consistency).
  /// Returns kInternal before any view is handed out; shared by both
  /// snapshot readers (LoadSnapshot and MapSnapshot).
  static Status ValidateImage(const char* data, size_t size);

  /// Installs views over `arena` (whose bytes must already be a valid
  /// image — Seal's own packing or ValidateImage-checked) and draws a
  /// fresh seal id.
  void BindImage(Arena arena);

  /// The canonical image of a default-constructed (never sealed) cache:
  /// universe 0, no plans, the CSR invariant's single {0} offset. What
  /// SnapshotCodec encodes when asked to persist a default cache.
  static std::string PackEmptyImage();

  /// Min over plans of internal + sum(multiplier x values[term]), seeded
  /// with upper bound `seed` (kInfiniteCost for a from-scratch scan);
  /// early-exits on the ascending-internal-cost order.
  double ScanPlans(const double* values, double seed) const;

  /// The posting-overlay core shared by CostWithExtra and
  /// CostActiveExtrasInto: folds postings [begin, end) into ctx's
  /// pinned values, scans, restores, returns the cost.
  double CostOverlay(CostContext* ctx, uint32_t begin, uint32_t end) const;

  /// Draws the next process-unique seal id (atomic; seals run on pools).
  static uint64_t NextSealId();

  /// Back to the default-constructed state (empty arena, no views).
  void Reset();

  /// The one backing buffer every span below points into: heap-owned
  /// (Seal) or borrowed from a snapshot file's buffer or mapping.
  Arena arena_;

  /// One past the largest IndexId the sealed arrays cover.
  size_t universe_ = 0;

  /// See seal_id(). Not persisted: load/map draws a fresh one.
  uint64_t seal_id_ = 0;

  /// Per-term cost under the empty configuration (heap for unordered
  /// slots, infinite for ordered/probe slots).
  ArenaSpan<double> term_bases_;
  /// Index-major term matrix: row id (length NumTerms()) holds every
  /// term's cost under the singleton configuration {id}; entries for
  /// terms the index cannot serve equal the term's base. Configuration
  /// pricing min-folds whole rows, contiguously.
  ArenaSpan<double> per_index_values_;

  /// CSR posting lists over [0, universe_): for id, the terms t (with
  /// their per-index values) where matrix[id][t] < term_bases_[t] —
  /// the only terms whose resolved min the index can ever lower.
  ArenaSpan<uint32_t> posting_offsets_;  // universe_ + 1 entries
  ArenaSpan<uint32_t> posting_terms_;
  ArenaSpan<double> posting_values_;
  /// Ascending ids with a non-empty posting list.
  ArenaSpan<IndexId> posting_ids_;

  ArenaSpan<Plan> plans_;  // ascending internal_cost
  ArenaSpan<uint32_t> plan_term_ids_;
  ArenaSpan<double> plan_multipliers_;
  size_t plans_pruned_ = 0;
};

}  // namespace pinum

#endif  // PINUM_INUM_SEALED_CACHE_H_
