// Sealed-cache snapshots: versioned on-disk persistence for the serving
// layer. One snapshot file holds a whole workload's sealed caches (plus
// the query names they belong to), so a what-if service or advisor
// session can restart in milliseconds instead of re-paying the optimizer
// calls the caches were built from — the restart-cost gap the paper's
// "one optimizer call" pitch leaves open.
//
// The format is specified byte-for-byte in docs/SNAPSHOT_FORMAT.md; the
// spec and this code are kept in lockstep through kSnapshotFormatVersion
// (bump it in both places together). Three properties the format
// guarantees:
//
//  - exact round-trip: doubles are stored as their raw IEEE-754 bit
//    patterns (the kInfiniteCost sentinel included), so a restored
//    cache's Cost()/CostWithExtra() answers are bit-identical to the
//    sealed original's — the same contract sealing itself makes against
//    the build-time cache;
//  - loud staleness, at query granularity: every snapshot embeds a
//    fingerprint of the base catalog schema and of the candidate
//    universe it was sealed over, plus one epoch stamp per query
//    covering exactly the catalog/statistics slices that query touches.
//    Loading against an incompatible world — base schema changed, or the
//    stored universe is not a prefix of the live one — fails with
//    kFailedPrecondition; loading against a world that merely drifted
//    (stats re-ANALYZEd, candidates appended) succeeds and reports
//    exactly which queries are stale, so incremental reseal can re-pay
//    the optimizer for those alone instead of rebuilding the workload;
//  - no trust in the bytes: the file carries its own length and a
//    checksum, every section read is bounds-checked, and the decoded
//    cache's structural invariants (CSR monotonicity, term-id ranges,
//    plan ordering) are re-validated, so a truncated, corrupt, or
//    crafted file yields a descriptive Status, never UB.
//
// Distinct failure paths return distinct codes: kNotFound (missing
// file), kOutOfRange (truncated), kInvalidArgument (not a snapshot /
// foreign byte order), kUnimplemented (older or newer format version),
// kInternal (corruption), kFailedPrecondition (epoch mismatch).
#ifndef PINUM_INUM_SNAPSHOT_H_
#define PINUM_INUM_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "inum/sealed_cache.h"
#include "query/query.h"
#include "stats/table_stats.h"
#include "whatif/candidate_set.h"

namespace pinum {

/// On-disk format version this build writes and the only one it reads.
/// Version history lives in docs/SNAPSHOT_FORMAT.md. The caches section
/// stores each cache as its relocatable arena image (see inum/arena.h),
/// 8-aligned in the file, so both readers bind caches in place; v4
/// checksums the file a u64 word at a time. Older versions are rejected
/// kUnimplemented, not migrated.
inline constexpr uint32_t kSnapshotFormatVersion = 4;

/// Fingerprint of the world a snapshot was sealed under. The base
/// schema hash covers tables, columns, foreign keys, and the real
/// (base-catalog) index definitions — the part of the world candidates
/// are layered onto. The candidate vocabulary is fingerprinted as a
/// *running prefix chain* over the candidate definitions in id order
/// (key columns and size statistics included — the advisor prices bytes
/// from them), so a snapshot sealed before an append-only universe
/// growth verifies against the live chain in O(1): the stored epoch is
/// compatible iff the base schema matches and its candidate ids + final
/// prefix hash name a prefix of the live universe. Statistics are
/// deliberately absent here — stats drift is per-query staleness (see
/// ComputeQueryStamp), not an epoch break.
struct SnapshotEpoch {
  uint64_t base_schema_hash = 0;
  /// One past the largest universe IndexId (CandidateSet::NumIndexIds).
  IndexId universe = 0;
  std::vector<IndexId> candidate_ids;
  /// Hash of the full candidate-definition sequence, in id order —
  /// the last entry of ComputeUniversePrefixChain.
  uint64_t universe_prefix_hash = 0;
  /// Live-side only, never stored: hash of every prefix length
  /// ([k] covers the first k candidates; [0] is the empty prefix), so a
  /// stored epoch of any earlier generation verifies in O(1). Empty on
  /// epochs read back from a file (ReadSnapshotEpoch).
  std::vector<uint64_t> prefix_chain;

  /// Equality of the persisted fields (the live-only prefix_chain is
  /// derived from candidate defs and excluded so stored and live epochs
  /// of the same world compare equal).
  bool operator==(const SnapshotEpoch& o) const {
    return base_schema_hash == o.base_schema_hash && universe == o.universe &&
           candidate_ids == o.candidate_ids &&
           universe_prefix_hash == o.universe_prefix_hash;
  }
};

/// The epoch of a live candidate universe — deterministic FNV-1a over a
/// canonical byte serialization, so equal inputs hash equally across
/// processes and runs. Fills prefix_chain.
SnapshotEpoch ComputeSnapshotEpoch(const CandidateSet& set);

/// The running candidate-vocabulary chain: out[k] fingerprints the first
/// k candidates' (id, definition) pairs in order; out[0] is the empty
/// prefix. Any definition change, reorder, or removal changes every
/// later entry — only a pure append leaves existing entries intact.
std::vector<uint64_t> ComputeUniversePrefixChain(const CandidateSet& set);

/// Per-query epoch stamp: a fingerprint of everything this query's
/// sealed cache was derived from — the query's own structure (tables,
/// selects, filters, joins, grouping, ordering) plus, for every table it
/// touches, that table's schema slice, statistics, foreign keys, and
/// every universe index defined on it (base and candidate, sizes
/// included). Two worlds assign a query equal stamps iff its cold-built
/// cache would be identical in both; a drifted stamp is exactly the
/// "this query is stale, reseal it" signal incremental reseal consumes.
/// `table_fp_cache`, when given, memoizes ComputeTableEpochFingerprint
/// results across calls — whole-workload stampings would otherwise
/// re-hash a shared table (histograms included) once per query.
uint64_t ComputeQueryStamp(const Query& query, const CandidateSet& set,
                           const StatsCatalog& stats,
                           std::map<TableId, uint64_t>* table_fp_cache =
                               nullptr);

/// The per-table slice ComputeQueryStamp folds per touched table, also
/// usable on its own to decide which SharedAccessCostStore tables to
/// invalidate after drift: covers the table definition, its statistics,
/// foreign keys touching it, and every universe index on it.
uint64_t ComputeTableEpochFingerprint(TableId table, const CandidateSet& set,
                                      const StatsCatalog& stats);

/// A restored snapshot: per-query sealed caches, serving-ready (feed
/// `sealed` straight to a WorkloadCostEvaluator), with the query names
/// and epoch stamps they were sealed under (parallel vectors). A cache
/// whose stored stamp differs from the live query's stamp is stale —
/// WorkloadCacheBuilder::StaleQueries computes exactly that set. Both
/// readers return this type with every cache bound in place over the
/// file's bytes: LoadSnapshot's caches share one heap buffer holding the
/// whole file, MapSnapshot's share the file mapping, and each cache's
/// arena pins those bytes, copies included.
struct WorkloadSnapshot {
  std::vector<std::string> query_names;
  std::vector<uint64_t> query_stamps;
  std::vector<SealedCache> sealed;
  /// The stored epoch's universe bound: equal to the live
  /// NumIndexIds(), or smaller when the snapshot predates an append.
  IndexId universe = 0;
};

/// Writes `sealed` (named by the parallel `query_names`, stamped by the
/// parallel `query_stamps`) and `epoch` to `path` as one self-contained
/// snapshot file: every cache record is the given cache's arena image,
/// whatever the file at `path` held before. The bytes are fully
/// serialized first, written to `path + ".tmp"`, fsynced, and renamed
/// into place only on success, so a failed write (kInternal) never
/// destroys a previously good snapshot at `path`; on success any
/// existing file is replaced.
Status SaveSnapshot(const std::string& path,
                    const std::vector<std::string>& query_names,
                    const std::vector<uint64_t>& query_stamps,
                    const std::vector<SealedCache>& sealed,
                    const SnapshotEpoch& epoch);

/// Reads a snapshot back, validating magic, byte order, version, length,
/// checksum, and structural invariants, then that the stored epoch is
/// *compatible* with `expected` (compute it from the live universe with
/// ComputeSnapshotEpoch): the base schema hash must match and the stored
/// candidate ids + prefix hash must name a prefix of the live chain —
/// equality when nothing grew, a strict prefix when candidates were
/// appended since the seal. Any other mutation (removed, reordered, or
/// redefined candidates, base-schema change) is kFailedPrecondition.
/// Per-query staleness is NOT checked here — the load reports stored
/// stamps and the caller diffs them against live ones (see
/// WorkloadCacheBuilder::StaleQueries) to decide what to reseal. On
/// success the returned caches answer every cost question bit-identically
/// to the caches that were saved. The file is read once into one heap
/// buffer, and every returned cache binds in place over it and co-owns
/// it, so the buffer lives until the last cache (or copy) is destroyed.
StatusOr<WorkloadSnapshot> LoadSnapshot(const std::string& path,
                                        const SnapshotEpoch& expected);

/// The mapped reader: mmaps `path` read-only (MAP_PRIVATE) instead of
/// reading it, and runs LoadSnapshot's reader body over the mapping —
/// same checks, same order, same failure codes, the same in-place bind.
/// Every image is structurally validated, and a misaligned one rejected,
/// before any view is handed out. Restart cost skips the file read, and
/// processes mapping one file share one physical copy of the caches.
/// Each returned cache's arena co-owns the mapping, so the pages stay
/// mapped until the last cache (or copy) borrowing them is destroyed —
/// past the file's unlink, and past a concurrent SaveSnapshot, which
/// replaces the file via rename(2). kUnimplemented where POSIX mmap is
/// unavailable.
StatusOr<WorkloadSnapshot> MapSnapshot(const std::string& path,
                                       const SnapshotEpoch& expected);

/// Header-and-epoch-only read: what a snapshot claims to be sealed
/// under, without decoding the caches. Fails on the same magic / byte
/// order / truncation / version / checksum paths as LoadSnapshot, but
/// never with kFailedPrecondition — inspection tools use this to say
/// *why* a snapshot is stale.
StatusOr<SnapshotEpoch> ReadSnapshotEpoch(const std::string& path);

}  // namespace pinum

#endif  // PINUM_INUM_SNAPSHOT_H_
