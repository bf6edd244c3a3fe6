// A candidate-index universe with stable ids: the shared vocabulary
// between the INUM/PINUM caches (which price configurations of candidate
// ids) and the advisor (which searches over subsets of them).
#ifndef PINUM_WHATIF_CANDIDATE_SET_H_
#define PINUM_WHATIF_CANDIDATE_SET_H_

#include <algorithm>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "whatif/whatif_index.h"

namespace pinum {

/// The base catalog extended with every candidate what-if index, assigned
/// stable IndexIds that configurations refer to.
struct CandidateSet {
  Catalog universe;
  std::vector<IndexId> candidate_ids;

  /// Catalog containing only the base objects plus the subset `config`
  /// (what-if evaluation of one index configuration), with every index
  /// under its universe id.
  Catalog Subset(const std::vector<IndexId>& config) const {
    std::vector<IndexId> keep = base_index_ids;
    keep.insert(keep.end(), config.begin(), config.end());
    return universe.WithOnlyIndexes(keep);
  }

  /// Index ids that existed in the base catalog (real indexes).
  std::vector<IndexId> base_index_ids;

  /// One past the largest IndexId in the universe: the length of dense
  /// per-index vectors (e.g. SealedCache's flat access-cost rows) that
  /// use the universe's stable ids as direct subscripts.
  IndexId NumIndexIds() const {
    return universe.indexes().empty() ? 0
                                      : universe.indexes().rbegin()->first + 1;
  }

  /// Appends hypothetical `more` to the universe, assigning each a fresh
  /// id strictly above every existing one. Append-only growth is the
  /// contract that makes incremental reseal possible: every existing
  /// candidate id, base id, and the NumIndexIds() prefix stay valid, so
  /// sealed vectors subscripted by the old universe keep meaning the
  /// same indexes and price the new ids as absent (their base cost).
  /// All-or-nothing: on error (duplicate name, unknown table, bad key
  /// columns) nothing is appended. Returns the assigned ids.
  StatusOr<std::vector<IndexId>> Append(const std::vector<IndexDef>& more) {
    // Validate against a scratch copy first so a failure mid-list cannot
    // leave the universe half-grown.
    Catalog probe = universe;
    for (const IndexDef& def : more) {
      PINUM_RETURN_IF_ERROR(probe.AddIndex(def).status());
    }
    std::vector<IndexId> assigned;
    assigned.reserve(more.size());
    for (const IndexDef& def : more) {
      PINUM_ASSIGN_OR_RETURN(IndexId id, universe.AddIndex(def));
      candidate_ids.push_back(id);
      assigned.push_back(id);
    }
    return assigned;
  }

  /// True when `prefix` names the same universe as a (possibly shorter)
  /// earlier generation of this set: its candidate ids are a prefix of
  /// ours. The snapshot layer uses this shape to accept snapshots sealed
  /// before an append (per-query stamps mark what actually went stale)
  /// while rejecting any other mutation.
  bool HasCandidatePrefix(const std::vector<IndexId>& prefix) const {
    return prefix.size() <= candidate_ids.size() &&
           std::equal(prefix.begin(), prefix.end(), candidate_ids.begin());
  }
};

/// Builds the universe from `base` plus hypothetical `candidates`.
inline StatusOr<CandidateSet> MakeCandidateSet(
    const Catalog& base, const std::vector<IndexDef>& candidates) {
  CandidateSet set;
  for (const auto& [id, def] : base.indexes()) {
    (void)def;
    set.base_index_ids.push_back(id);
  }
  PINUM_ASSIGN_OR_RETURN(
      set.universe, CatalogWithIndexes(base, candidates, &set.candidate_ids));
  return set;
}

}  // namespace pinum

#endif  // PINUM_WHATIF_CANDIDATE_SET_H_
