// Candidate-index generation for the index-selection tool: the tool
// "first statically analyses the queries to find a large set of candidate
// indexes" (paper, Section V-E) — its accuracy advantage over commercial
// designers comes "mainly because of its significantly larger candidate
// index set".
#ifndef PINUM_ADVISOR_CANDIDATE_GENERATOR_H_
#define PINUM_ADVISOR_CANDIDATE_GENERATOR_H_

#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"
#include "stats/table_stats.h"

namespace pinum {

/// Candidate generation knobs.
struct CandidateOptions {
  /// Upper bound on emitted candidates (0 = unlimited).
  size_t max_candidates = 0;
};

/// Generates deduplicated hypothetical candidate indexes for a workload.
/// Per query and table, each interesting column yields a single-column
/// index and a covering one (that column first, then every other column
/// the query reads from the table — the paper's winning fact-table
/// indexes are of this shape), then one pure covering index. Last come
/// workload-covering indexes: per table, each filter column leading the
/// union of the columns any query reads from it, so one index serves
/// many queries. The emit order fixes candidate ids (the corpus pins it).
std::vector<IndexDef> GenerateCandidates(const std::vector<Query>& workload,
                                         const Catalog& catalog,
                                         const StatsCatalog& stats,
                                         const CandidateOptions& options);

}  // namespace pinum

#endif  // PINUM_ADVISOR_CANDIDATE_GENERATOR_H_
