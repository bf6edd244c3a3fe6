// What-if (hypothetical) indexes: statistics-only index definitions the
// optimizer prices as if they existed (paper, Section V-A).
#ifndef PINUM_WHATIF_WHATIF_INDEX_H_
#define PINUM_WHATIF_WHATIF_INDEX_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "stats/table_stats.h"

namespace pinum {

/// Builds a hypothetical IndexDef whose size statistics follow the
/// paper's estimator: leaf pages derived from average attribute sizes,
/// row count and attribute alignment; *internal* B-tree pages are
/// deliberately ignored ("since they affect the relative page sizes only
/// on very small indexes"), so total_pages == leaf_pages. Height is left
/// 0 (estimated from leaf pages by the cost model).
IndexDef MakeWhatIfIndex(const std::string& name, const TableDef& table,
                         const std::vector<ColumnIdx>& key_columns,
                         double row_count);

/// Estimated on-disk footprint of an index definition (what the advisor
/// charges against its space budget).
int64_t IndexSizeBytes(const IndexDef& def);

/// Returns a copy of `base` with the given hypothetical indexes added.
/// This is the "what-if interface": the simulated indexes are visible to
/// optimizations against the returned catalog only.
StatusOr<Catalog> CatalogWithIndexes(const Catalog& base,
                                     const std::vector<IndexDef>& hypo,
                                     std::vector<IndexId>* assigned_ids);

}  // namespace pinum

#endif  // PINUM_WHATIF_WHATIF_INDEX_H_
