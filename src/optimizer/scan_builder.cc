#include "optimizer/scan_builder.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace pinum {

namespace {

/// Estimated B-tree height for a hypothetical index (real indexes carry
/// their true height): levels needed above the leaves.
int EstimateHeight(int64_t leaf_pages) {
  int height = 0;
  int64_t pages = leaf_pages;
  const int64_t fanout = 256;  // ~8 KB page / 32-byte downlink
  while (pages > 1) {
    pages = (pages + fanout - 1) / fanout;
    ++height;
  }
  return height;
}

}  // namespace

StatusOr<TableAccessInfo> BuildTableAccessInfo(const Query& query, int pos,
                                               const Catalog& catalog,
                                               const StatsCatalog& stats,
                                               const CostModel& model) {
  TableAccessInfo info;
  info.pos = pos;
  info.table = query.tables[static_cast<size_t>(pos)];
  const TableDef* def = catalog.FindTable(info.table);
  const TableStats* tstats = stats.Find(info.table);
  if (def == nullptr || tstats == nullptr) {
    return Status::NotFound("missing table or statistics for table id " +
                            std::to_string(info.table));
  }

  info.raw_rows = std::max(1.0, tstats->row_count);
  info.heap_pages = std::max(1.0, tstats->heap_pages);

  // Canonical (column, op, constant) order: the selectivity products
  // below multiply in it, so their bits do not depend on the order the
  // statement lists its filters in.
  const std::vector<FilterPredicate> filters = query.FiltersOn(info.table);
  info.num_filters = static_cast<int>(filters.size());
  info.filter_sel = 1.0;
  for (const auto& f : filters) {
    const ColumnStats* cs = stats.FindColumn(f.column);
    if (cs == nullptr) {
      return Status::NotFound("missing column statistics");
    }
    info.filter_sel *= RestrictionSelectivity(*cs, f.op, f.constant);
  }
  info.filtered_rows = std::max(1.0, info.raw_rows * info.filter_sel);

  const std::vector<ColumnIdx> needed = query.NeededColumns(info.table);
  info.needed_width = 0;
  for (ColumnIdx c : needed) {
    info.needed_width += def->columns[static_cast<size_t>(c)].width();
  }
  info.needed_width = std::max(8.0, info.needed_width);

  // ---- Heap sequential scan ----
  ScanOption seq;
  seq.index = kInvalidIndexId;
  seq.rows = info.filtered_rows;
  seq.cost = model.SeqScan(info.heap_pages, info.raw_rows, info.num_filters);
  info.options.push_back(seq);

  // Join columns on this table (probe candidates).
  std::set<ColumnIdx> join_cols;
  for (const auto& j : query.joins) {
    if (j.Touches(info.table)) join_cols.insert(j.SideOn(info.table).column);
  }

  // ---- Index scans and probes ----
  for (const IndexDef* idx : catalog.IndexesOnTable(info.table)) {
    const ColumnIdx lead = idx->leading_column();
    const ColumnStats* lead_stats =
        stats.FindColumn({info.table, lead});
    if (lead_stats == nullptr) continue;
    const int height =
        idx->height > 0 ? idx->height
                        : EstimateHeight(std::max<int64_t>(1, idx->leaf_pages));
    // `total_pages` is what the catalog believes the index occupies; for
    // hypothetical indexes the paper's estimator sets it to the leaf pages
    // only (Section V-A) — the deliberate source of the small what-if
    // error measured in Section VI-B.
    const double index_pages =
        static_cast<double>(std::max<int64_t>(1, idx->total_pages));

    // Boundary (sargable) predicates on the leading column shrink the
    // traversed fraction of the index.
    double sel_index = 1.0;
    int boundary_terms = 0;
    for (const auto& f : filters) {
      if (f.column.column == lead) {
        sel_index *= RestrictionSelectivity(*lead_stats, f.op, f.constant);
        ++boundary_terms;
      }
    }
    const double rows_fetched =
        std::max(1.0, info.raw_rows * std::min(1.0, sel_index));
    const bool covers = idx->CoversColumns(needed);

    for (const bool index_only : {false, true}) {
      if (index_only && !covers) continue;
      ScanOption opt;
      opt.index = idx->id;
      opt.index_only = index_only;
      opt.sel_index = sel_index;
      opt.rows = info.filtered_rows;
      opt.cost = model.IndexScan(
          index_pages, height, info.heap_pages, sel_index, rows_fetched,
          info.filtered_rows, lead_stats->correlation, index_only,
          info.num_filters - boundary_terms);
      for (ColumnIdx k : idx->key_columns) {
        opt.order.columns.push_back({info.table, k});
      }
      info.options.push_back(opt);
    }

    // Probe option when the leading column is a join column.
    if (join_cols.count(lead) > 0) {
      const double nd = std::max(1.0, lead_stats->n_distinct);
      const double rows_matched = info.raw_rows / nd;
      const double leaf_pages_touched = std::max(
          1.0, std::ceil(static_cast<double>(idx->leaf_pages) / nd));
      for (const bool index_only : {false, true}) {
        if (index_only && !covers) continue;
        ProbeOption probe;
        probe.index = idx->id;
        probe.column = {info.table, lead};
        probe.index_only = index_only;
        probe.cost_per_probe =
            model.IndexProbe(height, leaf_pages_touched, rows_matched,
                             index_only, info.num_filters);
        probe.rows_per_probe =
            std::max(1e-9, rows_matched * info.filter_sel);
        info.probes.push_back(probe);
      }
    }
  }
  return info;
}

}  // namespace pinum
