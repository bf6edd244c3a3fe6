#include "whatif/whatif_index.h"

#include <algorithm>
#include <cmath>

#include "storage/btree_index.h"

namespace pinum {

IndexDef MakeWhatIfIndex(const std::string& name, const TableDef& table,
                         const std::vector<ColumnIdx>& key_columns,
                         double row_count) {
  IndexDef def;
  def.name = name;
  def.table = table.id;
  def.key_columns = key_columns;
  def.hypothetical = true;
  const int entry_width = def.EntryWidth(table);
  def.leaf_pages = BtreeLeafPages(
      static_cast<int64_t>(std::llround(std::max(1.0, row_count))),
      entry_width);
  // Section V-A: "We ignore the internal pages of the B-Tree index".
  def.total_pages = def.leaf_pages;
  def.height = 0;  // estimated from leaf pages at costing time
  return def;
}

int64_t IndexSizeBytes(const IndexDef& def) {
  return def.total_pages * PageLayout::kPageSize;
}

StatusOr<Catalog> CatalogWithIndexes(const Catalog& base,
                                     const std::vector<IndexDef>& hypo,
                                     std::vector<IndexId>* assigned_ids) {
  Catalog out = base;
  if (assigned_ids != nullptr) assigned_ids->clear();
  for (const IndexDef& def : hypo) {
    PINUM_ASSIGN_OR_RETURN(IndexId id, out.AddIndex(def));
    if (assigned_ids != nullptr) assigned_ids->push_back(id);
  }
  return out;
}

}  // namespace pinum
