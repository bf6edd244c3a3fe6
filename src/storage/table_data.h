// In-memory columnar row store backing the execution engine.
#ifndef PINUM_STORAGE_TABLE_DATA_H_
#define PINUM_STORAGE_TABLE_DATA_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"

namespace pinum {

/// Row position within a table.
using RowIdx = int64_t;

/// Column-major storage for one table.
///
/// The engine is laptop-scale and in-memory; page counts used by the cost
/// model are *derived* from row counts and tuple widths exactly as
/// PostgreSQL derives them from the on-disk heap, so cost behaviour matches
/// a disk-resident system of the same logical size.
class TableData {
 public:
  explicit TableData(const TableDef& def)
      : columns_(def.columns.size()) {}

  /// Appends one row; `values` must have one entry per column.
  void AppendRow(const std::vector<Value>& values) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      columns_[i].push_back(values[i]);
    }
  }

  /// Reserves capacity in every column vector.
  void Reserve(size_t rows) {
    for (auto& c : columns_) c.reserve(rows);
  }

  int64_t NumRows() const {
    return columns_.empty() ? 0 : static_cast<int64_t>(columns_[0].size());
  }
  size_t NumColumns() const { return columns_.size(); }

  const std::vector<Value>& column(ColumnIdx i) const {
    return columns_[static_cast<size_t>(i)];
  }
  Value at(RowIdx row, ColumnIdx col) const {
    return columns_[static_cast<size_t>(col)][static_cast<size_t>(row)];
  }

 private:
  std::vector<std::vector<Value>> columns_;
};

}  // namespace pinum

#endif  // PINUM_STORAGE_TABLE_DATA_H_
