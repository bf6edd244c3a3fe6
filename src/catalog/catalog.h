// The catalog: registry of tables, indexes and foreign keys.
#ifndef PINUM_CATALOG_CATALOG_H_
#define PINUM_CATALOG_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"
#include "common/status.h"

namespace pinum {

/// Registry of schema objects.
///
/// Catalog is a value type: the what-if layer copies it and adds
/// hypothetical indexes, leaving the base catalog untouched — this mirrors
/// the paper's what-if interface where simulated indexes are visible to a
/// single optimization only (Section V-A).
class Catalog {
 public:
  /// Registers a table; assigns and returns its id.
  StatusOr<TableId> AddTable(TableDef table);

  /// Registers an index over an existing table; assigns and returns its id.
  StatusOr<IndexId> AddIndex(IndexDef index);

  /// Removes an index.
  Status DropIndex(IndexId id);

  /// Declares a foreign-key edge (used by generators, not enforced).
  Status AddForeignKey(ForeignKey fk);

  // ---- Lookup ----
  const TableDef* FindTable(TableId id) const;
  const TableDef* FindTableByName(const std::string& name) const;
  const IndexDef* FindIndex(IndexId id) const;
  const IndexDef* FindIndexByName(const std::string& name) const;
  /// Indexes defined over `table`, in id order. Costs O(indexes on the
  /// table), not O(all indexes).
  std::vector<const IndexDef*> IndexesOnTable(TableId table) const;

  /// A copy with every table and foreign key but only the indexes of
  /// `keep` (ids not in this catalog are ignored), each under its
  /// current id. Later AddIndex ids continue after this catalog's, as
  /// if the other indexes had been dropped. Costs O(tables + |keep|),
  /// not a copy of every index.
  Catalog WithOnlyIndexes(const std::vector<IndexId>& keep) const;

  const std::map<TableId, TableDef>& tables() const { return tables_; }
  const std::map<IndexId, IndexDef>& indexes() const { return indexes_; }
  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }

  /// Mutable index access (storage updates size stats after builds).
  IndexDef* MutableIndex(IndexId id);

  /// Number of registered indexes.
  size_t NumIndexes() const { return indexes_.size(); }

 private:
  std::map<TableId, TableDef> tables_;
  std::map<IndexId, IndexDef> indexes_;
  std::map<std::string, TableId> table_names_;
  std::map<std::string, IndexId> index_names_;
  /// Table id -> its index ids, ascending (ids only grow).
  std::map<TableId, std::vector<IndexId>> table_indexes_;
  std::vector<ForeignKey> fks_;
  TableId next_table_id_ = 0;
  IndexId next_index_id_ = 0;
};

}  // namespace pinum

#endif  // PINUM_CATALOG_CATALOG_H_
