#include "catalog/catalog.h"

#include <algorithm>

namespace pinum {

StatusOr<TableId> Catalog::AddTable(TableDef table) {
  if (table.name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (table_names_.count(table.name) > 0) {
    return Status::AlreadyExists("table '" + table.name + "' already exists");
  }
  if (table.columns.empty()) {
    return Status::InvalidArgument("table '" + table.name + "' has no columns");
  }
  const TableId id = next_table_id_++;
  table.id = id;
  table_names_[table.name] = id;
  tables_[id] = std::move(table);
  return id;
}

StatusOr<IndexId> Catalog::AddIndex(IndexDef index) {
  const TableDef* table = FindTable(index.table);
  if (table == nullptr) {
    return Status::NotFound("index '" + index.name +
                            "' references unknown table");
  }
  if (index.key_columns.empty()) {
    return Status::InvalidArgument("index '" + index.name +
                                   "' has no key columns");
  }
  for (ColumnIdx c : index.key_columns) {
    if (c < 0 || static_cast<size_t>(c) >= table->columns.size()) {
      return Status::OutOfRange("index '" + index.name +
                                "' references column out of range");
    }
  }
  if (index_names_.count(index.name) > 0) {
    return Status::AlreadyExists("index '" + index.name + "' already exists");
  }
  const IndexId id = next_index_id_++;
  index.id = id;
  index_names_[index.name] = id;
  table_indexes_[index.table].push_back(id);
  indexes_[id] = std::move(index);
  return id;
}

Status Catalog::DropIndex(IndexId id) {
  auto it = indexes_.find(id);
  if (it == indexes_.end()) {
    return Status::NotFound("no index with id " + std::to_string(id));
  }
  index_names_.erase(it->second.name);
  std::vector<IndexId>& on_table = table_indexes_[it->second.table];
  on_table.erase(std::find(on_table.begin(), on_table.end(), id));
  indexes_.erase(it);
  return Status::OK();
}

Status Catalog::AddForeignKey(ForeignKey fk) {
  if (FindTable(fk.child_table) == nullptr ||
      FindTable(fk.parent_table) == nullptr) {
    return Status::NotFound("foreign key references unknown table");
  }
  fks_.push_back(fk);
  return Status::OK();
}

const TableDef* Catalog::FindTable(TableId id) const {
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : &it->second;
}

const TableDef* Catalog::FindTableByName(const std::string& name) const {
  auto it = table_names_.find(name);
  return it == table_names_.end() ? nullptr : FindTable(it->second);
}

const IndexDef* Catalog::FindIndex(IndexId id) const {
  auto it = indexes_.find(id);
  return it == indexes_.end() ? nullptr : &it->second;
}

const IndexDef* Catalog::FindIndexByName(const std::string& name) const {
  auto it = index_names_.find(name);
  return it == index_names_.end() ? nullptr : FindIndex(it->second);
}

std::vector<const IndexDef*> Catalog::IndexesOnTable(TableId table) const {
  std::vector<const IndexDef*> out;
  auto it = table_indexes_.find(table);
  if (it == table_indexes_.end()) return out;
  out.reserve(it->second.size());
  for (IndexId id : it->second) out.push_back(FindIndex(id));
  return out;
}

Catalog Catalog::WithOnlyIndexes(const std::vector<IndexId>& keep) const {
  Catalog out;
  out.tables_ = tables_;
  out.table_names_ = table_names_;
  out.fks_ = fks_;
  out.next_table_id_ = next_table_id_;
  out.next_index_id_ = next_index_id_;
  for (IndexId id : keep) {
    auto it = indexes_.find(id);
    if (it == indexes_.end()) continue;
    if (out.indexes_.emplace(id, it->second).second) {
      out.index_names_.emplace(it->second.name, id);
    }
  }
  for (const auto& [id, idx] : out.indexes_) {
    out.table_indexes_[idx.table].push_back(id);
  }
  return out;
}

IndexDef* Catalog::MutableIndex(IndexId id) {
  auto it = indexes_.find(id);
  return it == indexes_.end() ? nullptr : &it->second;
}

}  // namespace pinum
