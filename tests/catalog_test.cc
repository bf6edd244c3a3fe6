#include <gtest/gtest.h>

#include "catalog/catalog.h"

namespace pinum {
namespace {

TableDef SimpleTable(const std::string& name, int cols = 3) {
  TableDef t;
  t.name = name;
  for (int i = 0; i < cols; ++i) {
    t.columns.push_back({"c" + std::to_string(i), TypeId::kInt64});
  }
  return t;
}

TEST(CatalogTest, AddAndFindTable) {
  Catalog cat;
  auto id = cat.AddTable(SimpleTable("t1"));
  ASSERT_TRUE(id.ok());
  const TableDef* t = cat.FindTable(*id);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->name, "t1");
  EXPECT_EQ(cat.FindTableByName("t1")->id, *id);
  EXPECT_EQ(cat.FindTableByName("nope"), nullptr);
}

TEST(CatalogTest, RejectsDuplicateTableNames) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(SimpleTable("t")).ok());
  auto dup = cat.AddTable(SimpleTable("t"));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RejectsEmptyTables) {
  Catalog cat;
  TableDef empty;
  empty.name = "empty";
  EXPECT_EQ(cat.AddTable(empty).status().code(),
            StatusCode::kInvalidArgument);
  TableDef unnamed;
  unnamed.columns.push_back({"c", TypeId::kInt64});
  EXPECT_EQ(cat.AddTable(unnamed).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, AddIndexValidatesTableAndColumns) {
  Catalog cat;
  auto tid = cat.AddTable(SimpleTable("t"));
  ASSERT_TRUE(tid.ok());

  IndexDef bad_table;
  bad_table.name = "i0";
  bad_table.table = 99;
  bad_table.key_columns = {0};
  EXPECT_EQ(cat.AddIndex(bad_table).status().code(), StatusCode::kNotFound);

  IndexDef bad_col;
  bad_col.name = "i1";
  bad_col.table = *tid;
  bad_col.key_columns = {17};
  EXPECT_EQ(cat.AddIndex(bad_col).status().code(), StatusCode::kOutOfRange);

  IndexDef no_cols;
  no_cols.name = "i2";
  no_cols.table = *tid;
  EXPECT_EQ(cat.AddIndex(no_cols).status().code(),
            StatusCode::kInvalidArgument);

  IndexDef good;
  good.name = "i3";
  good.table = *tid;
  good.key_columns = {1, 2};
  auto iid = cat.AddIndex(good);
  ASSERT_TRUE(iid.ok());
  EXPECT_EQ(cat.FindIndex(*iid)->leading_column(), 1);
}

TEST(CatalogTest, DropIndexRemovesNameToo) {
  Catalog cat;
  auto tid = cat.AddTable(SimpleTable("t"));
  IndexDef idx;
  idx.name = "i";
  idx.table = *tid;
  idx.key_columns = {0};
  auto iid = cat.AddIndex(idx);
  ASSERT_TRUE(iid.ok());
  ASSERT_TRUE(cat.DropIndex(*iid).ok());
  EXPECT_EQ(cat.FindIndex(*iid), nullptr);
  EXPECT_EQ(cat.FindIndexByName("i"), nullptr);
  // Name can be reused after the drop.
  EXPECT_TRUE(cat.AddIndex(idx).ok());
  EXPECT_EQ(cat.DropIndex(12345).code(), StatusCode::kNotFound);
}

TEST(CatalogTest, IndexesOnTableFiltersByTable) {
  Catalog cat;
  auto t1 = cat.AddTable(SimpleTable("t1"));
  auto t2 = cat.AddTable(SimpleTable("t2"));
  for (int i = 0; i < 3; ++i) {
    IndexDef idx;
    idx.name = "i" + std::to_string(i);
    idx.table = i < 2 ? *t1 : *t2;
    idx.key_columns = {0};
    ASSERT_TRUE(cat.AddIndex(idx).ok());
  }
  EXPECT_EQ(cat.IndexesOnTable(*t1).size(), 2u);
  EXPECT_EQ(cat.IndexesOnTable(*t2).size(), 1u);
  // Drops leave the per-table list in id order.
  ASSERT_TRUE(cat.DropIndex(cat.FindIndexByName("i0")->id).ok());
  const auto on_t1 = cat.IndexesOnTable(*t1);
  ASSERT_EQ(on_t1.size(), 1u);
  EXPECT_EQ(on_t1[0]->name, "i1");
}

TEST(CatalogTest, WithOnlyIndexesKeepsIdsAndDropsTheRest) {
  Catalog cat;
  auto t1 = cat.AddTable(SimpleTable("t1"));
  auto t2 = cat.AddTable(SimpleTable("t2"));
  ASSERT_TRUE(cat.AddForeignKey({*t1, 1, *t2, 0}).ok());
  std::vector<IndexId> ids;
  for (int i = 0; i < 4; ++i) {
    IndexDef idx;
    idx.name = "i" + std::to_string(i);
    idx.table = i % 2 == 0 ? *t1 : *t2;
    idx.key_columns = {i % 3};
    ids.push_back(*cat.AddIndex(idx));
  }
  // Unknown and repeated ids are ignored; the keep order is irrelevant.
  const Catalog sub = cat.WithOnlyIndexes({ids[3], 999, ids[0], ids[3]});
  EXPECT_EQ(sub.NumIndexes(), 2u);
  EXPECT_EQ(sub.tables().size(), 2u);
  EXPECT_EQ(sub.foreign_keys().size(), 1u);
  ASSERT_NE(sub.FindIndex(ids[0]), nullptr);
  EXPECT_EQ(sub.FindIndex(ids[0])->name, "i0");
  EXPECT_EQ(sub.FindIndexByName("i3")->id, ids[3]);
  EXPECT_EQ(sub.FindIndex(ids[1]), nullptr);
  EXPECT_EQ(sub.FindIndexByName("i2"), nullptr);
  ASSERT_EQ(sub.IndexesOnTable(*t1).size(), 1u);
  EXPECT_EQ(sub.IndexesOnTable(*t1)[0]->id, ids[0]);
  ASSERT_EQ(sub.IndexesOnTable(*t2).size(), 1u);
  EXPECT_EQ(sub.IndexesOnTable(*t2)[0]->id, ids[3]);
  // A later index gets the id the full catalog would have assigned, as
  // after dropping the others.
  Catalog grown = sub;
  IndexDef more;
  more.name = "i2";  // free again in the subset
  more.table = *t1;
  more.key_columns = {0};
  EXPECT_EQ(*grown.AddIndex(more), ids.back() + 1);
}

TEST(CatalogTest, CatalogIsCopyableValueType) {
  Catalog base;
  auto tid = base.AddTable(SimpleTable("t"));
  Catalog copy = base;
  IndexDef idx;
  idx.name = "only_in_copy";
  idx.table = *tid;
  idx.key_columns = {0};
  ASSERT_TRUE(copy.AddIndex(idx).ok());
  EXPECT_EQ(base.NumIndexes(), 0u);
  EXPECT_EQ(copy.NumIndexes(), 1u);
}

TEST(CatalogTest, ForeignKeysValidated) {
  Catalog cat;
  auto t1 = cat.AddTable(SimpleTable("t1"));
  auto t2 = cat.AddTable(SimpleTable("t2"));
  ForeignKey fk{*t1, 1, *t2, 0};
  EXPECT_TRUE(cat.AddForeignKey(fk).ok());
  ForeignKey bad{*t1, 1, 999, 0};
  EXPECT_EQ(cat.AddForeignKey(bad).code(), StatusCode::kNotFound);
  EXPECT_EQ(cat.foreign_keys().size(), 1u);
}

TEST(SchemaTest, TupleWidthIncludesOverheadAndAlignment) {
  TableDef t = SimpleTable("t", 3);  // 24 bytes of data
  EXPECT_EQ(t.TupleWidth(), 24 + PageLayout::kHeapTupleOverhead);
  TableDef odd;
  odd.name = "odd";
  odd.columns = {{"a", TypeId::kInt32}};  // 4 bytes -> MAXALIGN to 8
  EXPECT_EQ(odd.TupleWidth(), 8 + PageLayout::kHeapTupleOverhead);
}

TEST(SchemaTest, IndexCoverage) {
  TableDef t = SimpleTable("t", 5);
  IndexDef idx;
  idx.table = 0;
  idx.key_columns = {2, 0, 4};
  EXPECT_EQ(idx.leading_column(), 2);
  EXPECT_TRUE(idx.ContainsColumn(0));
  EXPECT_FALSE(idx.ContainsColumn(1));
  EXPECT_TRUE(idx.CoversColumns({0, 2}));
  EXPECT_FALSE(idx.CoversColumns({0, 1}));
  EXPECT_EQ(idx.EntryWidth(t), 24 + PageLayout::kIndexTupleOverhead);
}

TEST(SchemaTest, FindColumnByName) {
  TableDef t = SimpleTable("t", 3);
  EXPECT_EQ(t.FindColumn("c1"), 1);
  EXPECT_EQ(t.FindColumn("zzz"), -1);
}

}  // namespace
}  // namespace pinum
