#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "optimizer/scan_builder.h"
#include "parser/parser.h"
#include "test_util.h"
#include "whatif/whatif_index.h"

namespace pinum {
namespace {

class ScanBuilderTest : public ::testing::Test {
 protected:
  ScanBuilderTest() : mini_(), model_() {}

  StatusOr<TableAccessInfo> Build(const Query& q, int pos,
                                  const Catalog& catalog) {
    return BuildTableAccessInfo(q, pos, catalog, mini_.db.stats(), model_);
  }

  MiniStar mini_;
  CostModel model_;
};

TEST_F(ScanBuilderTest, HeapOnlyWithoutIndexes) {
  const Query q = mini_.JoinQuery();
  auto info = Build(q, 0, mini_.db.catalog());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->options.size(), 1u);  // seq scan only
  EXPECT_EQ(info->options[0].index, kInvalidIndexId);
  EXPECT_TRUE(info->probes.empty());
  // 1% filter selectivity.
  EXPECT_NEAR(info->filter_sel, 0.01, 0.002);
  EXPECT_NEAR(info->filtered_rows, info->raw_rows * info->filter_sel,
              info->raw_rows * 0.001);
}

TEST_F(ScanBuilderTest, IndexAddsScanAndProbeOptions) {
  const Query q = mini_.JoinQuery();
  const TableDef* d1 = mini_.db.catalog().FindTable(mini_.d1);
  // Index on d1.id: join column -> probe option; covers the order `id`.
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("d1_id", *d1, {0}, 10'000)};
  auto catalog = CatalogWithIndexes(mini_.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  auto info = Build(q, 1, *catalog);
  ASSERT_TRUE(info.ok());
  // seq + regular index scan (not covering all needed columns: c1 needed).
  EXPECT_EQ(info->options.size(), 2u);
  EXPECT_FALSE(info->probes.empty());
  EXPECT_EQ(info->probes[0].column.column, 0);
  EXPECT_GT(info->probes[0].cost_per_probe.total, 0);
}

TEST_F(ScanBuilderTest, CoveringIndexGetsIndexOnlyVariant) {
  const Query q = mini_.JoinQuery();
  const TableDef* d1 = mini_.db.catalog().FindTable(mini_.d1);
  // d1 needs columns id (join) and c1 (select/order): index on (id, c1).
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("d1_cov", *d1, {0, 1}, 10'000)};
  auto catalog = CatalogWithIndexes(mini_.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  auto info = Build(q, 1, *catalog);
  ASSERT_TRUE(info.ok());
  // seq + regular + index-only.
  ASSERT_EQ(info->options.size(), 3u);
  const ScanOption* index_only = nullptr;
  const ScanOption* regular = nullptr;
  for (const auto& opt : info->options) {
    if (opt.index == kInvalidIndexId) continue;
    (opt.index_only ? index_only : regular) = &opt;
  }
  ASSERT_NE(index_only, nullptr);
  ASSERT_NE(regular, nullptr);
  EXPECT_LT(index_only->cost.total, regular->cost.total);
  // Both deliver the index order (leading column id).
  EXPECT_EQ(index_only->order.Leading().column, 0);
}

TEST_F(ScanBuilderTest, BoundaryPredicateShrinksIndexScan) {
  // A highly selective predicate (0.01%) makes the index range scan beat
  // the sequential scan; at 1% with uncorrelated heap order the random
  // heap fetches lose to the sequential scan — faithful PostgreSQL
  // behavior with random_page_cost = 4.
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.Named("narrow")
                .From("fact")
                .Select("fact", "c2")
                .Where("fact", "c1", CompareOp::kLe, 100)  // 1e-4 of 1e6
                .Build();
  ASSERT_TRUE(q.ok());
  const TableDef* fact = mini_.db.catalog().FindTable(mini_.fact);
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("fact_c1", *fact, {3}, 1'000'000)};  // c1 is col 3
  auto catalog = CatalogWithIndexes(mini_.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  auto info = Build(*q, 0, *catalog);
  ASSERT_TRUE(info.ok());
  const ScanOption* idx = nullptr;
  for (const auto& opt : info->options) {
    if (opt.index != kInvalidIndexId) idx = &opt;
  }
  ASSERT_NE(idx, nullptr);
  EXPECT_NEAR(idx->sel_index, 1e-4, 5e-5);
  // Selective range scan beats the sequential scan.
  EXPECT_LT(idx->cost.total, info->options[0].cost.total);

  // At 1% selectivity the same index loses to the sequential scan.
  const Query wide = mini_.JoinQuery();
  auto wide_info = Build(wide, 0, *catalog);
  ASSERT_TRUE(wide_info.ok());
  const ScanOption* wide_idx = nullptr;
  for (const auto& opt : wide_info->options) {
    if (opt.index != kInvalidIndexId) wide_idx = &opt;
  }
  ASSERT_NE(wide_idx, nullptr);
  EXPECT_GT(wide_idx->cost.total, wide_info->options[0].cost.total);
}

TEST_F(ScanBuilderTest, MissingStatsIsError) {
  Query q = mini_.JoinQuery();
  Catalog fresh;  // tables absent
  TableDef t;
  t.name = "fact";
  t.columns = {{"id", TypeId::kInt64}};
  (void)fresh.AddTable(t);
  StatsCatalog empty_stats;
  auto info = BuildTableAccessInfo(q, 0, fresh, empty_stats, model_);
  EXPECT_FALSE(info.ok());
}

TEST_F(ScanBuilderTest, NonJoinLeadingColumnHasNoProbe) {
  const Query q = mini_.JoinQuery();
  const TableDef* d1 = mini_.db.catalog().FindTable(mini_.d1);
  // Index on payload c2 (not a join column): scan option, no probe.
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("d1_c2", *d1, {2}, 10'000)};
  auto catalog = CatalogWithIndexes(mini_.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  auto info = Build(q, 1, *catalog);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->options.size(), 2u);
  EXPECT_TRUE(info->probes.empty());
}

/// Every field of two collected access infos, doubles compared bit for
/// bit.
void ExpectSameAccessInfo(const TableAccessInfo& a, const TableAccessInfo& b,
                          const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.raw_rows, b.raw_rows);
  EXPECT_EQ(a.filter_sel, b.filter_sel);
  EXPECT_EQ(a.filtered_rows, b.filtered_rows);
  EXPECT_EQ(a.heap_pages, b.heap_pages);
  EXPECT_EQ(a.needed_width, b.needed_width);
  EXPECT_EQ(a.num_filters, b.num_filters);
  ASSERT_EQ(a.options.size(), b.options.size());
  for (size_t i = 0; i < a.options.size(); ++i) {
    const ScanOption& x = a.options[i];
    const ScanOption& y = b.options[i];
    EXPECT_EQ(x.index, y.index) << "option " << i;
    EXPECT_EQ(x.index_only, y.index_only) << "option " << i;
    EXPECT_EQ(x.cost.startup, y.cost.startup) << "option " << i;
    EXPECT_EQ(x.cost.total, y.cost.total) << "option " << i;
    EXPECT_EQ(x.rows, y.rows) << "option " << i;
    EXPECT_EQ(x.sel_index, y.sel_index) << "option " << i;
    EXPECT_EQ(x.order.columns, y.order.columns) << "option " << i;
  }
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (size_t i = 0; i < a.probes.size(); ++i) {
    const ProbeOption& x = a.probes[i];
    const ProbeOption& y = b.probes[i];
    EXPECT_EQ(x.index, y.index) << "probe " << i;
    EXPECT_EQ(x.column, y.column) << "probe " << i;
    EXPECT_EQ(x.index_only, y.index_only) << "probe " << i;
    EXPECT_EQ(x.cost_per_probe.total, y.cost_per_probe.total) << "probe " << i;
    EXPECT_EQ(x.rows_per_probe, y.rows_per_probe) << "probe " << i;
  }
}

TEST_F(ScanBuilderTest, PermutedFiltersCollectIdenticalAccessInfo) {
  // The shared access-cost store keys a table by its sorted filters, so
  // two statements listing the same filters in different orders must
  // collect the same bits: three selectivities multiplied in statement
  // order can round differently (1.9979999999999998e-06 against
  // 1.9980000000000002e-06 on the star family), so the collector
  // multiplies them in one canonical order.
  const TableDef* fact = mini_.db.catalog().FindTable(mini_.fact);
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("fact_c1", *fact, {3}, 1'000'000)};  // c1 is col 3
  auto catalog = CatalogWithIndexes(mini_.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  for (const Value low : {123'457, 271'829, 314'160}) {
    for (const Value high : {654'321, 777'777, 999'331}) {
      for (const Value cap : {1'999, 33'333, 47'123}) {
        std::vector<std::string> preds = {
            "fact.c1 >= " + std::to_string(low),
            "fact.c1 <= " + std::to_string(high),
            "fact.c2 <= " + std::to_string(cap)};
        std::sort(preds.begin(), preds.end());
        std::optional<TableAccessInfo> first;
        do {
          const std::string sql = "SELECT fact.c2 FROM fact WHERE " +
                                  preds[0] + " AND " + preds[1] + " AND " +
                                  preds[2];
          auto q = ParseSql(sql, *catalog);
          ASSERT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
          auto info = Build(*q, 0, *catalog);
          ASSERT_TRUE(info.ok()) << sql;
          if (first.has_value()) {
            ExpectSameAccessInfo(*first, *info, sql);
          } else {
            first = std::move(*info);
          }
        } while (std::next_permutation(preds.begin(), preds.end()));
      }
    }
  }
}

}  // namespace
}  // namespace pinum
