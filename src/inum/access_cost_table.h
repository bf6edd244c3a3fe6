// Per-(table, index) access costs: the "leaf" half of INUM's linear cost
// decomposition. Built either from one hooked optimizer call (PINUM,
// Section V-C) or from per-index optimizer calls (classic INUM).
#ifndef PINUM_INUM_ACCESS_COST_TABLE_H_
#define PINUM_INUM_ACCESS_COST_TABLE_H_

#include <limits>
#include <map>
#include <vector>

#include "catalog/types.h"
#include "optimizer/scan_builder.h"

namespace pinum {

/// A configuration: the set of (usually hypothetical) indexes assumed to
/// exist. INUM calls a configuration "atomic" when it has at most one
/// index per query table; the pricing below handles general sets by
/// implicitly choosing the best per-table index, which coincides with the
/// best atomic sub-configuration.
using IndexConfig = std::vector<IndexId>;

inline constexpr double kInfiniteCost =
    std::numeric_limits<double>::infinity();

/// The "requirement cannot be met" sentinel test. Access costs are
/// compared against kInfiniteCost in several layers; funneling the
/// float-equality through one named helper keeps the sentinel's meaning
/// (and any future representation change) in one place.
inline bool IsInfinite(double cost) { return cost == kInfiniteCost; }

/// Access costs of one index for one query table.
struct IndexAccessCosts {
  /// Cheapest scan delivering one interesting order.
  struct OrderedCost {
    ColumnRef column;
    double cost = kInfiniteCost;
  };

  IndexId index = kInvalidIndexId;
  /// Probe column (the index's leading key column); invalid when no
  /// probe option was absorbed.
  ColumnRef probe_column;
  /// Cheapest scan through this index (any variant).
  double scan_cost = kInfiniteCost;
  /// Cheapest scan per delivered order column. Scan options of one index
  /// can deliver different orders (e.g. forward/backward variants), so
  /// the minimum is tracked per column, never mixed across columns.
  std::vector<OrderedCost> ordered;
  /// Cheapest single equality probe (inner of an index NLJ);
  /// infinite when the leading column is not a join column.
  double probe_cost = kInfiniteCost;
  double probe_rows = 0;

  /// Cheapest scan delivering order `col`; infinite when none does.
  double OrderedCostFor(ColumnRef col) const {
    for (const OrderedCost& o : ordered) {
      if (o.column == col) return o.cost;
    }
    return kInfiniteCost;
  }
};

/// Access-cost table for one query.
class AccessCostTable {
 public:
  /// Merges the per-index costs of `info` into the table (classic INUM's
  /// incremental population, one optimizer call at a time).
  void Absorb(const TableAccessInfo& info);

  /// Cheapest unordered access to table `pos` using the heap or any
  /// configuration index.
  double Unordered(int pos, const IndexConfig& config) const;

  /// Cheapest access delivering interesting order `col`; infinite when no
  /// configuration index covers it.
  double Ordered(int pos, ColumnRef col, const IndexConfig& config) const;

  /// Cheapest equality probe on `col`; infinite when unsupported.
  double Probe(int pos, ColumnRef col, const IndexConfig& config) const;

  /// Sequential-scan cost of table `pos` (always available).
  double HeapCost(int pos) const;

  /// The per-index costs recorded for table `pos` (nullptr when `pos` is
  /// out of range). An id absent from this map prices exactly like the
  /// empty configuration — Unordered falls back to the heap, Ordered and
  /// Probe to infinite — which is what lets SealedCache fill a term's
  /// dense per-index row with its base cost and patch only these
  /// entries, instead of probing the map once per universe id.
  const std::map<IndexId, IndexAccessCosts>* IndexCostsAt(int pos) const {
    if (pos < 0 || static_cast<size_t>(pos) >= tables_.size()) return nullptr;
    return &tables_[static_cast<size_t>(pos)].by_index;
  }

 private:
  struct PerTable {
    double heap_cost = kInfiniteCost;
    std::map<IndexId, IndexAccessCosts> by_index;
  };
  std::vector<PerTable> tables_;
};

}  // namespace pinum

#endif  // PINUM_INUM_ACCESS_COST_TABLE_H_
