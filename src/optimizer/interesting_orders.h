// Interesting orders and interesting-order combinations (IOCs), the
// central vocabulary of INUM and PINUM (paper, Section II definitions
// 2-4).
#ifndef PINUM_OPTIMIZER_INTERESTING_ORDERS_H_
#define PINUM_OPTIMIZER_INTERESTING_ORDERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"

namespace pinum {

/// An interesting-order combination: one entry per query table position;
/// an invalid ColumnRef denotes Φ (no interesting order for that table).
using Ioc = std::vector<ColumnRef>;

/// The interesting orders of each table in the query: columns appearing
/// in join, group-by, or order-by clauses (Section II, definition 2),
/// indexed by query-local table position.
std::vector<std::vector<ColumnRef>> PerTableInterestingOrders(
    const Query& query);

/// Number of interesting-order combinations: prod over tables of
/// (1 + number of interesting orders) — e.g. 648 for TPC-H Q5 (Sec. IV).
uint64_t CountIocs(const std::vector<std::vector<ColumnRef>>& orders);

/// Odometer-style enumerator over all IOCs of a query.
class IocEnumerator {
 public:
  explicit IocEnumerator(std::vector<std::vector<ColumnRef>> per_table);

  /// Advances to the next combination; returns false when exhausted.
  /// The first call yields the all-Φ combination.
  bool Next(Ioc* out);

  /// Resets to the beginning.
  void Reset();

 private:
  std::vector<std::vector<ColumnRef>> per_table_;
  std::vector<size_t> digits_;  // 0 = Φ, k = per_table_[t][k-1]
  bool done_ = false;
  bool started_ = false;
};

/// Human-readable IOC rendering, e.g. "(A, Φ, C)".
std::string IocToString(const Ioc& ioc, const Catalog& catalog);

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_INTERESTING_ORDERS_H_
