// Plan/path representation produced by the planner and consumed by the
// executor, the INUM cache harvester, and EXPLAIN-style printing.
#ifndef PINUM_OPTIMIZER_PATH_H_
#define PINUM_OPTIMIZER_PATH_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/bitset64.h"
#include "optimizer/cost_model.h"
#include "optimizer/order_spec.h"
#include "query/query.h"

namespace pinum {

/// Plan operator kinds.
enum class PathKind {
  kSeqScan,
  kIndexScan,
  kIndexProbe,  ///< parameterized inner side of an index nested-loop join
  kNestLoop,
  kHashJoin,
  kMergeJoin,
  kSort,
  kHashAgg,
  kGroupAgg,
};

const char* PathKindName(PathKind k);

/// The kind of access a cached plan requires from one of its leaves —
/// the quantity INUM's cost derivation re-prices per configuration.
enum class LeafReqKind {
  kUnordered,  ///< any access path on the table will do
  kOrdered,    ///< access must deliver the interesting order `column`
  kProbe,      ///< access must support equality probes on `column`
};

/// Per-base-table leaf slot of a plan. A plan's cost is
///   internal + sum over leaves of (multiplier x unit access cost)
/// which is INUM's linear cost decomposition (paper, Section II).
struct LeafSlot {
  int table_pos = -1;
  TableId table = kInvalidTableId;
  LeafReqKind req = LeafReqKind::kUnordered;
  /// The interesting-order / probe column (invalid when kUnordered).
  ColumnRef column;
  /// Number of times the leaf is executed (NLJ inner rescans).
  double multiplier = 1.0;
  /// Access cost charged per execution at plan-build time.
  double unit_cost = 0;
  /// Rows the leaf produces per execution.
  double rows = 1.0;
  /// Index used at build time; kInvalidIndexId = heap scan.
  IndexId index_used = kInvalidIndexId;
  bool index_only = false;
};

/// One path (sub-plan). Paths form trees via shared ownership; the
/// planner may share subtrees between alternatives.
struct Path {
  PathKind kind;
  RelSet rels;
  double rows = 0;
  double width = 8;
  Cost cost;
  /// Delivered output order.
  OrderSpec order;

  // ---- Scans / probes ----
  TableId table = kInvalidTableId;
  int table_pos = -1;
  IndexId index = kInvalidIndexId;
  bool index_only = false;
  /// Fraction of the index traversed (boundary quals on leading column).
  double sel_index = 1.0;
  /// Probe column for kIndexProbe.
  ColumnRef probe_column;

  // ---- Joins (outer/inner) and unary nodes (child = outer) ----
  std::shared_ptr<Path> outer;
  std::shared_ptr<Path> inner;
  std::vector<JoinPredicate> join_preds;

  // ---- Aggregation ----
  std::vector<ColumnRef> group_columns;

  /// Leaf decomposition for the INUM cache (see LeafSlot).
  std::vector<LeafSlot> leaves;

  /// Configuration-independent cost (cost.total - LeafCostSum()), cached
  /// by the join planner for the Section V-D dominance comparisons.
  double internal_cost = 0;

  /// Export-mode join planner scratch: interned id of the leaf
  /// requirements, equal for paths whose requirements are equal.
  uint32_t requirement_set = 0;

  /// Total access cost charged to leaves; internal cost is
  /// cost.total - LeafCostSum().
  double LeafCostSum() const {
    double sum = 0;
    for (const auto& l : leaves) sum += l.multiplier * l.unit_cost;
    return sum;
  }

  /// Canonical key of (delivered order, leaf requirements): paths sharing
  /// a key are interchangeable up to internal cost under re-pricing.
  std::string RequirementOrderKey() const;

  /// EXPLAIN-style rendering.
  std::string Explain(const Catalog& catalog, int indent = 0) const;

  /// Canonical one-line structure signature (used to count unique plans
  /// in the Section IV redundancy analysis).
  std::string Signature(const Catalog& catalog) const;
};

using PathPtr = std::shared_ptr<Path>;

/// Pointwise leaf-requirement comparison: true when `a` requires no more
/// from every leaf than `b` does (Section V-D's S_A subset-of S_B).
bool LeafReqsSubsumedBy(const Path& a, const Path& b);

/// The leaf (table position) whose delivered order `p` passes through to
/// its output, or -1 when the output order is unordered / produced by a
/// Sort enforcer rather than a leaf access path.
int OrderSourceLeaf(const Path& p);

/// Table positions whose leaf *order* the plan actually consumes: inputs
/// of merge joins, inputs of streaming (group) aggregation, and — when
/// `top_order_matters` — the leaf feeding the plan's delivered ORDER BY.
/// Ordered leaves outside this set can be replaced by any access path
/// without changing the internal cost; the INUM harvester downgrades them
/// to unordered requirements for maximal plan reuse.
std::vector<int> LoadBearingOrderLeaves(const Path& p,
                                        bool top_order_matters);

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_PATH_H_
