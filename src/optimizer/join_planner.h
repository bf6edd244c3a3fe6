// System-R / PostgreSQL style dynamic-programming join planner
// (the Join Planner box of Figure 2).
//
// Two pruning regimes:
//  - standard: PostgreSQL add_path semantics — keep the Pareto set over
//    (total cost, startup cost, delivered order);
//  - export (PINUM's Section V-D): keep one minimum-internal-cost path
//    per (delivered order, leaf-requirement) key, then apply the
//    dominance rule "if S_A is a (pointwise) subset of S_B and A's
//    internal cost is no larger, drop B" when a cell completes.
//
// Price before allocating: every join alternative is first priced from
// its children alone — cost, delivered order, internal cost (summed over
// the merged leaves in position order, exactly as Path::LeafCostSum
// would) and, in export mode, an interned integer (order, requirement)
// key. Only an alternative the cell would keep becomes a Path, with its
// Sort enforcers and merged leaf vector; most offered alternatives are
// rejected without touching the heap. The kept set, its order within a
// cell, and paths_considered are exactly those of allocating every
// alternative and offering it to add_path. In standard mode that needs
// care because kCostFuzz makes dominance non-transitive: a newcomer is
// dropped unbuilt only when a dominator precedes every path it would
// evict (AddPathRejects); otherwise the full AddPath walk runs.
#ifndef PINUM_OPTIMIZER_JOIN_PLANNER_H_
#define PINUM_OPTIMIZER_JOIN_PLANNER_H_

#include <cstdint>
#include <map>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "optimizer/path.h"
#include "optimizer/planner_context.h"

namespace pinum {

/// Slack under which two costs count as equal in dominance tests.
inline constexpr double kCostFuzz = 1e-9;

/// Adds `path` to `paths` under add_path pruning semantics (see above).
/// Exposed for the grouping planner, which finalizes plan lists the same
/// way.
void AddPath(std::vector<PathPtr>* paths, PathPtr path,
             bool preserve_ioc_diversity);

/// Standard-mode precheck: true when AddPath would drop a newcomer with
/// `cost` and `order` and leave `paths` unchanged — some path dominates
/// it before any path it dominates. False means AddPath must run, even
/// though it may still reject the newcomer after evicting earlier paths.
bool AddPathRejects(const std::vector<PathPtr>& paths, const Cost& cost,
                    const OrderSpec& order);

/// Export-mode rule for a newcomer whose (order, requirement) key is
/// already taken: it replaces the incumbent only when its internal cost
/// is lower by more than kCostFuzz.
bool ReplacesSameKey(double newcomer_internal, double incumbent_internal);

/// True if `a` dominates `b` under the active mode's rule.
bool PathDominates(const Path& a, const Path& b, bool preserve_ioc_diversity);

/// Removes every path dominated by another (export-mode rule); used once
/// per completed DP cell and on the finalized plan list.
void DominancePrune(std::vector<PathPtr>* paths);

/// Bottom-up join enumeration over connected subsets.
class JoinPlanner {
 public:
  /// Largest FROM list Run() plans. The DP memo is a flat 2^n vector and
  /// the partition enumeration takes ~3^n steps, so larger joins are
  /// rejected up front instead of exhausting memory or time.
  static constexpr int kMaxJoinRels = 20;

  explicit JoinPlanner(const PlannerContext* ctx) : ctx_(ctx) {}

  /// Returns the top-level path list (all tables joined). With the
  /// export_all_plans hook, the list holds one optimal plan per useful
  /// interesting-order combination; otherwise it is the usual small
  /// Pareto set over (cost, order). kInvalidArgument for a disconnected
  /// join graph or more than kMaxJoinRels tables.
  StatusOr<std::vector<PathPtr>> Run();

  /// Number of paths offered to the planner (a planning-effort proxy),
  /// built or not.
  int64_t paths_considered() const { return paths_considered_; }

 private:
  struct Cell {
    double rows = 0;
    double width = 0;
    std::vector<PathPtr> paths;
  };

  /// Export mode: interns leaf-requirement sets so equal sets get equal
  /// ids. A set is a position-sorted list hash-consed as (first slot,
  /// rest), so a join alternative's set is the merge of its children's
  /// lists: one lookup per table, no string built.
  class RequirementSets {
   public:
    /// The set holding only `slot`.
    uint32_t Singleton(const LeafSlot& slot);
    /// The union of two sets over disjoint table positions.
    uint32_t Union(uint32_t a, uint32_t b);

   private:
    struct Node {
      int pos;
      uint32_t slot;
      uint32_t rest;
    };
    uint32_t Cons(int pos, uint32_t slot, uint32_t rest);

    /// Id 0 is the empty set.
    std::vector<Node> nodes_ = {Node{-1, 0, 0}};
    /// (table_pos, requirement kind, column, probe multiplier) -> slot id.
    std::map<std::tuple<int, int, int, int64_t>, uint32_t> slots_;
    /// (slot, rest) -> set id.
    std::unordered_map<uint64_t, uint32_t> conses_;
  };

  /// An offered path's fate, decided from its price before it exists.
  struct Admission {
    static constexpr size_t kAppend = SIZE_MAX;
    bool keep = false;
    /// Export mode: the same-key path it replaces, or kAppend.
    size_t replace = kAppend;
    uint64_t key = 0;
    double internal_cost = 0;
    uint32_t requirement_set = 0;
  };

  /// Builds the single-relation cell for table position `pos`.
  Cell MakeBaseCell(int pos);

  /// Generates join paths for target set `s` from the (outer=a, inner=b)
  /// partition and adds them to `cell`.
  void MakeJoins(Cell* cell, RelSet s, const Cell& outer_cell, RelSet a,
                 const Cell& inner_cell, RelSet b);

  /// Returns `path` if it already delivers `col` order, else a Sort.
  PathPtr EnsureSorted(const PathPtr& path, ColumnRef col) const;

  /// Cost of EnsureSorted(path, col), without building the Sort.
  Cost SortedCost(const Path& path, ColumnRef col) const;

  /// Counts one offered path and decides whether `cell` keeps it.
  /// `leaf_cost` is the path's LeafCostSum(); `requirement_set` is only
  /// read in export mode.
  Admission Admit(const Cell& cell, const Cost& cost, const OrderSpec& order,
                  double leaf_cost, uint32_t requirement_set);

  /// Stores a path that Admit kept.
  void Insert(Cell* cell, const Admission& admission, PathPtr path);

  /// Export mode: cross-key dominance prune once the cell is complete.
  void FinalizeCell(Cell* cell);

  /// Export-mode order half of the key: 0 when unordered, else a
  /// per-planner id of the leading column.
  uint32_t OrderCode(const OrderSpec& order);

  const PlannerContext* ctx_;
  /// DP memo indexed by RelSet bits; empty `paths` = no plan.
  std::vector<Cell> cells_;
  int64_t paths_considered_ = 0;
  /// Export mode: key -> index into the cell under construction's paths.
  std::unordered_map<uint64_t, size_t> cell_keys_;
  RequirementSets requirement_sets_;
  std::vector<ColumnRef> order_columns_;
  /// Reused storage for a merge join's Sort-delivered order.
  OrderSpec sort_order_;
};

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_JOIN_PLANNER_H_
