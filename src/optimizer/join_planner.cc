#include "optimizer/join_planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

namespace pinum {

namespace {

/// The join planner only needs single-column sorts (interesting orders
/// are truncated to their leading column), so "delivers `col` order" is
/// "leads with `col`" — OrderSpec::Satisfies(Single(col)) without
/// building the Single.
bool LeadsWith(const OrderSpec& order, ColumnRef col) {
  return !order.empty() && order.columns[0] == col;
}

/// Merges two position-sorted leaf vectors, preserving the order.
std::vector<LeafSlot> MergeLeaves(std::span<const LeafSlot> a,
                                  std::span<const LeafSlot> b) {
  std::vector<LeafSlot> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             [](const LeafSlot& x, const LeafSlot& y) {
               return x.table_pos < y.table_pos;
             });
  return out;
}

/// LeafCostSum() of MergeLeaves(a, b), summed in the same order so the
/// rounding matches.
double MergedLeafCostSum(std::span<const LeafSlot> a,
                         std::span<const LeafSlot> b) {
  double sum = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_b =
        i == a.size() || (j < b.size() && b[j].table_pos < a[i].table_pos);
    const LeafSlot& l = take_b ? b[j++] : a[i++];
    sum += l.multiplier * l.unit_cost;
  }
  return sum;
}

void SetInternalCost(Path* p) {
  p->internal_cost = p->cost.total - p->LeafCostSum();
}

/// Standard add_path dominance over (total, startup, order).
bool CostOrderDominates(const Cost& a, const OrderSpec& a_order,
                        const Cost& b, const OrderSpec& b_order) {
  if (a.total > b.total + kCostFuzz) return false;
  if (a.startup > b.startup + kCostFuzz) return false;
  return a_order.Satisfies(b_order);
}

}  // namespace

bool PathDominates(const Path& a, const Path& b,
                   bool preserve_ioc_diversity) {
  if (preserve_ioc_diversity) {
    // Section V-D dominance, strengthened to be provably safe under
    // re-pricing: compare *internal* costs (total minus leaf access
    // costs). If a's internal cost is no larger, a requires no more from
    // any leaf (S_A subset of S_B pointwise), and a delivers a covering
    // order, then for every index configuration C
    //   cost_C(a) = internal(a) + sum AC_C(reqs_a)
    //             <= internal(b) + sum AC_C(reqs_b) = cost_C(b),
    // because an unordered requirement is priced as the minimum over all
    // access paths. Hence b can never be the per-configuration optimum.
    if (a.internal_cost > b.internal_cost + kCostFuzz) return false;
    if (!a.order.Satisfies(b.order)) return false;
    return LeafReqsSubsumedBy(a, b);
  }
  // Standard PostgreSQL add_path semantics.
  return CostOrderDominates(a.cost, a.order, b.cost, b.order);
}

void AddPath(std::vector<PathPtr>* paths, PathPtr path,
             bool preserve_ioc_diversity) {
  SetInternalCost(path.get());
  for (auto it = paths->begin(); it != paths->end();) {
    if (PathDominates(**it, *path, preserve_ioc_diversity)) return;
    if (PathDominates(*path, **it, preserve_ioc_diversity)) {
      it = paths->erase(it);
    } else {
      ++it;
    }
  }
  paths->push_back(std::move(path));
}

bool AddPathRejects(const std::vector<PathPtr>& paths, const Cost& cost,
                    const OrderSpec& order) {
  // AddPath's walk, stopped at its first effect: a dominator met first
  // drops the newcomer with `paths` untouched; a path the newcomer
  // dominates met first is erased even if a later path then rejects it.
  for (const PathPtr& p : paths) {
    if (CostOrderDominates(p->cost, p->order, cost, order)) return true;
    if (CostOrderDominates(cost, order, p->cost, p->order)) return false;
  }
  return false;
}

bool ReplacesSameKey(double newcomer_internal, double incumbent_internal) {
  return newcomer_internal < incumbent_internal - kCostFuzz;
}

void DominancePrune(std::vector<PathPtr>* paths) {
  std::vector<PathPtr> kept;
  kept.reserve(paths->size());
  for (size_t i = 0; i < paths->size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < paths->size() && !dominated; ++j) {
      if (j == i) continue;
      // Tie-break: identical keys cannot occur here (deduplicated by
      // key); mutual dominance would imply identical keys, so the check
      // is asymmetric in practice.
      if (PathDominates(*(*paths)[j], *(*paths)[i],
                        /*preserve_ioc_diversity=*/true)) {
        dominated = true;
      }
    }
    if (!dominated) kept.push_back((*paths)[i]);
  }
  *paths = std::move(kept);
}

uint32_t JoinPlanner::RequirementSets::Singleton(const LeafSlot& slot) {
  // Exactly the fields RequirementOrderKey() renders for a leaf.
  const int column =
      slot.req == LeafReqKind::kUnordered ? -1 : slot.column.column;
  const int64_t times = slot.req == LeafReqKind::kProbe
                            ? static_cast<int64_t>(slot.multiplier)
                            : 0;
  const std::tuple<int, int, int, int64_t> key{
      slot.table_pos, static_cast<int>(slot.req), column, times};
  const auto it =
      slots_.try_emplace(key, static_cast<uint32_t>(slots_.size())).first;
  return Cons(slot.table_pos, it->second, 0);
}

uint32_t JoinPlanner::RequirementSets::Union(uint32_t a, uint32_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  // Copies: the recursion may grow nodes_.
  const Node x = nodes_[a];
  const Node y = nodes_[b];
  return x.pos < y.pos ? Cons(x.pos, x.slot, Union(x.rest, b))
                       : Cons(y.pos, y.slot, Union(a, y.rest));
}

uint32_t JoinPlanner::RequirementSets::Cons(int pos, uint32_t slot,
                                            uint32_t rest) {
  // A slot id already encodes its table position.
  const auto [it, inserted] = conses_.try_emplace(
      uint64_t{slot} << 32 | rest, static_cast<uint32_t>(nodes_.size()));
  if (inserted) nodes_.push_back({pos, slot, rest});
  return it->second;
}

uint32_t JoinPlanner::OrderCode(const OrderSpec& order) {
  if (order.empty()) return 0;
  const ColumnRef lead = order.Leading();
  const auto it =
      std::find(order_columns_.begin(), order_columns_.end(), lead);
  if (it != order_columns_.end()) {
    return static_cast<uint32_t>(it - order_columns_.begin()) + 1;
  }
  order_columns_.push_back(lead);
  return static_cast<uint32_t>(order_columns_.size());
}

JoinPlanner::Admission JoinPlanner::Admit(const Cell& cell, const Cost& cost,
                                          const OrderSpec& order,
                                          double leaf_cost,
                                          uint32_t requirement_set) {
  ++paths_considered_;
  Admission admission;
  if (!ctx_->knobs.hooks.export_all_plans) {
    admission.keep = !AddPathRejects(cell.paths, cost, order);
    return admission;
  }
  // Export mode: one path per (order, requirements) key, keeping the
  // smallest internal cost. Cross-key dominance pruning runs once per
  // completed cell (FinalizeCell).
  admission.internal_cost = cost.total - leaf_cost;
  admission.requirement_set = requirement_set;
  admission.key = uint64_t{OrderCode(order)} << 32 | requirement_set;
  const auto it = cell_keys_.find(admission.key);
  if (it == cell_keys_.end()) {
    admission.keep = true;
  } else if (ReplacesSameKey(admission.internal_cost,
                             cell.paths[it->second]->internal_cost)) {
    admission.keep = true;
    admission.replace = it->second;
  }
  return admission;
}

void JoinPlanner::Insert(Cell* cell, const Admission& admission,
                         PathPtr path) {
  if (!ctx_->knobs.hooks.export_all_plans) {
    AddPath(&cell->paths, std::move(path), /*preserve_ioc_diversity=*/false);
    return;
  }
  path->internal_cost = admission.internal_cost;
  path->requirement_set = admission.requirement_set;
  if (admission.replace == Admission::kAppend) {
    cell_keys_.emplace(admission.key, cell->paths.size());
    cell->paths.push_back(std::move(path));
  } else {
    cell->paths[admission.replace] = std::move(path);
  }
}

void JoinPlanner::FinalizeCell(Cell* cell) {
  if (!ctx_->knobs.hooks.export_all_plans) return;
  if (!ctx_->knobs.hooks.disable_dominance_pruning) {
    DominancePrune(&cell->paths);
  }
  cell_keys_.clear();
}

JoinPlanner::Cell JoinPlanner::MakeBaseCell(int pos) {
  const TableAccessInfo& info = ctx_->rels[static_cast<size_t>(pos)];
  const bool export_mode = ctx_->knobs.hooks.export_all_plans;
  Cell cell;
  cell.rows = info.filtered_rows;
  cell.width = info.needed_width;
  for (const ScanOption& opt : info.options) {
    LeafSlot slot;
    slot.table_pos = pos;
    slot.table = info.table;
    slot.req = opt.order.empty() ? LeafReqKind::kUnordered
                                 : LeafReqKind::kOrdered;
    slot.column = opt.order.Leading();
    slot.multiplier = 1.0;
    slot.unit_cost = opt.cost.total;
    slot.rows = opt.rows;
    slot.index_used = opt.index;
    slot.index_only = opt.index_only;
    const std::span<const LeafSlot> leaf(&slot, 1);
    const Admission admission =
        Admit(cell, opt.cost, opt.order,
              export_mode ? MergedLeafCostSum(leaf, {}) : 0,
              export_mode ? requirement_sets_.Singleton(slot) : 0);
    if (!admission.keep) continue;
    auto p = std::make_shared<Path>();
    p->kind = opt.index == kInvalidIndexId ? PathKind::kSeqScan
                                           : PathKind::kIndexScan;
    p->rels = RelSet::Single(pos);
    p->rows = opt.rows;
    p->width = info.needed_width;
    p->cost = opt.cost;
    p->order = opt.order;
    p->table = info.table;
    p->table_pos = pos;
    p->index = opt.index;
    p->index_only = opt.index_only;
    p->sel_index = opt.sel_index;
    p->leaves = {slot};
    Insert(&cell, admission, std::move(p));
  }
  FinalizeCell(&cell);
  return cell;
}

Cost JoinPlanner::SortedCost(const Path& path, ColumnRef col) const {
  if (LeadsWith(path.order, col)) return path.cost;
  const Cost sc = ctx_->model.Sort(path.rows, path.width);
  return {path.cost.total + sc.startup, path.cost.total + sc.total};
}

PathPtr JoinPlanner::EnsureSorted(const PathPtr& path, ColumnRef col) const {
  if (LeadsWith(path->order, col)) return path;
  auto sort = std::make_shared<Path>();
  sort->kind = PathKind::kSort;
  sort->rels = path->rels;
  sort->rows = path->rows;
  sort->width = path->width;
  sort->cost = SortedCost(*path, col);
  sort->order = OrderSpec::Single(col);
  sort->outer = path;
  sort->leaves = path->leaves;
  sort->requirement_set = path->requirement_set;
  return sort;
}

void JoinPlanner::MakeJoins(Cell* cell, RelSet s, const Cell& outer_cell,
                            RelSet a, const Cell& inner_cell, RelSet b) {
  // Join predicates connecting the two sides.
  std::vector<const JoinPredInfo*> connecting;
  for (const auto& p : ctx_->preds) {
    if (p.Connects(a, b)) connecting.push_back(&p);
  }
  if (connecting.empty()) return;  // no cross products

  const double rows_out = cell->rows;
  const CostModel& model = ctx_->model;
  const PlannerKnobs& knobs = ctx_->knobs;
  const bool export_mode = knobs.hooks.export_all_plans;
  const OrderSpec unordered = OrderSpec::None();

  // Builds a kept join alternative; everything it copies was priced
  // first.
  const auto make_join = [&](PathKind kind, const Cost& cost,
                             const OrderSpec& order, PathPtr outer,
                             PathPtr inner, const JoinPredicate& pred,
                             std::vector<LeafSlot> leaves) {
    auto p = std::make_shared<Path>();
    p->kind = kind;
    p->rels = s;
    p->rows = rows_out;
    p->width = cell->width;
    p->cost = cost;
    p->order = order;
    p->outer = std::move(outer);
    p->inner = std::move(inner);
    p->join_preds.push_back(pred);
    p->leaves = std::move(leaves);
    return p;
  };

  for (const PathPtr& pa : outer_cell.paths) {
    for (const PathPtr& pb : inner_cell.paths) {
      // Hash, merge and materialized nested-loop joins all keep both
      // children's leaves, so they share the leaf cost and requirements.
      const double both_leaf_cost =
          export_mode ? MergedLeafCostSum(pa->leaves, pb->leaves) : 0;
      const uint32_t both_reqs =
          export_mode ? requirement_sets_.Union(pa->requirement_set,
                                                pb->requirement_set)
                      : 0;

      // ---- Hash join ----
      if (knobs.enable_hashjoin) {
        const Cost jc = model.HashJoin(pa->rows, pb->rows, pb->width,
                                       pa->width, rows_out);
        Cost cost;
        cost.startup = pb->cost.total + jc.startup;
        cost.total = pa->cost.total + pb->cost.total + jc.total;
        const Admission admission =
            Admit(*cell, cost, unordered, both_leaf_cost, both_reqs);
        if (admission.keep) {
          Insert(cell, admission,
                 make_join(PathKind::kHashJoin, cost, unordered, pa, pb,
                           connecting[0]->pred,
                           MergeLeaves(pa->leaves, pb->leaves)));
        }
      }

      // ---- Merge join (one per connecting predicate) ----
      if (knobs.enable_mergejoin) {
        for (const JoinPredInfo* jp : connecting) {
          const ColumnRef outer_col = a.Contains(jp->left_pos)
                                          ? jp->pred.left
                                          : jp->pred.right;
          const ColumnRef inner_col = a.Contains(jp->left_pos)
                                          ? jp->pred.right
                                          : jp->pred.left;
          const Cost so = SortedCost(*pa, outer_col);
          const Cost si = SortedCost(*pb, inner_col);
          const Cost jc = model.MergeJoin(pa->rows, pb->rows, rows_out);
          Cost cost;
          cost.startup = so.startup + si.startup + jc.startup;
          cost.total = so.total + si.total + jc.total;
          // Merge preserves the (possibly Sort-delivered) outer order.
          const OrderSpec* order = &pa->order;
          if (!LeadsWith(pa->order, outer_col)) {
            sort_order_.columns.assign(1, outer_col);
            order = &sort_order_;
          }
          const Admission admission =
              Admit(*cell, cost, *order, both_leaf_cost, both_reqs);
          if (admission.keep) {
            Insert(cell, admission,
                   make_join(PathKind::kMergeJoin, cost, *order,
                             EnsureSorted(pa, outer_col),
                             EnsureSorted(pb, inner_col), jp->pred,
                             MergeLeaves(pa->leaves, pb->leaves)));
          }
        }
      }

      // ---- Nested-loop joins ----
      if (!knobs.enable_nestloop) continue;

      // (a) Index nested loop: single-relation inner probed through an
      // index on the join column.
      if (b.Count() == 1) {
        const int inner_pos = b.Lowest();
        const TableAccessInfo& inner_info =
            ctx_->rels[static_cast<size_t>(inner_pos)];
        for (const JoinPredInfo* jp : connecting) {
          const ColumnRef inner_col =
              jp->pred.left.table == inner_info.table ? jp->pred.left
                                                      : jp->pred.right;
          for (const ProbeOption& probe : inner_info.probes) {
            if (!(probe.column == inner_col)) continue;
            LeafSlot slot;
            slot.table_pos = inner_pos;
            slot.table = inner_info.table;
            slot.req = LeafReqKind::kProbe;
            slot.column = probe.column;
            slot.multiplier = pa->rows;
            slot.unit_cost = probe.cost_per_probe.total;
            slot.rows = probe.rows_per_probe;
            slot.index_used = probe.index;
            slot.index_only = probe.index_only;
            const std::span<const LeafSlot> probe_leaf(&slot, 1);
            Cost cost;
            cost.startup = pa->cost.startup;
            cost.total = pa->cost.total +
                         pa->rows * probe.cost_per_probe.total +
                         model.OutputCost(rows_out);
            // NLJ preserves the outer order.
            const Admission admission = Admit(
                *cell, cost, pa->order,
                export_mode ? MergedLeafCostSum(pa->leaves, probe_leaf) : 0,
                export_mode
                    ? requirement_sets_.Union(pa->requirement_set,
                                              requirement_sets_.Singleton(slot))
                    : 0);
            if (!admission.keep) continue;
            auto ip = std::make_shared<Path>();
            ip->kind = PathKind::kIndexProbe;
            ip->rels = b;
            ip->rows = probe.rows_per_probe;
            ip->width = inner_info.needed_width;
            ip->cost = probe.cost_per_probe;
            ip->table = inner_info.table;
            ip->table_pos = inner_pos;
            ip->index = probe.index;
            ip->index_only = probe.index_only;
            ip->probe_column = probe.column;
            Insert(cell, admission,
                   make_join(PathKind::kNestLoop, cost, pa->order, pa,
                             std::move(ip), jp->pred,
                             MergeLeaves(pa->leaves, probe_leaf)));
          }
        }
      }

      // (b) Nested loop over a materialized inner.
      {
        const double rescans = std::max(0.0, pa->rows - 1.0);
        const Cost mat = model.Material(pb->rows, pb->width);
        const double rescan_cost =
            model.RescanMaterialCost(pb->rows, pb->width);
        Cost cost;
        cost.startup = pa->cost.startup;
        cost.total =
            pa->cost.total + pb->cost.total + mat.total +
            rescans * rescan_cost +
            pa->rows * pb->rows * model.params().cpu_operator_cost +
            model.OutputCost(rows_out);
        const Admission admission =
            Admit(*cell, cost, pa->order, both_leaf_cost, both_reqs);
        if (admission.keep) {
          Insert(cell, admission,
                 make_join(PathKind::kNestLoop, cost, pa->order, pa, pb,
                           connecting[0]->pred,
                           MergeLeaves(pa->leaves, pb->leaves)));
        }
      }
    }
  }
}

StatusOr<std::vector<PathPtr>> JoinPlanner::Run() {
  const int n = ctx_->NumRels();
  if (n > kMaxJoinRels) {
    return Status::InvalidArgument("too many tables to join (max " +
                                   std::to_string(kMaxJoinRels) + ")");
  }
  cells_.assign(size_t{1} << n, Cell{});
  for (int pos = 0; pos < n; ++pos) {
    cells_[RelSet::Single(pos).bits()] = MakeBaseCell(pos);
  }
  if (n == 1) return cells_[RelSet::Single(0).bits()].paths;

  const uint64_t full = RelSet::FirstN(n).bits();
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (std::popcount(mask) < 2) continue;
    const RelSet s(mask);
    Cell& cell = cells_[mask];
    cell.rows = ctx_->RowsOfSet(s);
    cell.width = ctx_->WidthOfSet(s);
    // Enumerate partitions; fixing the lowest bit in `a` halves the
    // enumeration, and MakeJoins is called for both role assignments.
    const uint64_t lowest = mask & (~mask + 1);
    for (uint64_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      if ((sub & lowest) == 0) continue;
      const uint64_t other = mask ^ sub;
      if (other == 0) continue;
      const Cell& cell_a = cells_[sub];
      const Cell& cell_b = cells_[other];
      if (cell_a.paths.empty() || cell_b.paths.empty()) continue;
      MakeJoins(&cell, s, cell_a, RelSet(sub), cell_b, RelSet(other));
      MakeJoins(&cell, s, cell_b, RelSet(other), cell_a, RelSet(sub));
    }
    if (!cell.paths.empty()) FinalizeCell(&cell);
  }
  if (cells_[full].paths.empty()) {
    return Status::InvalidArgument(
        "query's join graph is disconnected (cross products unsupported)");
  }
  return cells_[full].paths;
}

}  // namespace pinum
