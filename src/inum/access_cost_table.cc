#include "inum/access_cost_table.h"

#include <algorithm>

namespace pinum {

void AccessCostTable::Absorb(const TableAccessInfo& info) {
  if (info.pos < 0) return;
  if (static_cast<size_t>(info.pos) >= tables_.size()) {
    tables_.resize(static_cast<size_t>(info.pos) + 1);
  }
  PerTable& t = tables_[static_cast<size_t>(info.pos)];
  for (const ScanOption& opt : info.options) {
    if (opt.index == kInvalidIndexId) {
      t.heap_cost = std::min(t.heap_cost, opt.cost.total);
      continue;
    }
    IndexAccessCosts& c = t.by_index[opt.index];
    c.index = opt.index;
    c.scan_cost = std::min(c.scan_cost, opt.cost.total);
    if (!opt.order.empty()) {
      // Minimize per delivered order column: an index whose scan options
      // deliver different orders must not advertise one column's cheapest
      // cost under another column.
      const ColumnRef lead = opt.order.Leading();
      auto it = std::find_if(c.ordered.begin(), c.ordered.end(),
                             [&](const IndexAccessCosts::OrderedCost& o) {
                               return o.column == lead;
                             });
      if (it == c.ordered.end()) {
        c.ordered.push_back({lead, opt.cost.total});
      } else {
        it->cost = std::min(it->cost, opt.cost.total);
      }
    }
  }
  for (const ProbeOption& probe : info.probes) {
    IndexAccessCosts& c = t.by_index[probe.index];
    c.index = probe.index;
    if (probe.cost_per_probe.total < c.probe_cost) {
      c.probe_cost = probe.cost_per_probe.total;
      c.probe_rows = probe.rows_per_probe;
      c.probe_column = probe.column;
    }
  }
}

double AccessCostTable::HeapCost(int pos) const {
  if (pos < 0 || static_cast<size_t>(pos) >= tables_.size()) {
    return kInfiniteCost;
  }
  return tables_[static_cast<size_t>(pos)].heap_cost;
}

double AccessCostTable::Unordered(int pos, const IndexConfig& config) const {
  if (pos < 0 || static_cast<size_t>(pos) >= tables_.size()) {
    return kInfiniteCost;
  }
  const PerTable& t = tables_[static_cast<size_t>(pos)];
  double best = t.heap_cost;
  for (IndexId id : config) {
    auto it = t.by_index.find(id);
    if (it != t.by_index.end()) best = std::min(best, it->second.scan_cost);
  }
  return best;
}

double AccessCostTable::Ordered(int pos, ColumnRef col,
                                const IndexConfig& config) const {
  if (pos < 0 || static_cast<size_t>(pos) >= tables_.size()) {
    return kInfiniteCost;
  }
  const PerTable& t = tables_[static_cast<size_t>(pos)];
  double best = kInfiniteCost;
  for (IndexId id : config) {
    auto it = t.by_index.find(id);
    if (it != t.by_index.end()) {
      best = std::min(best, it->second.OrderedCostFor(col));
    }
  }
  return best;
}

double AccessCostTable::Probe(int pos, ColumnRef col,
                              const IndexConfig& config) const {
  if (pos < 0 || static_cast<size_t>(pos) >= tables_.size()) {
    return kInfiniteCost;
  }
  const PerTable& t = tables_[static_cast<size_t>(pos)];
  double best = kInfiniteCost;
  for (IndexId id : config) {
    auto it = t.by_index.find(id);
    if (it != t.by_index.end() && it->second.probe_column == col) {
      best = std::min(best, it->second.probe_cost);
    }
  }
  return best;
}

}  // namespace pinum
