#include "inum/cache.h"

#include <algorithm>
#include <string>

namespace pinum {

std::string CachedPlan::RequirementKey() const {
  std::string key;
  key.reserve(slots.size() * 16);
  for (const auto& s : slots) {
    key += std::to_string(s.table_pos);
    key += ':';
    switch (s.req) {
      case LeafReqKind::kUnordered:
        key += 'u';
        break;
      case LeafReqKind::kOrdered:
        key += 'o';
        key += std::to_string(s.column.table);
        key += '.';
        key += std::to_string(s.column.column);
        break;
      case LeafReqKind::kProbe:
        key += 'p';
        key += std::to_string(s.column.table);
        key += '.';
        key += std::to_string(s.column.column);
        key += 'x';
        key += std::to_string(static_cast<int64_t>(s.multiplier));
        break;
    }
    key += ';';
  }
  return key;
}

void InumCache::AddPlan(const Path& plan, const Catalog& catalog,
                        bool top_order_matters) {
  CachedPlan cached;
  cached.internal_cost = plan.cost.total - plan.LeafCostSum();
  cached.slots = plan.leaves;
  std::sort(cached.slots.begin(), cached.slots.end(),
            [](const LeafSlot& a, const LeafSlot& b) {
              return a.table_pos < b.table_pos;
            });
  // Requirement relaxation: an ordered leaf whose order nothing consumes
  // can be served by any access path without changing the internal cost.
  const std::vector<int> load_bearing =
      LoadBearingOrderLeaves(plan, top_order_matters);
  for (auto& s : cached.slots) {
    if (s.req == LeafReqKind::kOrdered &&
        !std::binary_search(load_bearing.begin(), load_bearing.end(),
                            s.table_pos)) {
      s.req = LeafReqKind::kUnordered;
      s.column = ColumnRef{};
    }
  }
  for (const auto& s : cached.slots) {
    if (s.req == LeafReqKind::kProbe) cached.has_nlj = true;
  }
  cached.signature = plan.Signature(catalog);
  const std::string key = cached.RequirementKey();
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    CachedPlan& existing = plans_[it->second];
    if (cached.internal_cost < existing.internal_cost) {
      if (existing.signature != cached.signature) {
        auto sig = sig_counts_.find(existing.signature);
        if (sig != sig_counts_.end() && --sig->second == 0) {
          sig_counts_.erase(sig);
        }
        ++sig_counts_[cached.signature];
      }
      existing = std::move(cached);
    }
    return;
  }
  by_key_[key] = plans_.size();
  ++sig_counts_[cached.signature];
  plans_.push_back(std::move(cached));
}

double InumCache::PlanCost(const CachedPlan& plan,
                           const IndexConfig& config) const {
  double cost = plan.internal_cost;
  for (const auto& s : plan.slots) {
    double ac = 0;
    switch (s.req) {
      case LeafReqKind::kUnordered:
        ac = access_.Unordered(s.table_pos, config);
        break;
      case LeafReqKind::kOrdered:
        ac = access_.Ordered(s.table_pos, s.column, config);
        break;
      case LeafReqKind::kProbe:
        ac = access_.Probe(s.table_pos, s.column, config);
        break;
    }
    if (IsInfinite(ac)) return kInfiniteCost;
    cost += s.multiplier * ac;
  }
  return cost;
}

double InumCache::Cost(const IndexConfig& config) const {
  double best = kInfiniteCost;
  for (const auto& plan : plans_) {
    best = std::min(best, PlanCost(plan, config));
  }
  return best;
}

const CachedPlan* InumCache::BestPlan(const IndexConfig& config) const {
  const CachedPlan* best = nullptr;
  double best_cost = kInfiniteCost;
  for (const auto& plan : plans_) {
    const double c = PlanCost(plan, config);
    if (c < best_cost) {
      best_cost = c;
      best = &plan;
    }
  }
  return best;
}

}  // namespace pinum
