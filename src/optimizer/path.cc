#include "optimizer/path.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace pinum {

const char* PathKindName(PathKind k) {
  switch (k) {
    case PathKind::kSeqScan:
      return "SeqScan";
    case PathKind::kIndexScan:
      return "IndexScan";
    case PathKind::kIndexProbe:
      return "IndexProbe";
    case PathKind::kNestLoop:
      return "NestLoop";
    case PathKind::kHashJoin:
      return "HashJoin";
    case PathKind::kMergeJoin:
      return "MergeJoin";
    case PathKind::kSort:
      return "Sort";
    case PathKind::kHashAgg:
      return "HashAgg";
    case PathKind::kGroupAgg:
      return "GroupAgg";
  }
  return "?";
}

namespace {

std::string ColumnName(const Catalog& catalog, ColumnRef c) {
  const TableDef* t = catalog.FindTable(c.table);
  if (t == nullptr || c.column < 0 ||
      static_cast<size_t>(c.column) >= t->columns.size()) {
    return "?";
  }
  return t->name + "." + t->columns[static_cast<size_t>(c.column)].name;
}

}  // namespace

std::string Path::Explain(const Catalog& catalog, int indent) const {
  std::ostringstream out;
  out << std::string(static_cast<size_t>(indent) * 2, ' ') << PathKindName(kind);
  if (kind == PathKind::kSeqScan || kind == PathKind::kIndexScan ||
      kind == PathKind::kIndexProbe) {
    const TableDef* t = catalog.FindTable(table);
    out << " on " << (t != nullptr ? t->name : "?");
    if (index != kInvalidIndexId) {
      const IndexDef* idx = catalog.FindIndex(index);
      out << " using " << (idx != nullptr ? idx->name : "?");
      if (index_only) out << " (index-only)";
    }
    if (kind == PathKind::kIndexProbe) {
      out << " probe(" << ColumnName(catalog, probe_column) << ")";
    }
  }
  if (kind == PathKind::kSort && !order.empty()) {
    out << " by " << ColumnName(catalog, order.Leading());
  }
  if (kind == PathKind::kMergeJoin && !join_preds.empty()) {
    out << " on " << ColumnName(catalog, join_preds[0].left) << " = "
        << ColumnName(catalog, join_preds[0].right);
  }
  out << "  (rows=" << static_cast<int64_t>(rows)
      << " cost=" << cost.startup << ".." << cost.total << ")\n";
  if (outer != nullptr) out << outer->Explain(catalog, indent + 1);
  if (inner != nullptr) out << inner->Explain(catalog, indent + 1);
  return out.str();
}

std::string Path::Signature(const Catalog& catalog) const {
  std::string out = PathKindName(kind);
  switch (kind) {
    case PathKind::kSeqScan:
    case PathKind::kIndexScan:
    case PathKind::kIndexProbe: {
      const TableDef* t = catalog.FindTable(table);
      out += '(';
      out += t != nullptr ? t->name : "?";
      if (!order.empty()) {
        out += " ord:";
        out += ColumnName(catalog, order.Leading());
      }
      if (index_only) out += " io";
      out += ')';
      break;
    }
    case PathKind::kMergeJoin:
    case PathKind::kHashJoin:
    case PathKind::kNestLoop:
      out += '(';
      out += outer->Signature(catalog);
      out += ',';
      out += inner->Signature(catalog);
      out += ')';
      break;
    case PathKind::kSort:
      out += '[';
      out += ColumnName(catalog, order.Leading());
      out += "](";
      out += outer->Signature(catalog);
      out += ')';
      break;
    case PathKind::kHashAgg:
    case PathKind::kGroupAgg:
      out += '(';
      out += outer->Signature(catalog);
      out += ')';
      break;
  }
  return out;
}

std::string Path::RequirementOrderKey() const {
  std::string key;
  key.reserve(16 + leaves.size() * 12);
  if (!order.empty()) {
    const ColumnRef lead = order.Leading();
    key += std::to_string(lead.table);
    key += '.';
    key += std::to_string(lead.column);
  }
  key += '|';
  // Leaves are kept sorted by table position by construction.
  for (const auto& s : leaves) {
    switch (s.req) {
      case LeafReqKind::kUnordered:
        key += 'u';
        break;
      case LeafReqKind::kOrdered:
        key += 'o';
        key += std::to_string(s.column.column);
        break;
      case LeafReqKind::kProbe:
        key += 'p';
        key += std::to_string(s.column.column);
        key += 'x';
        key += std::to_string(static_cast<int64_t>(s.multiplier));
        break;
    }
    key += ';';
  }
  return key;
}

int OrderSourceLeaf(const Path& p) {
  switch (p.kind) {
    case PathKind::kIndexScan:
      return p.order.empty() ? -1 : p.table_pos;
    case PathKind::kSeqScan:
    case PathKind::kIndexProbe:
    case PathKind::kSort:     // order created by the enforcer, not a leaf
    case PathKind::kHashAgg:  // hashing scrambles order
    case PathKind::kHashJoin:
      return -1;
    case PathKind::kNestLoop:
    case PathKind::kMergeJoin:
    case PathKind::kGroupAgg:
      // These preserve (or rely on) the outer/child order.
      return p.outer ? OrderSourceLeaf(*p.outer) : -1;
  }
  return -1;
}

namespace {

void CollectLoadBearing(const Path& p, std::vector<int>* out) {
  if (p.kind == PathKind::kMergeJoin) {
    if (p.outer) out->push_back(OrderSourceLeaf(*p.outer));
    if (p.inner) out->push_back(OrderSourceLeaf(*p.inner));
  }
  if (p.kind == PathKind::kGroupAgg && p.outer) {
    out->push_back(OrderSourceLeaf(*p.outer));
  }
  if (p.outer) CollectLoadBearing(*p.outer, out);
  if (p.inner) CollectLoadBearing(*p.inner, out);
}

}  // namespace

std::vector<int> LoadBearingOrderLeaves(const Path& p,
                                        bool top_order_matters) {
  std::vector<int> out;
  if (top_order_matters) out.push_back(OrderSourceLeaf(p));
  CollectLoadBearing(p, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (!out.empty() && out.front() == -1) out.erase(out.begin());
  return out;
}

bool LeafReqsSubsumedBy(const Path& a, const Path& b) {
  // Both paths cover the same relation set and keep their leaves sorted
  // by table position, so a two-pointer walk suffices.
  size_t j = 0;
  for (const auto& sa : a.leaves) {
    if (sa.req == LeafReqKind::kUnordered) continue;
    while (j < b.leaves.size() && b.leaves[j].table_pos < sa.table_pos) ++j;
    if (j >= b.leaves.size() || b.leaves[j].table_pos != sa.table_pos) {
      return false;
    }
    const LeafSlot& sb = b.leaves[j];
    if (sa.req != sb.req || !(sa.column == sb.column)) return false;
    // A probe executed more often is a strictly stronger requirement on
    // the priced access cost; require a's multiplier not to exceed b's.
    if (sa.multiplier > sb.multiplier * 1.000001) return false;
  }
  return true;
}

}  // namespace pinum
