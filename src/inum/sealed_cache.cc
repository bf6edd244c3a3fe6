#include "inum/sealed_cache.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>
#include <type_traits>

namespace pinum {

namespace {

/// True when slot `a`'s priced contribution is <= slot `b`'s under every
/// configuration, in exact floating-point arithmetic:
///  - equal requirements with a no-larger multiplier, or
///  - an unordered slot against an ordered one (for any table and config,
///    Unordered <= Ordered: every ordered option is also an unordered
///    option, and the heap only lowers the unordered minimum).
/// Probe slots are incomparable with scan slots — a probe's unit cost has
/// no ordering relation to a scan's.
bool SlotLeq(const LeafSlot& a, const LeafSlot& b) {
  if (a.table_pos != b.table_pos) return false;
  if (a.multiplier > b.multiplier) return false;
  switch (a.req) {
    case LeafReqKind::kUnordered:
      return b.req != LeafReqKind::kProbe;
    case LeafReqKind::kOrdered:
      return b.req == LeafReqKind::kOrdered && a.column == b.column;
    case LeafReqKind::kProbe:
      return b.req == LeafReqKind::kProbe && a.column == b.column;
  }
  return false;
}

/// True when plan `a` prices <= plan `b` under every configuration, so
/// `b` can never win and is safe to prune without changing Cost() by even
/// one bit. Requires pointwise slot comparability plus a no-larger
/// internal cost; no fuzz — sealing must preserve exact equality with the
/// unsealed cache, unlike the optimizer's build-time dominance which may
/// trade epsilon regressions for a smaller export.
bool Dominates(const CachedPlan& a, const CachedPlan& b) {
  if (a.internal_cost > b.internal_cost) return false;
  if (a.slots.size() != b.slots.size()) return false;
  for (size_t i = 0; i < a.slots.size(); ++i) {
    if (!SlotLeq(a.slots[i], b.slots[i])) return false;
  }
  return true;
}

/// One distinct (table position, requirement kind, column) slot
/// requirement during the seal: base cost plus the dense per-index row.
/// The row starts as a fill of the base — an id with no entry in the
/// table's access map prices exactly like the empty configuration
/// (Unordered falls back to the heap, Ordered/Probe to infinite) — and
/// only the table's few recorded indexes are patched in with their
/// singleton-configuration price, the same double a per-id map probe
/// computes for them.
struct BuildTerm {
  double base = kInfiniteCost;
  std::vector<double> row;
  bool feasible = false;
};

}  // namespace

uint64_t SealedCache::NextSealId() {
  // Ids start at 1 so the default CostContext (seal_id 0) can never match
  // a real cache and read as "already prepared".
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1) + 1;
}

SealedCache& SealedCache::operator=(SealedCache&& other) noexcept {
  if (this == &other) return *this;
  arena_ = std::move(other.arena_);
  universe_ = other.universe_;
  seal_id_ = other.seal_id_;
  plans_pruned_ = other.plans_pruned_;
  term_bases_ = other.term_bases_;
  per_index_values_ = other.per_index_values_;
  posting_offsets_ = other.posting_offsets_;
  posting_terms_ = other.posting_terms_;
  posting_values_ = other.posting_values_;
  posting_ids_ = other.posting_ids_;
  plans_ = other.plans_;
  plan_term_ids_ = other.plan_term_ids_;
  plan_multipliers_ = other.plan_multipliers_;
  // The source must not keep views into an arena it no longer owns:
  // reset it to the default-constructed (empty-cache) state.
  other.Reset();
  return *this;
}

void SealedCache::Reset() {
  arena_ = Arena();
  universe_ = 0;
  seal_id_ = 0;
  plans_pruned_ = 0;
  term_bases_ = {};
  per_index_values_ = {};
  posting_offsets_ = {};
  posting_terms_ = {};
  posting_values_ = {};
  posting_ids_ = {};
  plans_ = {};
  plan_term_ids_ = {};
  plan_multipliers_ = {};
}

namespace {

static_assert(std::is_trivially_copyable_v<pinum::IndexId> &&
              sizeof(pinum::IndexId) == 4);

/// The flat arrays Seal computes, packed into one image afterwards.
struct SealedArrays {
  std::vector<double> term_bases;
  std::vector<double> per_index_values;
  std::vector<uint32_t> posting_offsets;
  std::vector<uint32_t> posting_terms;
  std::vector<double> posting_values;
  std::vector<IndexId> posting_ids;
  std::vector<uint32_t> plan_term_ids;
  std::vector<double> plan_multipliers;
};

}  // namespace

std::string SealedCache::PackEmptyImage() {
  // The empty universe's canonical form keeps the on-disk CSR invariant
  // (universe + 1 offsets): a single zero offset. Sealing an empty
  // build-time cache over a zero-id universe produces exactly that
  // image, and a cache restored from it is behaviourally identical to a
  // default-constructed one — with universe 0 no code path reads past
  // offset 0.
  const SealedCache empty = Seal(InumCache(), 0);
  return std::string(empty.arena_.data, empty.arena_.size);
}

void SealedCache::BindImage(Arena arena) {
  arena_ = std::move(arena);
  const char* d = arena_.data;
  uint64_t universe = 0;
  uint64_t pruned = 0;
  std::memcpy(&universe, d, 8);
  std::memcpy(&pruned, d + 8, 8);
  universe_ = static_cast<size_t>(universe);
  plans_pruned_ = static_cast<size_t>(pruned);

  uint64_t dir[kImgArrayCount][2];
  std::memcpy(dir, d + kImageDirectoryAt, sizeof(dir));
  auto span_at = [&](size_t i, auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    return ArenaSpan<T>(reinterpret_cast<const T*>(d + dir[i][0]),
                        static_cast<size_t>(dir[i][1]));
  };
  term_bases_ = span_at(kImgTermBases, static_cast<double*>(nullptr));
  per_index_values_ = span_at(kImgMatrix, static_cast<double*>(nullptr));
  posting_offsets_ =
      span_at(kImgPostingOffsets, static_cast<uint32_t*>(nullptr));
  posting_terms_ = span_at(kImgPostingTerms, static_cast<uint32_t*>(nullptr));
  posting_values_ = span_at(kImgPostingValues, static_cast<double*>(nullptr));
  posting_ids_ = span_at(kImgPostingIds, static_cast<IndexId*>(nullptr));
  plans_ = span_at(kImgPlans, static_cast<Plan*>(nullptr));
  plan_term_ids_ = span_at(kImgPlanTermIds, static_cast<uint32_t*>(nullptr));
  plan_multipliers_ =
      span_at(kImgPlanMultipliers, static_cast<double*>(nullptr));
  seal_id_ = NextSealId();
}

Status SealedCache::ValidateImage(const char* data, size_t size) {
  auto corrupt = [](const std::string& what) {
    return Status::Internal("snapshot corrupt: " + what);
  };
  if (size < kImageArraysAt) {
    return corrupt("cache image is smaller than its header and directory");
  }
  if (size % kArenaAlign != 0) {
    return corrupt("cache image size is not 8-byte aligned");
  }
  uint64_t universe64 = 0;
  std::memcpy(&universe64, data, 8);
  if (universe64 >
      static_cast<uint64_t>(std::numeric_limits<IndexId>::max())) {
    return corrupt("universe size does not fit IndexId");
  }
  const size_t universe = static_cast<size_t>(universe64);

  static constexpr size_t kElemBytes[kImgArrayCount] = {
      8, 8, 4, 4, 8, 4, sizeof(Plan), 4, 8};
  uint64_t dir[kImgArrayCount][2];
  std::memcpy(dir, data + kImageDirectoryAt, sizeof(dir));
  for (size_t i = 0; i < kImgArrayCount; ++i) {
    const uint64_t offset = dir[i][0];
    const uint64_t count = dir[i][1];
    if (offset % kArenaAlign != 0) {
      return corrupt("cache array offset is misaligned");
    }
    if (offset > size) {
      return corrupt("cache array offset is out of bounds");
    }
    // Division instead of count * elem: no overflow to exploit.
    if (count > (size - offset) / kElemBytes[i]) {
      return corrupt("cache array overruns its image");
    }
  }
  auto array = [&](size_t i, auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    return ArenaSpan<T>(reinterpret_cast<const T*>(data + dir[i][0]),
                        static_cast<size_t>(dir[i][1]));
  };
  const auto term_bases = array(kImgTermBases, static_cast<double*>(nullptr));
  const auto matrix = array(kImgMatrix, static_cast<double*>(nullptr));
  const auto offsets =
      array(kImgPostingOffsets, static_cast<uint32_t*>(nullptr));
  const auto posting_terms =
      array(kImgPostingTerms, static_cast<uint32_t*>(nullptr));
  const auto posting_values =
      array(kImgPostingValues, static_cast<double*>(nullptr));
  const auto posting_ids =
      array(kImgPostingIds, static_cast<IndexId*>(nullptr));
  const auto plans = array(kImgPlans, static_cast<Plan*>(nullptr));
  const auto plan_term_ids =
      array(kImgPlanTermIds, static_cast<uint32_t*>(nullptr));
  const auto plan_multipliers =
      array(kImgPlanMultipliers, static_cast<double*>(nullptr));

  const size_t num_terms = term_bases.size();
  // Division instead of universe * num_terms: no overflow to exploit.
  if (num_terms == 0
          ? !matrix.empty()
          : matrix.size() % num_terms != 0 ||
                matrix.size() / num_terms != universe) {
    return corrupt("term matrix is not universe x terms");
  }
  if (offsets.size() != universe + 1) {
    return corrupt("posting offsets do not cover the universe");
  }
  if (offsets.front() != 0 || offsets.back() != posting_terms.size() ||
      posting_terms.size() != posting_values.size()) {
    return corrupt("posting lists are not closed by their offsets");
  }
  for (size_t id = 0; id < universe; ++id) {
    if (offsets[id] > offsets[id + 1]) {
      return corrupt("posting offsets are not monotone");
    }
  }
  for (size_t p = 0; p < posting_terms.size(); ++p) {
    if (posting_terms[p] >= num_terms) {
      return corrupt("posting names a term out of range");
    }
    if (!(posting_values[p] < term_bases[posting_terms[p]])) {
      return corrupt("posting is not a strict improvement over its base");
    }
  }
  // The stored posting-bearing id list (the image stores it so binding
  // a snapshot record needs no derivation pass) must be exactly the ids
  // with non-empty lists, ascending — the inverted sweep trusts it.
  size_t bearing = 0;
  for (size_t id = 0; id < universe; ++id) {
    if (offsets[id + 1] > offsets[id]) {
      if (bearing >= posting_ids.size() ||
          posting_ids[bearing] != static_cast<IndexId>(id)) {
        return corrupt("posting-bearing id list does not match the offsets");
      }
      ++bearing;
    }
  }
  if (bearing != posting_ids.size()) {
    return corrupt("posting-bearing id list does not match the offsets");
  }

  for (size_t i = 0; i < plans.size(); ++i) {
    if (i > 0 && !(plans[i - 1].internal_cost <= plans[i].internal_cost)) {
      return corrupt("plans are not sorted by internal cost");
    }
    if (static_cast<uint64_t>(plans[i].first_slot) + plans[i].num_slots >
        plan_term_ids.size()) {
      return corrupt("plan slots overrun the slot arrays");
    }
  }
  if (plan_term_ids.size() != plan_multipliers.size()) {
    return corrupt("plan slot arrays disagree in length");
  }
  for (uint32_t t : plan_term_ids) {
    if (t >= num_terms) return corrupt("plan names a term out of range");
  }
  return Status::OK();
}

SealedCache SealedCache::Seal(const InumCache& cache, IndexId num_index_ids) {
  const std::vector<CachedPlan>& plans = cache.plans();
  const AccessCostTable& access = cache.access();
  const size_t n = plans.size();
  const size_t universe =
      static_cast<size_t>(std::max<IndexId>(num_index_ids, 0));

  // ---- Terms: one per distinct (pos, req, column) slot requirement
  // across all plans. ----
  std::vector<BuildTerm> terms;
  std::map<std::tuple<int, LeafReqKind, ColumnRef>, uint32_t> term_ids;
  auto term_of = [&](const LeafSlot& slot) -> uint32_t {
    const ColumnRef column =
        slot.req == LeafReqKind::kUnordered ? ColumnRef{} : slot.column;
    const auto key = std::make_tuple(slot.table_pos, slot.req, column);
    auto it = term_ids.find(key);
    if (it != term_ids.end()) return it->second;

    BuildTerm term;
    IndexConfig single(1);
    auto price = [&](const IndexConfig& config) {
      switch (slot.req) {
        case LeafReqKind::kUnordered:
          return access.Unordered(slot.table_pos, config);
        case LeafReqKind::kOrdered:
          return access.Ordered(slot.table_pos, column, config);
        case LeafReqKind::kProbe:
          return access.Probe(slot.table_pos, column, config);
      }
      return kInfiniteCost;
    };
    term.base = price({});
    term.feasible = !IsInfinite(term.base);
    term.row.assign(universe, term.base);
    if (const auto* by_index = access.IndexCostsAt(slot.table_pos)) {
      for (const auto& [id, costs] : *by_index) {
        (void)costs;
        if (id < 0 || static_cast<size_t>(id) >= universe) continue;
        single[0] = id;
        const double v = price(single);
        term.row[static_cast<size_t>(id)] = v;
        term.feasible = term.feasible || !IsInfinite(v);
      }
    }
    const uint32_t tid = static_cast<uint32_t>(terms.size());
    terms.push_back(std::move(term));
    term_ids.emplace(key, tid);
    return tid;
  };

  std::vector<std::vector<uint32_t>> plan_terms(n);
  for (size_t i = 0; i < n; ++i) {
    plan_terms[i].reserve(plans[i].slots.size());
    for (const LeafSlot& slot : plans[i].slots) {
      plan_terms[i].push_back(term_of(slot));
    }
  }

  // ---- Pruning. Two exact rules, neither able to move Cost() by a bit:
  // a plan with a term no universe index (nor the heap) can serve prices
  // infinite under every configuration; a dominated plan prices >= its
  // (unpruned) dominator under every configuration. A dominator must
  // itself be unpruned, which keeps exactly one plan of every
  // mutual-dominance group; dominance is transitive, so survivors cover
  // the pruned plans' dominators too. ----
  std::vector<bool> pruned(n, false);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t t : plan_terms[i]) {
      if (!terms[t].feasible) {
        pruned[i] = true;
        break;
      }
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (pruned[j]) continue;
    for (size_t i = 0; i < n; ++i) {
      if (i == j || pruned[i]) continue;
      if (Dominates(plans[i], plans[j])) {
        pruned[j] = true;
        break;
      }
    }
  }

  // ---- Survivors, by ascending internal cost (stable: equal internal
  // costs keep their build order), referencing only the terms they
  // actually use. ----
  std::vector<size_t> order;
  for (size_t i = 0; i < n; ++i) {
    if (!pruned[i]) order.push_back(i);
  }
  const size_t plans_pruned = n - order.size();
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return plans[a].internal_cost < plans[b].internal_cost;
  });

  SealedArrays out;
  std::vector<Plan> out_plans;
  std::vector<uint32_t> remap(terms.size(), UINT32_MAX);
  std::vector<uint32_t> kept;  // original term ids, in remapped order
  for (size_t idx : order) {
    const CachedPlan& plan = plans[idx];
    Plan compact;
    compact.internal_cost = plan.internal_cost;
    compact.first_slot = static_cast<uint32_t>(out.plan_term_ids.size());
    compact.num_slots = static_cast<uint32_t>(plan.slots.size());
    for (size_t s = 0; s < plan.slots.size(); ++s) {
      uint32_t& target = remap[plan_terms[idx][s]];
      if (target == UINT32_MAX) {
        target = static_cast<uint32_t>(kept.size());
        kept.push_back(plan_terms[idx][s]);
      }
      out.plan_term_ids.push_back(target);
      out.plan_multipliers.push_back(plan.slots[s].multiplier);
    }
    out_plans.push_back(compact);
  }

  // ---- Serving layout: bases, the index-major matrix (row id = every
  // surviving term's cost under {id}; the transpose of the build rows),
  // and CSR posting lists holding the strict improvements — entries with
  // row[id] < base, the only ones a min-fold can ever act on. ----
  const size_t num_terms = kept.size();
  out.term_bases.resize(num_terms);
  for (size_t k = 0; k < num_terms; ++k) {
    out.term_bases[k] = terms[kept[k]].base;
  }
  out.per_index_values.resize(universe * num_terms);
  for (size_t k = 0; k < num_terms; ++k) {
    const double* row = terms[kept[k]].row.data();
    for (size_t id = 0; id < universe; ++id) {
      out.per_index_values[id * num_terms + k] = row[id];
    }
  }

  out.posting_offsets.assign(universe + 1, 0);
  for (size_t k = 0; k < num_terms; ++k) {
    const BuildTerm& term = terms[kept[k]];
    for (size_t id = 0; id < universe; ++id) {
      if (term.row[id] < term.base) ++out.posting_offsets[id + 1];
    }
  }
  for (size_t id = 0; id < universe; ++id) {
    out.posting_offsets[id + 1] += out.posting_offsets[id];
  }
  out.posting_terms.resize(out.posting_offsets[universe]);
  out.posting_values.resize(out.posting_offsets[universe]);
  std::vector<uint32_t> cursor(out.posting_offsets.begin(),
                               out.posting_offsets.end() - 1);
  // Term-major outer loop keeps each id's postings sorted by term.
  for (size_t k = 0; k < num_terms; ++k) {
    const BuildTerm& term = terms[kept[k]];
    for (size_t id = 0; id < universe; ++id) {
      if (term.row[id] < term.base) {
        const uint32_t at = cursor[id]++;
        out.posting_terms[at] = static_cast<uint32_t>(k);
        out.posting_values[at] = term.row[id];
      }
    }
  }
  for (size_t id = 0; id < universe; ++id) {
    if (out.posting_offsets[id + 1] > out.posting_offsets[id]) {
      out.posting_ids.push_back(static_cast<IndexId>(id));
    }
  }

  // ---- Pack the arrays into one relocatable arena image (the bytes a
  // snapshot stores verbatim) and bind the serving views over it. ----
  struct Entry {
    const void* data;
    size_t count;
    size_t elem;
  };
  const Entry entries[kImgArrayCount] = {
      {out.term_bases.data(), out.term_bases.size(), 8},
      {out.per_index_values.data(), out.per_index_values.size(), 8},
      {out.posting_offsets.data(), out.posting_offsets.size(), 4},
      {out.posting_terms.data(), out.posting_terms.size(), 4},
      {out.posting_values.data(), out.posting_values.size(), 8},
      {out.posting_ids.data(), out.posting_ids.size(), 4},
      {out_plans.data(), out_plans.size(), sizeof(Plan)},
      {out.plan_term_ids.data(), out.plan_term_ids.size(), 4},
      {out.plan_multipliers.data(), out.plan_multipliers.size(), 8},
  };
  size_t at = kImageArraysAt;
  uint64_t dir[kImgArrayCount][2];
  for (size_t i = 0; i < kImgArrayCount; ++i) {
    dir[i][0] = at;
    dir[i][1] = entries[i].count;
    at += ArenaAlignUp(entries[i].count * entries[i].elem);
  }
  std::shared_ptr<char[]> buffer(new char[at]());
  const uint64_t universe64 = universe;
  const uint64_t pruned64 = plans_pruned;
  std::memcpy(buffer.get(), &universe64, 8);
  std::memcpy(buffer.get() + 8, &pruned64, 8);
  std::memcpy(buffer.get() + kImageDirectoryAt, dir, sizeof(dir));
  for (size_t i = 0; i < kImgArrayCount; ++i) {
    if (entries[i].count != 0) {
      std::memcpy(buffer.get() + dir[i][0], entries[i].data,
                  entries[i].count * entries[i].elem);
    }
  }
  Arena arena;
  arena.data = buffer.get();
  arena.size = at;
  arena.owner = std::move(buffer);

  SealedCache sealed;
  sealed.BindImage(std::move(arena));
  return sealed;
}

double SealedCache::ScanPlans(const double* values, double seed) const {
  double best = seed;
  for (const Plan& plan : plans_) {
    // Plans are sorted by internal cost, a lower bound on plan cost.
    if (plan.internal_cost >= best) break;
    double cost = plan.internal_cost;
    bool feasible = true;
    const uint32_t end = plan.first_slot + plan.num_slots;
    for (uint32_t s = plan.first_slot; s < end; ++s) {
      const double ac = values[plan_term_ids_[s]];
      if (IsInfinite(ac)) {
        feasible = false;
        break;
      }
      cost += plan_multipliers_[s] * ac;
    }
    if (feasible && cost < best) best = cost;
  }
  return best;
}

void SealedCache::PrepareContext(const IndexConfig& base,
                                 CostContext* ctx) const {
  const size_t num_terms = term_bases_.size();
  ctx->values_.resize(num_terms);
  std::copy(term_bases_.begin(), term_bases_.end(), ctx->values_.begin());
  double* values = ctx->values_.data();
  for (IndexId id : base) {
    // Ids outside the sealed universe price as absent, like ids missing
    // from the unsealed table's per-slot maps. Per term, the fold order
    // matches the unsealed min exactly: base first, then each
    // configuration id in configuration order.
    if (id >= 0 && static_cast<size_t>(id) < universe_) {
      const double* row =
          per_index_values_.data() + static_cast<size_t>(id) * num_terms;
      for (size_t t = 0; t < num_terms; ++t) {
        values[t] = std::min(values[t], row[t]);
      }
    }
  }
  ctx->base_cost_ = ScanPlans(ctx->values_.data(), kInfiniteCost);
  ctx->undo_.clear();
  ctx->seal_id_ = seal_id_;
}

double SealedCache::Cost(const IndexConfig& config) const {
  // One configuration is a context prepared and read once. The scratch
  // context is thread-local so concurrent Cost() calls (the batched
  // evaluator prices configurations on a pool) never share it.
  static thread_local CostContext scratch;
  PrepareContext(config, &scratch);
  return scratch.base_cost_;
}

double SealedCache::CostOverlay(CostContext* ctx, uint32_t begin,
                                uint32_t end) const {
  // A context prepared by a different seal indexes a dead term layout;
  // folding postings into it serves silently wrong (or out-of-range)
  // costs. Free in release builds; callers that legitimately hold
  // contexts across reseals compare seal ids and re-prepare first.
  assert(ctx->seal_id_ == seal_id_ &&
         "CostContext is stale: the cache was resealed since PrepareContext");
  // Overlay the extra index's postings onto the pinned term values. A
  // posting with value >= the pinned min cannot change it (pinned values
  // are pointwise <= term bases, postings are < base but not necessarily
  // < the pinned min); terms without a posting satisfy
  // row[extra] >= base >= pinned, so skipping them is exact.
  ctx->undo_.clear();
  for (uint32_t p = begin; p < end; ++p) {
    double& value = ctx->values_[posting_terms_[p]];
    if (posting_values_[p] < value) {
      ctx->undo_.emplace_back(posting_terms_[p], value);
      value = posting_values_[p];
    }
  }
  if (ctx->undo_.empty()) return ctx->base_cost_;

  // The base cost seeds the early exit: term values only went down, so
  // every plan's cost is <= its base-configuration cost and the base
  // winner still prices <= base_cost — the scan returns the exact
  // minimum, identical (bitwise) to a from-scratch scan's.
  const double best = ScanPlans(ctx->values_.data(), ctx->base_cost_);
  for (const auto& [term, previous] : ctx->undo_) {
    ctx->values_[term] = previous;
  }
  return best;
}

void SealedCache::ExtendContext(CostContext* ctx, IndexId extra) const {
  assert(ctx->seal_id_ == seal_id_ &&
         "CostContext is stale: the cache was resealed since PrepareContext");
  if (extra < 0 || static_cast<size_t>(extra) >= universe_) return;
  // The permanent flavor of CostOverlay: fold and keep, no undo.
  bool changed = false;
  const uint32_t begin = posting_offsets_[static_cast<size_t>(extra)];
  const uint32_t end = posting_offsets_[static_cast<size_t>(extra) + 1];
  for (uint32_t p = begin; p < end; ++p) {
    double& value = ctx->values_[posting_terms_[p]];
    if (posting_values_[p] < value) {
      value = posting_values_[p];
      changed = true;
    }
  }
  if (changed) {
    ctx->base_cost_ = ScanPlans(ctx->values_.data(), ctx->base_cost_);
  }
}

double SealedCache::CostWithExtra(CostContext* ctx, IndexId extra) const {
  assert(ctx->seal_id_ == seal_id_ &&
         "CostContext is stale: the cache was resealed since PrepareContext");
  if (extra < 0 || static_cast<size_t>(extra) >= universe_) {
    return ctx->base_cost_;
  }
  return CostOverlay(ctx, posting_offsets_[static_cast<size_t>(extra)],
                     posting_offsets_[static_cast<size_t>(extra) + 1]);
}

void SealedCache::CostActiveExtrasInto(CostContext* ctx,
                                       const uint32_t* position_of_id,
                                       size_t map_size, double* out) const {
  assert(ctx->seal_id_ == seal_id_ &&
         "CostContext is stale: the cache was resealed since PrepareContext");
  // Inverted loop: instead of asking "does this swept id have postings
  // here" per extra, walk the (usually much shorter) posting-bearing id
  // list and ask "is this id being swept".
  const uint32_t* offsets = posting_offsets_.data();
  for (const IndexId id : posting_ids_) {
    if (static_cast<size_t>(id) >= map_size) continue;
    const uint32_t slot = position_of_id[static_cast<size_t>(id)];
    if (slot == kNotSwept) continue;
    out[slot] = CostOverlay(ctx, offsets[static_cast<size_t>(id)],
                            offsets[static_cast<size_t>(id) + 1]);
  }
}

}  // namespace pinum
