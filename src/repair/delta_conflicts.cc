#include "repair/delta_conflicts.h"

#include <algorithm>

#include "chase/support.h"
#include "kb/homomorphism.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

namespace {

// Matched ids are comparable across engines only below num_original;
// derived ids all collapse to one sentinel ordered after every original.
uint64_t PatternId(AtomId id, size_t num_original) {
  return id < num_original ? static_cast<uint64_t>(id)
                           : static_cast<uint64_t>(-1);
}

// Three-way CanonicalConflictLess: negative, zero or positive.
int CompareCanonical(const Conflict& a, const Conflict& b,
                     size_t num_original) {
  if (a.cdd_index != b.cdd_index) return a.cdd_index < b.cdd_index ? -1 : 1;
  const size_t n = std::min(a.matched.size(), b.matched.size());
  for (size_t j = 0; j < n; ++j) {
    const uint64_t pa = PatternId(a.matched[j], num_original);
    const uint64_t pb = PatternId(b.matched[j], num_original);
    if (pa != pb) return pa < pb ? -1 : 1;
  }
  if (a.matched.size() != b.matched.size()) {
    return a.matched.size() < b.matched.size() ? -1 : 1;
  }
  if (a.support != b.support) return a.support < b.support ? -1 : 1;
  return 0;
}

}  // namespace

bool CanonicalConflictLess(const Conflict& a, const Conflict& b,
                           size_t num_original) {
  return CompareCanonical(a, b, num_original) < 0;
}

bool CensusOrder::operator()(const Conflict* a, const Conflict* b) const {
  const int order = CompareCanonical(*a, *b, num_original);
  return order != 0 ? order < 0 : a->matched < b->matched;
}

RankTable::RankTable(CensusOrder order, const Held& held) : order_(order) {
  for (const auto& [conflict, positions] : held) {
    for (const Position& p : positions) holders_[p].push_back(conflict);
  }
  for (auto& [position, holders] : holders_) {
    std::sort(holders.begin(), holders.end(), order_);
    ranking_.insert(Ranked{holders.size(), position});
  }
}

const RankTable::Holders* RankTable::holders(
    const Position& position) const {
  auto it = holders_.find(position);
  return it == holders_.end() ? nullptr : &it->second;
}

const Conflict* RankTable::FirstHolder(const Position& position,
                                       const Conflict* skip) const {
  const Holders* holders = this->holders(position);
  if (holders == nullptr) return nullptr;
  for (const Conflict* conflict : *holders) {
    if (conflict != skip) return conflict;
  }
  return nullptr;
}

void RankTable::Add(const Conflict* conflict,
                    const std::vector<Position>& positions) {
  for (const Position& p : positions) {
    Holders& holders = holders_[p];
    holders.insert(
        std::lower_bound(holders.begin(), holders.end(), conflict, order_),
        conflict);
    Rerank(p, holders.size() - 1, holders.size());
  }
}

void RankTable::Remove(const Conflict* conflict,
                       const std::vector<Position>& positions) {
  for (const Position& p : positions) {
    auto it = holders_.find(p);
    KBREPAIR_CHECK(it != holders_.end());
    Holders& holders = it->second;
    auto held = std::find(holders.begin(), holders.end(), conflict);
    KBREPAIR_CHECK(held != holders.end());
    holders.erase(held);
    Rerank(p, holders.size() + 1, holders.size());
    if (holders.empty()) holders_.erase(it);
  }
}

void RankTable::Rerank(const Position& position, size_t from, size_t to) {
  if (from == 0) {
    ranking_.insert(Ranked{to, position});
    return;
  }
  // The set node is re-keyed in place instead of being reallocated.
  Ranking::node_type node = ranking_.extract(Ranked{from, position});
  if (to == 0) return;
  node.value().rank = to;
  ranking_.insert(std::move(node));
}

void CanonicalizeConflicts(std::vector<Conflict>& conflicts,
                           size_t num_original) {
  std::sort(conflicts.begin(), conflicts.end(),
            [num_original](const Conflict& a, const Conflict& b) {
              return CanonicalConflictLess(a, b, num_original);
            });
}

DeltaConflictEngine::DeltaConflictEngine(SymbolTable* symbols,
                                         const std::vector<Tgd>* tgds,
                                         const std::vector<Cdd>* cdds,
                                         ChaseOptions chase_options)
    : chase_(symbols, tgds, chase_options), symbols_(symbols), cdds_(cdds) {
  KBREPAIR_CHECK(cdds != nullptr);
  for (size_t c = 0; c < cdds_->size(); ++c) {
    const std::vector<Atom>& body = (*cdds_)[c].body();
    for (size_t j = 0; j < body.size(); ++j) {
      cdd_anchor_index_[body[j].predicate].emplace_back(c, j);
    }
  }

  // Predicate-level provenance closure: body_pred -> head_pred edges,
  // then for each head predicate the backward-reachable set. Atoms of a
  // non-head predicate are never derived, so they need no entry.
  std::unordered_map<int32_t, std::unordered_set<int32_t>> feeds;
  std::unordered_set<int32_t> head_preds;
  for (const Tgd& tgd : *tgds) {
    for (const Atom& head : tgd.head()) {
      head_preds.insert(head.predicate);
      for (const Atom& body : tgd.body()) {
        feeds[body.predicate].insert(head.predicate);
      }
    }
  }
  for (const int32_t pred : head_preds) {
    std::unordered_set<int32_t>& reach = contributors_[pred];
    std::vector<int32_t> frontier{pred};
    reach.insert(pred);
    while (!frontier.empty()) {
      const int32_t q = frontier.back();
      frontier.pop_back();
      for (const auto& [p, heads] : feeds) {
        if (reach.count(p) != 0 || heads.count(q) == 0) continue;
        reach.insert(p);
        frontier.push_back(p);
      }
    }
  }
}

Status DeltaConflictEngine::Initialize(const FactBase& facts) {
  KBREPAIR_RETURN_IF_ERROR(chase_.Initialize(facts));
  conflicts_.clear();
  by_matched_.clear();
  by_derived_pred_.reset();
  naive_ = Census(CensusOrder{chase_.num_original()});
  next_id_ = 0;
  ResetSelectionIndexes();

  trace::ScopedSpan span("conflicts.enumerate", trace::Phase::kConflictScan);
  HomomorphismFinder finder(symbols_, &chase_.facts());
  CanonicalSupportResolver support(symbols_, &chase_);
  for (size_t c = 0; c < cdds_->size(); ++c) {
    finder.FindAll((*cdds_)[c].body(), [&](const Homomorphism& hom) {
      Conflict conflict;
      conflict.cdd_index = c;
      conflict.matched = hom.matched;
      conflict.support = support.Support(hom.matched);
      AddConflict(std::move(conflict));
      return true;
    });
  }
  return Status::Ok();
}

Status DeltaConflictEngine::InitializeFromShared(
    const DeltaConflictEngine& frozen) {
  KBREPAIR_CHECK(frozen.initialized());
  chase_.AdoptShared(frozen.chase_);
  conflicts_ = frozen.conflicts_;
  by_matched_ = frozen.by_matched_;
  by_derived_pred_.reset();
  next_id_ = frozen.next_id_;
  naive_ = Census(CensusOrder{chase_.num_original()});
  for (const auto& [id, conflict] : conflicts_) {
    if (IsNaive(conflict)) naive_.insert(&conflict);
  }
  ResetSelectionIndexes();
  return Status::Ok();
}

Status DeltaConflictEngine::OnFixApplied(AtomId atom, int arg,
                                         TermId value) {
  KBREPAIR_CHECK(initialized());
  KBREPAIR_ASSIGN_OR_RETURN(const IncrementalChase::Delta delta,
                            chase_.ApplyFix(atom, arg, value));
  return Absorb(delta);
}

StatusOr<AtomId> DeltaConflictEngine::AddOriginal(const Atom& atom) {
  KBREPAIR_CHECK(initialized());
  KBREPAIR_ASSIGN_OR_RETURN(const IncrementalChase::Delta delta,
                            chase_.AddOriginal(atom));
  KBREPAIR_RETURN_IF_ERROR(Absorb(delta));
  return delta.modified;
}

Status DeltaConflictEngine::Absorb(const IncrementalChase::Delta& delta) {
  // Drop conflicts whose homomorphism used a changed atom. Retracted
  // atoms are gone; homomorphisms through the rewritten atom must be
  // re-proved under its new arguments.
  DropConflictsMatching(delta.modified);
  for (AtomId id : delta.retracted) DropConflictsMatching(id);

  // Re-enumerate pinned at every changed atom: the rewritten or added
  // original plus each newly derived atom. (delta.added is ascending and
  // all its ids exceed the modified atom's, so modified-first keeps the
  // anchor list sorted.)
  std::vector<AtomId> anchors;
  anchors.reserve(delta.added.size() + 1);
  anchors.push_back(delta.modified);
  anchors.insert(anchors.end(), delta.added.begin(), delta.added.end());
  CanonicalSupportResolver support(symbols_, &chase_);
  const uint64_t first_added = next_id_;
  AddConflictsAnchoredAt(anchors, support);

  std::unordered_set<int32_t> changed_preds;
  changed_preds.insert(chase_.facts().atom(delta.modified).predicate);
  for (const AtomId id : delta.retracted) {
    changed_preds.insert(chase_.facts().atom(id).predicate);
  }
  for (const AtomId id : delta.added) {
    changed_preds.insert(chase_.facts().atom(id).predicate);
  }
  std::vector<uint64_t> touched;
  RefreshDerivedSupports(changed_preds, support, touched);
  KBREPAIR_FAILPOINT(
      "delta.corrupt",
      Status::Internal("injected delta conflict-engine divergence"));
  // Ids only grow and the drops came first, so every id from
  // first_added on is a live conflict this fix added.
  for (uint64_t id = first_added; id < next_id_; ++id) touched.push_back(id);
  for (const uint64_t id : touched) {
    KBREPAIR_RETURN_IF_ERROR(VerifyConflict(id, conflicts_.at(id)));
  }
#ifndef NDEBUG
  // Debug builds walk the whole engine after every fix.
  KBREPAIR_RETURN_IF_ERROR(VerifyInvariants());
#endif
  return Status::Ok();
}

Status DeltaConflictEngine::VerifyConflict(uint64_t id,
                                           const Conflict& conflict) const {
  if (conflict.support.empty()) {
    return Status::Internal(
        "delta conflict engine invariant violated: conflict with empty "
        "support");
  }
  for (const AtomId s : conflict.support) {
    if (!chase_.IsOriginal(s)) {
      return Status::Internal(
          "delta conflict engine invariant violated: support atom outside "
          "the original range");
    }
  }
  for (const AtomId m : conflict.matched) {
    if (m >= chase_.facts().size() || !chase_.facts().alive(m)) {
      return Status::Internal(
          "delta conflict engine invariant violated: conflict matches a "
          "dead atom");
    }
    auto it = by_matched_.find(m);
    if (it == by_matched_.end() || it->second.count(id) == 0) {
      return Status::Internal(
          "delta conflict engine invariant violated: matched index out of "
          "sync with the conflict map");
    }
    if (chase_.IsOriginal(m) || !by_derived_pred_.has_value()) continue;
    auto pred_it = by_derived_pred_->find(chase_.facts().atom(m).predicate);
    if (pred_it == by_derived_pred_->end() ||
        pred_it->second.count(id) == 0) {
      return Status::Internal(
          "delta conflict engine invariant violated: derived-predicate "
          "index out of sync with the conflict map");
    }
  }
  return Status::Ok();
}

Status DeltaConflictEngine::VerifyInvariants() const {
  size_t num_naive = 0;
  size_t num_derived_refs = 0;
  for (const auto& [id, conflict] : conflicts_) {
    KBREPAIR_RETURN_IF_ERROR(VerifyConflict(id, conflict));
    if (IsNaive(conflict)) ++num_naive;
    std::unordered_set<int32_t> derived_preds;
    for (const AtomId m : conflict.matched) {
      if (!chase_.IsOriginal(m)) {
        derived_preds.insert(chase_.facts().atom(m).predicate);
      }
    }
    num_derived_refs += derived_preds.size();
    if (census_.has_value()) {
      auto it = census_->find(&conflict);
      if (it == census_->end() || *it != &conflict) {
        return Status::Internal(
            "delta conflict engine invariant violated: ordered census out "
            "of sync with the conflict map");
      }
    }
  }
  if (by_derived_pred_.has_value()) {
    size_t num_derived_entries = 0;
    for (const auto& [pred, ids] : *by_derived_pred_) {
      num_derived_entries += ids.size();
    }
    if (num_derived_entries != num_derived_refs) {
      return Status::Internal(
          "delta conflict engine invariant violated: derived-predicate "
          "index holds dropped conflicts");
    }
  }
  if (num_naive != naive_.size()) {
    return Status::Internal(
        "delta conflict engine invariant violated: naive index out of sync "
        "with the conflict map");
  }
  if (census_.has_value() && census_->size() != conflicts_.size()) {
    return Status::Internal(
        "delta conflict engine invariant violated: ordered census out of "
        "sync with the conflict map");
  }
  for (const RankScope scope : {RankScope::kNaive, RankScope::kCensus}) {
    const RankTable* built = built_ranks(scope);
    if (built == nullptr) continue;
    if (!(CountRanks(scope) == *built)) {
      return Status::Internal(
          "delta conflict engine invariant violated: opti-mcd rank table "
          "out of sync with its census");
    }
  }
  return Status::Ok();
}

void DeltaConflictEngine::RefreshDerivedSupports(
    const std::unordered_set<int32_t>& changed_preds,
    CanonicalSupportResolver& support, std::vector<uint64_t>& touched) {
  if (!by_derived_pred_.has_value()) {
    by_derived_pred_.emplace();
    for (const auto& [id, conflict] : conflicts_) IndexDerived(id, conflict);
  }
  // Walks the predicates of matched derived atoms, not the census.
  std::vector<uint64_t> affected;
  for (const auto& [derived, ids] : *by_derived_pred_) {
    auto it = contributors_.find(derived);
    if (it == contributors_.end()) continue;
    for (const int32_t pred : changed_preds) {
      if (it->second.count(pred) != 0) {
        affected.insert(affected.end(), ids.begin(), ids.end());
        break;
      }
    }
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (const uint64_t id : affected) {
    Conflict& conflict = conflicts_.at(id);
    std::vector<AtomId> fresh = support.Support(conflict.matched);
    if (fresh == conflict.support) continue;
    // The support is part of the canonical key and decides a derived
    // conflict's positions: leave the selection indexes under the old
    // one. (A conflict matching a derived atom is never naive.)
    UnindexForSelection(conflict);
    conflict.support = std::move(fresh);
    IndexForSelection(conflict);
    touched.push_back(id);
  }
}

void DeltaConflictEngine::AddConflictsAnchoredAt(
    const std::vector<AtomId>& anchors, CanonicalSupportResolver& support) {
  trace::ScopedSpan span("conflicts.delta_enumerate",
                         trace::Phase::kConflictScan);
  const FactBase& chased = chase_.facts();
  HomomorphismFinder finder(symbols_, &chased);
  for (const AtomId anchor : anchors) {
    const PredicateId pred = chased.atom(anchor).predicate;
    auto it = cdd_anchor_index_.find(pred);
    if (it == cdd_anchor_index_.end()) continue;
    for (const auto& [cdd_index, pin] : it->second) {
      const std::vector<Atom>& body = (*cdds_)[cdd_index].body();
      if (body[pin].predicate != pred) continue;  // defensive; index-built
      finder.FindAllPinned(body, pin, anchor, [&](const Homomorphism& hom) {
        // Pin-first within the anchor: a homomorphism using the anchor
        // at several body positions is enumerated once per pin.
        for (size_t j = 0; j < pin; ++j) {
          if (hom.matched[j] == anchor) return true;
        }
        // Min-anchor across anchors: a homomorphism using several
        // changed atoms is kept only at the smallest one.
        for (const AtomId other : anchors) {
          if (other >= anchor) break;  // anchors ascending
          for (const AtomId m : hom.matched) {
            if (m == other) return true;
          }
        }
        Conflict conflict;
        conflict.cdd_index = cdd_index;
        conflict.matched = hom.matched;
        conflict.support = support.Support(hom.matched);
        AddConflict(std::move(conflict));
        return true;
      });
    }
  }
}

bool DeltaConflictEngine::IsNaive(const Conflict& conflict) const {
  for (const AtomId m : conflict.matched) {
    if (!chase_.IsOriginal(m)) return false;
  }
  return true;
}

void DeltaConflictEngine::IndexDerived(uint64_t id, const Conflict& conflict) {
  for (const AtomId m : conflict.matched) {
    if (!chase_.IsOriginal(m)) {
      (*by_derived_pred_)[chase_.facts().atom(m).predicate].insert(id);
    }
  }
}

bool DeltaConflictEngine::NaiveConflictMatches(AtomId atom) const {
  auto it = by_matched_.find(atom);
  if (it == by_matched_.end()) return false;
  for (const uint64_t id : it->second) {
    if (IsNaive(conflicts_.at(id))) return true;
  }
  return false;
}

void DeltaConflictEngine::AddConflict(Conflict conflict) {
#ifndef NDEBUG
  // A newly enumerated homomorphism must be genuinely new (see the
  // header's dedup argument); SameAs is the identity that must not
  // collide.
  for (const auto& [id, live] : conflicts_) {
    KBREPAIR_DCHECK(!live.SameAs(conflict));
  }
#endif
  const uint64_t id = next_id_++;
  for (AtomId m : conflict.matched) by_matched_[m].insert(id);
  const Conflict& live =
      conflicts_.emplace(id, std::move(conflict)).first->second;
  if (by_derived_pred_.has_value()) IndexDerived(id, live);
  if (IsNaive(live)) naive_.insert(&live);
  IndexForSelection(live);
}

void DeltaConflictEngine::DropConflictsMatching(AtomId atom) {
  auto it = by_matched_.find(atom);
  if (it == by_matched_.end()) return;
  const std::vector<uint64_t> ids(it->second.begin(), it->second.end());
  for (const uint64_t id : ids) {
    auto conflict_it = conflicts_.find(id);
    KBREPAIR_CHECK(conflict_it != conflicts_.end());
    const Conflict& conflict = conflict_it->second;
    for (AtomId m : conflict.matched) {
      auto m_it = by_matched_.find(m);
      if (m_it != by_matched_.end()) {
        m_it->second.erase(id);
        if (m_it->second.empty()) by_matched_.erase(m_it);
      }
      if (chase_.IsOriginal(m) || !by_derived_pred_.has_value()) continue;
      auto pred_it = by_derived_pred_->find(chase_.facts().atom(m).predicate);
      if (pred_it != by_derived_pred_->end()) {
        pred_it->second.erase(id);
        if (pred_it->second.empty()) by_derived_pred_->erase(pred_it);
      }
    }
    if (IsNaive(conflict)) naive_.erase(&conflict);
    UnindexForSelection(conflict);
    conflicts_.erase(conflict_it);
  }
}

std::vector<Position> DeltaConflictEngine::RankedPositions(
    const Conflict& conflict) const {
  return RetrievePositions(conflict, *cdds_, chase_.facts(),
                           chase_.num_original(),
                           PositionSelection::kResolvingPositions);
}

const Census& DeltaConflictEngine::census() {
  if (!census_.has_value()) {
    census_.emplace(CensusOrder{chase_.num_original()});
    for (const auto& [id, conflict] : conflicts_) census_->insert(&conflict);
  }
  return *census_;
}

const RankTable& DeltaConflictEngine::ranks(RankScope scope) {
  std::optional<RankTable>& table =
      scope == RankScope::kNaive ? naive_ranks_ : census_ranks_;
  if (!table.has_value()) table.emplace(CountRanks(scope));
  return *table;
}

RankTable DeltaConflictEngine::CountRanks(RankScope scope) const {
  RankTable::Held held;
  for (const auto& [id, conflict] : conflicts_) {
    if (scope == RankScope::kCensus || IsNaive(conflict)) {
      held.emplace_back(&conflict, RankedPositions(conflict));
    }
  }
  return RankTable(CensusOrder{chase_.num_original()}, held);
}

const RankTable* DeltaConflictEngine::built_ranks(RankScope scope) const {
  const std::optional<RankTable>& table =
      scope == RankScope::kNaive ? naive_ranks_ : census_ranks_;
  return table.has_value() ? &*table : nullptr;
}

void DeltaConflictEngine::IndexForSelection(const Conflict& conflict) {
  if (census_.has_value()) census_->insert(&conflict);
  const bool naive_ranked = naive_ranks_.has_value() && IsNaive(conflict);
  if (!naive_ranked && !census_ranks_.has_value()) return;
  const std::vector<Position> positions = RankedPositions(conflict);
  if (naive_ranked) naive_ranks_->Add(&conflict, positions);
  if (census_ranks_.has_value()) census_ranks_->Add(&conflict, positions);
}

void DeltaConflictEngine::UnindexForSelection(const Conflict& conflict) {
  if (census_.has_value()) census_->erase(&conflict);
  const bool naive_ranked = naive_ranks_.has_value() && IsNaive(conflict);
  if (!naive_ranked && !census_ranks_.has_value()) return;
  const std::vector<Position> positions = RankedPositions(conflict);
  if (naive_ranked) naive_ranks_->Remove(&conflict, positions);
  if (census_ranks_.has_value()) census_ranks_->Remove(&conflict, positions);
}

void DeltaConflictEngine::ResetSelectionIndexes() {
  census_.reset();
  naive_ranks_.reset();
  census_ranks_.reset();
}

std::vector<Conflict> DeltaConflictEngine::CanonicalConflicts() const {
  std::vector<Conflict> out;
  out.reserve(conflicts_.size());
  for (const auto& [id, conflict] : conflicts_) out.push_back(conflict);
  CanonicalizeConflicts(out, chase_.num_original());
  return out;
}

std::vector<Conflict> DeltaConflictEngine::CanonicalNaiveConflicts() const {
  std::vector<Conflict> out;
  out.reserve(naive_.size());
  for (const Conflict* conflict : naive_) out.push_back(*conflict);
  return out;
}

std::vector<Conflict> DeltaConflictEngine::ConflictsUsingSupport(
    AtomId atom) const {
  std::vector<Conflict> out;
  for (const auto& [id, conflict] : conflicts_) {
    if (std::binary_search(conflict.support.begin(), conflict.support.end(),
                           atom)) {
      out.push_back(conflict);
    }
  }
  CanonicalizeConflicts(out, chase_.num_original());
  return out;
}

}  // namespace kbrepair
