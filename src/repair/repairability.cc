#include "repair/repairability.h"

#include <algorithm>
#include <utility>

#include "repair/consistency.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

// Soundness notes.
//
// (1) Fresh-value fast path. Let S be the Π-skeleton and S[p:=v] the
// skeleton with candidate value v at position p. If v occurs nowhere else
// in S (it is not a Π-position value) and v is not a constant of any rule
// or constraint, then the structure map that renames v to p's own scratch
// null is an isomorphism between S[p:=v] and S that every TGD/CDD body
// respects: join variables need equal values at two positions (v occurs
// at exactly one), and body constants never equal v. Hence S[p:=v] is
// consistent iff S is — which is the Scope's precondition check.
//
// (2) Inconsistent-base short-circuit. Homomorphisms into S embed into
// S[p:=v] for any v: the scratch null at p is unique, so no CDD/TGD body
// atom can be *forced* to match through it except via lone variables,
// which match v just as well. So if S is inconsistent, so is S[p:=v] for
// every candidate v, and every fix fails the Π-REPOPT test.
//
// (3) Full check. Position p ∉ Π holds its scratch null in S, so
// skeleton(F[p:=v], Π ∪ {p}) is exactly S[p:=v]: rewriting p on the
// maintained skeleton and reading its census decides the candidate, and
// rewriting p back to the scratch null restores S. When p's atom is not
// held yet, it is added carrying v at p, which is S[p:=v] as the reduced
// skeleton of (F[p:=v], Π ∪ {p}) holds it; the revert leaves it an
// all-null atom, which by the homomorphic equivalence of the header
// comment keeps S's verdict.

RepairabilityChecker::RepairabilityChecker(SymbolTable* symbols,
                                           const std::vector<Tgd>* tgds,
                                           const std::vector<Cdd>* cdds,
                                           ChaseOptions chase_options,
                                           size_t* engine_rebuilds)
    : symbols_(symbols),
      tgds_(tgds),
      cdds_(cdds),
      chase_options_(chase_options),
      engine_rebuilds_(engine_rebuilds) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(tgds != nullptr);
  KBREPAIR_CHECK(cdds != nullptr);
  auto collect_constants = [this](const std::vector<Atom>& atoms) {
    for (const Atom& atom : atoms) {
      for (TermId term : atom.args) {
        if (symbols_->IsConstant(term)) rule_constants_.insert(term);
      }
    }
  };
  for (const Tgd& tgd : *tgds) {
    collect_constants(tgd.body());
    collect_constants(tgd.head());
  }
  for (const Cdd& cdd : *cdds) collect_constants(cdd.body());
}

TermId RepairabilityChecker::ScratchNull(size_t index) const {
  while (scratch_nulls_.size() <= index) {
    scratch_nulls_.push_back(symbols_->MakeScratchNull());
  }
  return scratch_nulls_[index];
}

Atom RepairabilityChecker::SkeletonValues(const FactBase& facts,
                                          const PositionSet& pi, AtomId atom,
                                          size_t first_null) const {
  Atom values = facts.atom(atom);
  for (int arg = 0; arg < values.arity(); ++arg) {
    if (pi.count(Position{atom, arg}) == 0) {
      values.args[static_cast<size_t>(arg)] =
          ScratchNull(first_null + static_cast<size_t>(arg));
    }
  }
  return values;
}

FactBase RepairabilityChecker::BuildSkeleton(const FactBase& facts,
                                             const PositionSet& pi,
                                             Layout* layout) const {
  FactBase skeleton;
  for (PredicateId pred = 0;
       pred < static_cast<PredicateId>(symbols_->num_predicates()); ++pred) {
    if (facts.AtomsWithPredicate(pred).empty()) continue;
    std::vector<TermId> nulls(
        static_cast<size_t>(symbols_->predicate_arity(pred)));
    for (TermId& null : nulls) null = ScratchNull(layout->num_nulls++);
    skeleton.Add(Atom(pred, std::move(nulls)));
  }
  std::vector<AtomId> touched;
  for (const Position& p : pi) {
    if (p.atom < facts.size()) touched.push_back(p.atom);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const AtomId atom : touched) {
    const size_t first_null = layout->num_nulls;
    layout->num_nulls += static_cast<size_t>(facts.atom(atom).arity());
    const AtomId id =
        skeleton.Add(SkeletonValues(facts, pi, atom, first_null));
    layout->atoms.emplace(atom, SkeletonAtom{id, first_null});
  }
  return skeleton;
}

StatusOr<RepairabilityChecker::SkeletonAtom>
RepairabilityChecker::Materialize(const FactBase& facts,
                                  const PositionSet& pi, AtomId atom,
                                  const Fix* probe) {
  KBREPAIR_DCHECK(layout_.atoms.count(atom) == 0);
  const size_t first_null = layout_.num_nulls;
  layout_.num_nulls += static_cast<size_t>(facts.atom(atom).arity());
  Atom values = SkeletonValues(facts, pi, atom, first_null);
  if (probe != nullptr) {
    values.args[static_cast<size_t>(probe->arg)] = probe->value;
  }
  KBREPAIR_ASSIGN_OR_RETURN(const AtomId id, skeleton_->AddOriginal(values));
  return layout_.atoms.emplace(atom, SkeletonAtom{id, first_null})
      .first->second;
}

StatusOr<bool> RepairabilityChecker::IsPiRepairable(
    const FactBase& facts, const PositionSet& pi) const {
  trace::ScopedSpan span("repair.repairability", trace::Phase::kRepairability);
  Layout layout;
  const FactBase skeleton = BuildSkeleton(facts, pi, &layout);
  ConsistencyChecker checker(symbols_, tgds_, cdds_, chase_options_);
  return checker.IsConsistentOpt(skeleton);
}

Status RepairabilityChecker::EnsureSkeleton(const FactBase& facts,
                                            const PositionSet& pi) {
  if (skeleton_ != nullptr) return Status::Ok();
  trace::ScopedSpan span("repair.repairability", trace::Phase::kRepairability);
  skeleton_ = std::make_unique<DeltaConflictEngine>(symbols_, tgds_, cdds_,
                                                    chase_options_);
  layout_ = Layout{};
  const Status status =
      skeleton_->Initialize(BuildSkeleton(facts, pi, &layout_));
  // A half-initialized engine must not pass for a live one; a deadline
  // is retried as-is rather than counted.
  if (status.code() == StatusCode::kDeadlineExceeded) {
    skeleton_.reset();
    layout_ = Layout{};
  } else if (!status.ok()) {
    DropSkeleton();
  }
  return status;
}

void RepairabilityChecker::AdoptSkeleton(
    const DeltaConflictEngine& prototype) {
  skeleton_ = std::make_unique<DeltaConflictEngine>(symbols_, tgds_, cdds_,
                                                    chase_options_);
  KBREPAIR_CHECK(skeleton_->InitializeFromShared(prototype).ok());
  // The prototype's representatives hold the nulls of the checker that
  // built it; this pool mints its own, so they never collide.
  layout_ = Layout{};
}

void RepairabilityChecker::SyncSkeleton(const FactBase& facts,
                                        const PositionSet& pi,
                                        const Position& p) {
  if (skeleton_ == nullptr) return;
  Status status;
  auto it = layout_.atoms.find(p.atom);
  if (it == layout_.atoms.end()) {
    // First touch: the atom enters with its skeleton values, p's included.
    status = Materialize(facts, pi, p.atom, nullptr).status();
  } else {
    const SkeletonAtom held = it->second;
    const TermId value =
        pi.count(p) > 0 ? facts.atom(p.atom).args[static_cast<size_t>(p.arg)]
                        : SkeletonNullFor(held, p.arg);
    status = skeleton_->OnFixApplied(held.id, p.arg, value);
  }
  if (!status.ok()) DropSkeleton();
}

void RepairabilityChecker::DropSkeleton() {
  skeleton_.reset();
  layout_ = Layout{};
  if (engine_rebuilds_ != nullptr) ++*engine_rebuilds_;
}

StatusOr<bool> RepairabilityChecker::ProbeSkeleton(const FactBase& facts,
                                                   const PositionSet& pi,
                                                   const Fix& fix) {
  trace::ScopedSpan span("repair.repairability", trace::Phase::kRepairability);
  Status status;
  for (int attempt = 0; attempt < 2; ++attempt) {
    KBREPAIR_RETURN_IF_ERROR(EnsureSkeleton(facts, pi));
    SkeletonAtom held;
    auto it = layout_.atoms.find(fix.atom);
    if (it != layout_.atoms.end()) {
      held = it->second;
      status = skeleton_->OnFixApplied(held.id, fix.arg, fix.value);
    } else {
      // First touch: the atom enters already carrying the candidate, so
      // it is S[p:=v] as the rewrite would have left it.
      StatusOr<SkeletonAtom> added = Materialize(facts, pi, fix.atom, &fix);
      status = added.status();
      if (status.ok()) held = *added;
    }
    const bool consistent = skeleton_->empty();
    if (status.ok()) {
      status = skeleton_->OnFixApplied(held.id, fix.arg,
                                       SkeletonNullFor(held, fix.arg));
    }
    if (status.ok()) return consistent;
    // A failed materialization, rewrite or revert leaves the skeleton
    // stale.
    DropSkeleton();
    if (status.code() == StatusCode::kDeadlineExceeded) break;
  }
  return status;
}

RepairabilityChecker::Scope::Scope(RepairabilityChecker* checker,
                                   const FactBase& facts,
                                   const PositionSet& pi)
    : checker_(checker), facts_(&facts), pi_(&pi) {
  KBREPAIR_CHECK(checker != nullptr && checker->skeleton_ != nullptr);
  for (const Position& position : pi) {
    if (position.atom < facts.size() &&
        position.arg < facts.atom(position.atom).arity()) {
      ++pi_value_counts_[facts.atom(position.atom)
                             .args[static_cast<size_t>(position.arg)]];
    }
  }
  base_consistent_ = checker->skeleton_->empty();
}

size_t RepairabilityChecker::Scope::PiUseCount(TermId value) const {
  auto it = pi_value_counts_.find(value);
  return it == pi_value_counts_.end() ? 0 : it->second;
}

StatusOr<bool> RepairabilityChecker::Scope::FixKeepsRepairable(
    const Fix& fix) {
  if (!base_consistent_) return false;  // short-circuit (2) above

  const SymbolTable& symbols = *checker_->symbols_;
  const TermId value = fix.value;
  // Candidate values never collide with the skeleton's scratch nulls, so
  // occurrences at Π positions are exactly the skeleton's use count.
  const bool is_fresh_null = symbols.IsNull(value) && PiUseCount(value) == 0;
  const bool is_fresh_value = PiUseCount(value) == 0 &&
                              checker_->rule_constants_.count(value) == 0 &&
                              !symbols.IsVariable(value);
  if (is_fresh_null || is_fresh_value) {
    ++num_fast_paths_;
    return true;  // fast path (1) above
  }

  ++num_full_checks_;
  return checker_->ProbeSkeleton(*facts_, *pi_, fix);
}

}  // namespace kbrepair
