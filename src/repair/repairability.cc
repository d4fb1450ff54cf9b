#include "repair/repairability.h"

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
// rewriting p back to the scratch null restores S.

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
    scratch_nulls_.push_back(symbols_->InternNull(
        "_S" + std::to_string(scratch_nulls_.size())));
  }
  return scratch_nulls_[index];
}

FactBase RepairabilityChecker::BuildSkeleton(const FactBase& facts,
                                             const PositionSet& pi) const {
  FactBase skeleton = facts;
  size_t flat = 0;  // flat position index; advances over Π positions too
  for (AtomId id = 0; id < skeleton.size(); ++id) {
    const int arity = skeleton.atom(id).arity();
    for (int arg = 0; arg < arity; ++arg, ++flat) {
      if (pi.count(Position{id, arg}) == 0) {
        skeleton.SetArg(id, arg, ScratchNull(flat));
      }
    }
  }
  return skeleton;
}

TermId RepairabilityChecker::SkeletonNullFor(const FactBase& facts,
                                             const Position& p) const {
  size_t flat = 0;
  for (AtomId id = 0; id < p.atom; ++id) {
    flat += static_cast<size_t>(facts.atom(id).arity());
  }
  return ScratchNull(flat + static_cast<size_t>(p.arg));
}

StatusOr<bool> RepairabilityChecker::IsPiRepairable(
    const FactBase& facts, const PositionSet& pi) const {
  trace::ScopedSpan span("repair.repairability", trace::Phase::kRepairability);
  const FactBase skeleton = BuildSkeleton(facts, pi);
  ConsistencyChecker checker(symbols_, tgds_, cdds_, chase_options_);
  return checker.IsConsistentOpt(skeleton);
}

Status RepairabilityChecker::EnsureSkeleton(const FactBase& facts,
                                            const PositionSet& pi) {
  if (skeleton_ != nullptr) return Status::Ok();
  trace::ScopedSpan span("repair.repairability", trace::Phase::kRepairability);
  skeleton_ = std::make_unique<DeltaConflictEngine>(symbols_, tgds_, cdds_,
                                                    chase_options_);
  const Status status = skeleton_->Initialize(BuildSkeleton(facts, pi));
  // A half-initialized engine must not pass for a live one; a deadline
  // is retried as-is rather than counted.
  if (status.code() == StatusCode::kDeadlineExceeded) {
    skeleton_.reset();
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
}

void RepairabilityChecker::SyncSkeleton(const FactBase& facts,
                                        const PositionSet& pi,
                                        const Position& p) {
  if (skeleton_ == nullptr) return;
  const TermId value =
      pi.count(p) > 0 ? facts.atom(p.atom).args[static_cast<size_t>(p.arg)]
                      : SkeletonNullFor(facts, p);
  if (!skeleton_->OnFixApplied(p.atom, p.arg, value).ok()) DropSkeleton();
}

void RepairabilityChecker::DropSkeleton() {
  skeleton_.reset();
  if (engine_rebuilds_ != nullptr) ++*engine_rebuilds_;
}

StatusOr<bool> RepairabilityChecker::ProbeSkeleton(const FactBase& facts,
                                                   const PositionSet& pi,
                                                   const Fix& fix) {
  trace::ScopedSpan span("repair.repairability", trace::Phase::kRepairability);
  const TermId scratch = SkeletonNullFor(facts, fix.position());
  Status status;
  for (int attempt = 0; attempt < 2; ++attempt) {
    KBREPAIR_RETURN_IF_ERROR(EnsureSkeleton(facts, pi));
    status = skeleton_->OnFixApplied(fix.atom, fix.arg, fix.value);
    const bool consistent = skeleton_->empty();
    if (status.ok()) {
      status = skeleton_->OnFixApplied(fix.atom, fix.arg, scratch);
    }
    if (status.ok()) return consistent;
    // A failed rewrite or revert leaves the skeleton stale.
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
