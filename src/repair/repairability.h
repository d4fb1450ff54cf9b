// Π-repairability (Definition 3.6, Algorithm 1) and its optimized
// per-fix variant Π-REPOPT (Section 5).
//
// K is Π-repairable iff some r-fix avoids all positions in Π. Algorithm 1
// decides this by building the *Π-skeleton*: a copy of F where every
// position outside Π is replaced by a fresh labeled null unique to that
// position. The skeleton is the "most repaired" KB compatible with
// freezing Π, so K is Π-repairable iff the skeleton is consistent.
//
// The checker builds a *reduced* skeleton instead, whose size follows Π,
// not F:
//  * every atom of F that touches Π, with its F values at Π positions and
//    scratch nulls elsewhere;
//  * one all-scratch-null representative per predicate of F, standing in
//    for the atoms that touch no Π position.
// An untouched atom of the full skeleton carries only fresh, pairwise
// distinct nulls, so mapping it onto its predicate's representative is a
// homomorphism, and the representative maps back onto any atom of its
// predicate. The full and reduced skeletons are therefore homomorphically
// equivalent, and so are their chases; a CDD body is an equality-only
// Boolean CQ, so it holds in one chase iff in the other, and both give
// the same verdict (DESIGN.md §6 has the proof, and why `≠` in a CDD
// would break it). By the same argument, adding one more all-null copy
// of an untouched atom never changes the verdict.
//
// Production code never chases a skeleton from scratch. The checker
// maintains one skeleton per dialogue: a DeltaConflictEngine over the
// reduced skeleton of (F, Π), whose census is empty iff K is
// Π-repairable. Every Π change is replayed onto it. The first time an
// untouched atom is touched — by an answer, an opti-prop freeze or a
// Π-REPOPT probe — it is *materialized*: added with its skeleton values
// (DeltaConflictEngine::AddOriginal), which by the remark above keeps the
// verdict. A materialized atom's positions are then rewritten — a fixed or
// frozen position takes its value in F, an unfrozen one its scratch null
// — so a verdict costs a delta chase. The one-shot skeleton chase of
// Algorithm 1 (Π-REP below) is the reference that tests and benchmarks
// compare the maintained skeleton against.
//
// Π-REPOPT exploits two observations (both proved in the file comments of
// repairability.cc):
//  * a candidate fix whose value is fresh — a brand-new null, or any term
//    that appears neither at a Π position nor as a constant inside a rule
//    — behaves exactly like the skeleton's own null, so Π-repairability
//    is preserved for free;
//  * if the current skeleton is already inconsistent, no single fix can
//    make it consistent (nulls are the least-constraining values), so
//    every candidate fails.
// Only value-colliding candidates pay for a full check, and it runs on
// the maintained skeleton: the candidate position p (p ∉ Π) is rewritten
// to the candidate value (its atom materialized with that value, on
// first touch), the census read, and p rewritten back to its scratch
// null. That is exact, because
// skeleton(F[p:=v], Π ∪ {p}) is the current skeleton with p := v.

#ifndef KBREPAIR_REPAIR_REPAIRABILITY_H_
#define KBREPAIR_REPAIR_REPAIRABILITY_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/incremental_chase.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/delta_conflicts.h"
#include "repair/fix.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

class RepairabilityChecker {
 public:
  // Pointed-to objects must outlive the checker; `symbols` is mutated
  // (scratch nulls and chase nulls). Every drop of a failed maintained
  // skeleton is counted in `*engine_rebuilds` when given.
  RepairabilityChecker(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                       const std::vector<Cdd>* cdds,
                       ChaseOptions chase_options = {},
                       size_t* engine_rebuilds = nullptr);

  // Algorithm 1, Π-REP(K, Π): true iff K is Π-repairable. The reference
  // one-shot chase of the reduced skeleton.
  StatusOr<bool> IsPiRepairable(const FactBase& facts,
                                const PositionSet& pi) const;

  // --- The maintained Π-skeleton -----------------------------------------

  // Builds the maintained skeleton of (facts, Π) cold unless one is live.
  // On failure nothing is live, so the call is retry-safe; a failure
  // other than a deadline counts as a rebuild.
  Status EnsureSkeleton(const FactBase& facts, const PositionSet& pi);

  // Makes a frozen skeleton(F, ∅) prototype (repair/kb_snapshot.h) the
  // live skeleton, for a dialogue over F that starts with Π = ∅. Such a
  // prototype holds only the representatives, no atom of F.
  void AdoptSkeleton(const DeltaConflictEngine& prototype);

  // Position `p` changed in F or in Π: gives it on the live skeleton its
  // skeleton value under (facts, Π) — its value in F when p ∈ Π, else its
  // scratch null — materializing its atom first if untouched. A failed
  // rewrite drops the skeleton (counted) for EnsureSkeleton to rebuild.
  // No-op when no skeleton is live.
  void SyncSkeleton(const FactBase& facts, const PositionSet& pi,
                    const Position& p);

  // The live skeleton engine, or null (not built yet, or dropped).
  const DeltaConflictEngine* skeleton() const { return skeleton_.get(); }

  // Hands the live skeleton over (shared-base prototype building).
  std::unique_ptr<DeltaConflictEngine> ReleaseSkeleton() {
    layout_ = Layout{};
    return std::move(skeleton_);
  }

  // Per-question Π-REPOPT over the live skeleton, which must mirror the
  // *current* (facts, Π) (see EnsureSkeleton); then each candidate fix is
  // tested with FixKeepsRepairable.
  class Scope {
   public:
    Scope(RepairabilityChecker* checker, const FactBase& facts,
          const PositionSet& pi);
    // The scope keeps a pointer to `pi`; a temporary would dangle.
    Scope(RepairabilityChecker* checker, const FactBase& facts,
          PositionSet&& pi) = delete;

    // True iff the skeleton is consistent, i.e., K is Π-repairable.
    // When false, every FixKeepsRepairable call answers false.
    bool BaseRepairable() const { return base_consistent_; }

    // Does apply(F, {fix}) stay (Π ∪ {pos(fix)})-repairable? The fix's
    // position must not be in Π.
    StatusOr<bool> FixKeepsRepairable(const Fix& fix);

    // Instrumentation for the ablation benchmark.
    size_t num_fast_paths() const { return num_fast_paths_; }
    size_t num_full_checks() const { return num_full_checks_; }

   private:
    // Occurrences of `value` at Π positions — identical to the
    // skeleton's term-use count for any candidate value, since every
    // non-Π skeleton position holds a scratch null candidates never
    // collide with.
    size_t PiUseCount(TermId value) const;

    RepairabilityChecker* checker_;
    const FactBase* facts_;
    const PositionSet* pi_;
    std::unordered_map<TermId, size_t> pi_value_counts_;
    bool base_consistent_ = false;
    size_t num_fast_paths_ = 0;
    size_t num_full_checks_ = 0;
  };

 private:
  // Where a skeleton holds an atom of F: its id in the skeleton, and the
  // pool index of its first scratch null (argument i has null
  // first_null + i, whether or not i is in Π).
  struct SkeletonAtom {
    AtomId id = 0;
    size_t first_null = 0;
  };
  // The atoms of F a skeleton holds, and how many pool nulls it took.
  struct Layout {
    std::unordered_map<AtomId, SkeletonAtom> atoms;
    size_t num_nulls = 0;
  };

  // The reduced Π-skeleton of `facts`: the representatives (in predicate
  // id order), then the atoms touching Π (ascending id), recorded in
  // `*layout`. Scratch nulls are taken from the pool in that order, so
  // the skeleton interns Σ arity nulls over the predicates of F plus the
  // touched atoms, however large F is.
  FactBase BuildSkeleton(const FactBase& facts, const PositionSet& pi,
                         Layout* layout) const;

  // Atom `atom` of F as a skeleton of (facts, Π) holds it: its F value at
  // Π positions, scratch null first_null + i at each other argument i.
  Atom SkeletonValues(const FactBase& facts, const PositionSet& pi,
                      AtomId atom, size_t first_null) const;

  // Adds atom `atom` of F, which the live skeleton does not hold yet,
  // with its skeleton values under (facts, Π) — or, given a `probe` on
  // it, with the probed value in place at the probed argument.
  StatusOr<SkeletonAtom> Materialize(const FactBase& facts,
                                     const PositionSet& pi, AtomId atom,
                                     const Fix* probe);

  // The stable scratch null of argument `arg` of a held atom.
  TermId SkeletonNullFor(const SkeletonAtom& held, int arg) const {
    return ScratchNull(held.first_null + static_cast<size_t>(arg));
  }

  // Full Π-REPOPT check of `fix` on the live skeleton. A failed
  // materialization or rewrite drops the skeleton; it is rebuilt cold
  // from (facts, Π) and the fix re-probed once, unless the failure was a
  // deadline.
  StatusOr<bool> ProbeSkeleton(const FactBase& facts, const PositionSet& pi,
                               const Fix& fix);

  void DropSkeleton();

  // Scratch null #index of this checker's pool, minted (as "_S<k>") on
  // first use. Every skeleton this checker builds draws from the pool in
  // order, so the symbol table does not grow with every rebuild.
  TermId ScratchNull(size_t index) const;

  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions chase_options_;
  size_t* engine_rebuilds_;
  // Constants mentioned inside rule/constraint bodies or heads; a value
  // colliding with one of these can trigger a constraint even if no
  // other fact carries it.
  std::unordered_set<TermId> rule_constants_;
  mutable std::vector<TermId> scratch_nulls_;
  std::unique_ptr<DeltaConflictEngine> skeleton_;
  Layout layout_;  // of the live skeleton
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_REPAIRABILITY_H_
