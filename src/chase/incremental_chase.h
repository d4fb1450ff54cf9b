// The chase kernel: the one restricted-chase saturation loop, and a
// long-lived chased base Cl(F) maintained across position fixes.
//
// The restricted (a.k.a. standard) chase fires a TGD trigger only if its
// head is not already satisfied by an extension of the trigger's
// frontier bindings, which — together with weak acyclicity — guarantees
// termination and keeps Cl(F) small. Existential head variables are
// instantiated with fresh labeled nulls from the shared symbol table.
// Every derived atom records its trigger (TGD index plus body-matched
// parent atoms), so a violation on the chased base can be traced back to
// the original facts that support it (GENERATEQUESTION-CHASE, §5).
//
// Saturate() is the only saturation loop in the code base, and this
// class is the only way into it. Two entry points drive it:
// Initialize(), the full chase of a fact base — every one-shot chase
// (consistency checks, query answering, inspection) and every
// maintained base starts there, traced as `chase.saturate` under
// trace::Phase::kChase — and ApplyFix(), the delta re-saturation after
// a position fix, traced as `chase.delta_saturate` under
// trace::Phase::kDeltaChase. When the chase is built with CDDs, each
// wave also searches the constraint bodies anchored at its atoms and
// the saturation stops at the first violation in slot order — the
// paper's CHECKCONSISTENCY-OPT: "⊥ is seen as a unary predicate; if,
// during the chase, the constant ⊥ is produced then the knowledge base
// is inconsistent".
//
// Delta maintenance. A position fix (A, i, t) touches exactly one atom,
// and chase provenance tells us precisely which derived facts depended
// on it. Rather than re-chasing the whole working base before every
// question (the cost behind the paper's Fig. 5 per-question delay,
// Prop. 4.10), ApplyFix:
//
//   1. *Mirror* — the original atoms of the maintained base mirror the
//      caller's working facts; ApplyFix first replays the rewrite on the
//      mirror. They are the prefix [0, num_original) that Initialize
//      chased, plus any atom AddOriginal appended since (the reduced
//      Π-skeleton grows this way, repair/repairability.h).
//   2. *Retract* — every derived atom whose derivation (transitively)
//      used A is tombstoned (FactBase::Remove). Provenance suffices: a
//      derived atom's validity depends only on its parents' current
//      arguments, so atoms outside the cone of A keep valid derivations.
//   3. *Re-saturate* — the chase work queue is re-seeded with A (whose
//      new value may trigger rules) and with re-fired suppressed
//      triggers (below), and runs to fixpoint exactly like the full
//      chase.
//
// The restricted chase suppresses a trigger when its head is already
// satisfied. That check is non-monotone under retraction: a trigger
// blocked by a witness atom must fire once the witness disappears (or is
// rewritten). IncrementalChase therefore keeps a *suppressed-trigger
// ledger*: every time a trigger is blocked — by the head-satisfaction
// test or by the ground-duplicate test — the trigger and its witness
// atoms are recorded. When a fix retracts or rewrites a witness, the
// affected ledger entries are re-checked in a canonical order
// (tgd index, then matched atom ids): entries whose body no longer
// matches are dropped, entries still blocked are re-registered under
// their new witness, and the rest finally fire.
//
// Equivalence envelope (see DESIGN.md "Delta-chase invariants"): for TGD
// sets whose conflict-feeding rules are full (no existential variables) —
// the synthetic and Durum Wheat workloads — the maintained base is
// guaranteed to coincide with a from-scratch restricted chase of the
// current facts, up to renaming of labeled nulls and derived-atom ids,
// and in particular yields the same conflicts (cdd, original-support)
// census. With existential rules feeding conflicts, two valid restricted
// chases can disagree on which of several head-satisfying atoms exists;
// the maintained base is then still a correct restricted chase (sound and
// complete for consistency), but provenance may differ from a fresh run.
// The differential suite in tests/incremental_conflict_test.cc pins the
// envelope down.

#ifndef KBREPAIR_CHASE_INCREMENTAL_CHASE_H_
#define KBREPAIR_CHASE_INCREMENTAL_CHASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/arena.h"
#include "util/cancel.h"
#include "util/cow.h"
#include "util/status.h"

namespace kbrepair {

// A CDD-body homomorphism found during the chase: the violated CDD and,
// per body atom, the matched fact of the chased base.
struct ChaseViolation {
  size_t cdd_index = 0;
  std::vector<AtomId> matched;
};

// Trigger that produced a derived atom. The parent list lives in the
// arena of the chase that minted the derivation, not in a per-derivation
// heap node.
struct Derivation {
  size_t tgd_index = 0;
  ArenaSpan<AtomId> parents;  // body-matched atoms, in body order
};

struct ChaseOptions {
  // Hard cap on the number of alive atoms in the chased base; exceeding
  // it returns Internal. A weakly-acyclic chase stays polynomial, so this
  // is a safety valve against misuse, not an expected limit.
  size_t max_atoms = 1000000;

  // Cooperative cancellation: saturation loops poll this token and abort
  // with DeadlineExceeded once it expires. Shared by every chase-running
  // component built from the same options (finder, repairability checker,
  // delta engines), so one armed deadline bounds a whole engine command.
  std::shared_ptr<CancelToken> cancel;

  // Read by nothing: the chase is single-threaded. Kept only because
  // perfbench's dialogue-large workload still sets it.
  size_t num_threads = 1;
};

class IncrementalChase {
 public:
  // What one ApplyFix or AddOriginal changed in the maintained base.
  struct Delta {
    AtomId modified = 0;            // the rewritten or added original
    std::vector<AtomId> retracted;  // tombstoned derived atoms, ascending
    std::vector<AtomId> added;      // new derived atoms, ascending
  };

  // `symbols` is mutated (fresh nulls); the pointers must outlive the
  // chase. With `cdds`, every saturation also checks the constraint
  // bodies and stops at the first violation (CHECKCONSISTENCY-OPT); a
  // chase stopped that way refuses ApplyFix.
  IncrementalChase(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                   ChaseOptions options = {},
                   const std::vector<Cdd>* cdds = nullptr);

  // Full chase of a copy of `facts`, seeded with its alive atoms (an
  // input may carry tombstones; a dead atom neither anchors triggers nor
  // witnesses violations). Resets all maintained state. Original atoms
  // keep their ids [0, num_original); derived atoms follow. The caller
  // must have validated weak acyclicity; only the atom cap is enforced.
  Status Initialize(const FactBase& facts);

  // Flattens the maintained state (chased base, provenance, ledger) into
  // immutable shared segments so AdoptShared() forks are O(1). Call on a
  // fully saturated prototype that will never be mutated again.
  void FreezeShared();

  // Adopts the frozen maintained state of `frozen` — a prototype
  // saturated over the same rule set and a symbol-table ancestor of this
  // chase's table — instead of re-chasing. Equivalent to Initialize()
  // on the prototype's original facts, in O(delta)=O(1). The chase's own
  // symbols/tgds/options (from the constructor) are kept, so per-session
  // cancel tokens keep working.
  void AdoptShared(const IncrementalChase& frozen);

  bool initialized() const { return initialized_; }

  // The caller has applied (or is about to apply) the position fix
  // (atom, arg, value) to its own working base; replays it on the
  // mirror, retracts the cone of the fixed atom, re-checks suppressed
  // triggers and re-saturates. `atom` must be an original atom.
  // FailedPrecondition when the chase stopped at a violation. (Takes
  // the raw triple rather than repair::Fix to keep chase/ below repair/
  // in the layering.)
  StatusOr<Delta> ApplyFix(AtomId atom, int arg, TermId value);

  // The caller's working facts gained `atom`: adds it to the maintained
  // base as one more original atom and saturates from it. Its id is the
  // next free one, past every derived atom, so from here on IsOriginal()
  // — not the num_original() prefix — tells originals apart. Adding an
  // atom unblocks no suppressed trigger, so nothing is retracted or
  // re-fired. FailedPrecondition when the chase stopped at a violation.
  StatusOr<Delta> AddOriginal(const Atom& atom);

  // The maintained chased base. Contains tombstoned atoms; check
  // facts().alive(id) before dereferencing scan-independent ids.
  const FactBase& facts() const { return chased_; }

  // The original prefix [0, num_original): the atoms Initialize chased.
  size_t num_original() const { return num_original_; }
  // The original prefix plus every atom AddOriginal appended.
  bool IsOriginal(AtomId id) const {
    return id < num_original_ ||
           derivations_[id - num_original_].tgd_index == kAddedOriginal;
  }

  // The rule set the maintained base is saturated under.
  const std::vector<Tgd>* tgds() const { return tgds_; }

  // First CDD violation when the chase was built with CDDs and stopped
  // at one; empty means none (with CDDs: the chased facts are
  // consistent).
  const std::optional<ChaseViolation>& violation() const {
    return violation_;
  }

  // Original atoms transitively supporting `ids` through provenance.
  // Deduplicated, ascending. All ids must be alive. Reuses an
  // epoch-stamped visited bitmap across calls (allocation-free in steady
  // state), so concurrent calls on the same instance are not safe.
  std::vector<AtomId> OriginalSupport(const std::vector<AtomId>& ids) const;

  // Derivation of `id` in the maintained base, or nullptr when `id` is
  // original or tombstoned. The pointer is valid until the next
  // ApplyFix. Inspection API (kbrepair-debug renders provenance cones
  // from the maintained DAG without re-chasing).
  const Derivation* derivation_or_null(AtomId id) const {
    if (id >= chased_.size() || IsOriginal(id) || !chased_.alive(id)) {
      return nullptr;
    }
    return &derivations_[id - num_original_];
  }

  // Lifetime instrumentation (for the delta-chase microbench).
  size_t total_retracted() const { return total_retracted_; }
  size_t total_added() const { return total_added_; }
  size_t total_refired() const { return total_refired_; }
  size_t ledger_size() const { return suppressed_.size(); }

 private:
  // A trigger that was blocked — by head satisfaction or by a ground
  // duplicate — remembered so retraction of its witness can revive it.
  // Bindings are flat (ledger entries are revalidated with the same
  // linear-scan substitution the hot path uses).
  struct SuppressedTrigger {
    size_t tgd_index = 0;
    std::vector<AtomId> matched;  // body-matched atoms, body order;
                                  // empty marks a dead ledger entry
    std::vector<Binding> bindings;
  };

  // Fires a trigger (bindings complete for the frontier): instantiates
  // existentials with fresh nulls, adds non-duplicate head atoms with
  // provenance, enqueues them on `work`, and records suppressions for
  // duplicate head atoms. Returns non-OK only on the atom cap.
  Status FireTrigger(size_t tgd_index, const AtomId* matched,
                     size_t num_matched, const Binding* bindings,
                     size_t num_bindings, std::vector<AtomId>* work);

  // Records a suppressed trigger keyed under the given witness atoms.
  void RecordSuppressed(size_t tgd_index, std::vector<AtomId> matched,
                        std::vector<Binding> bindings,
                        const std::vector<AtomId>& witnesses);

  // The saturation loop: runs waves until the work frontier empties, or
  // until the first CDD violation when the chase has CDDs. A wave is the
  // snapshot of the work queue, saturated in two phases. Phase A
  // enumerates the triggers (and CDD violations) anchored at each slot's
  // atom against the wave-start base. Phase B then fires or suppresses
  // them in slot order against the live base; that order fixes atom ids,
  // null names and provenance. A homomorphism that uses an atom added in
  // this wave's Phase B is found in the next wave, anchored at its
  // last-arriving atom (the semi-naive argument). The caller opens the
  // trace span; `cancel_label` names the work in DeadlineExceeded errors.
  Status Saturate(std::vector<AtomId> wave, const char* cancel_label);

  // The tail of ApplyFix and AddOriginal: saturates from `work` (traced
  // as `chase.delta_saturate`) and appends to delta->added every atom
  // with id >= `size_before`.
  Status Resaturate(std::vector<AtomId> work, size_t size_before,
                    Delta* delta);

  // Marks derived atom `id` dead and detaches it from provenance maps.
  void RetractAtom(AtomId id);

  // Ledger entries currently keyed under `witness`, compacted.
  std::vector<size_t> TakeSuppressedByWitness(AtomId witness);

  // (body predicate) -> [(rule index, body position)].
  using AnchorIndex =
      std::unordered_map<int32_t, std::vector<std::pair<size_t, size_t>>>;

  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions options_;
  // Anchors of the CDD bodies; empty without CDDs.
  AnchorIndex cdd_anchor_index_;

  bool initialized_ = false;
  std::optional<ChaseViolation> violation_;
  FactBase chased_;
  size_t num_original_ = 0;
  // Derivation of atom id (valid while alive); index id - num_original_.
  // An atom AddOriginal appended holds a kAddedOriginal slot instead.
  static constexpr size_t kAddedOriginal = static_cast<size_t>(-1);
  CowVector<Derivation> derivations_;
  // parent atom -> alive derived children (lazily pruned).
  CowMap<AtomId, std::vector<AtomId>> children_;
  // Anchors of the TGD bodies. Immutable after Initialize, shared
  // between a frozen prototype and its forks.
  std::shared_ptr<const AnchorIndex> anchor_index_;

  CowVector<SuppressedTrigger> suppressed_;
  CowMap<AtomId, std::vector<size_t>> suppressed_by_witness_;

  // Owns every Derivation's parent span minted by THIS chase.
  // Adopted/forked instances never mutate an ancestor's arena; they
  // retain the ancestors' arenas so shared derivation spans stay alive.
  std::shared_ptr<Arena> derivation_arena_;
  std::vector<std::shared_ptr<Arena>> retained_arenas_;

  // Saturate's trigger scratch (Phase A spans), reset at the start of
  // every call and after every wave, so steady-state saturations reuse
  // its chunks instead of allocating 64 KB per call. Owned by this chase
  // alone: neither copied nor adopted (the class is not copyable).
  Arena scratch_;

  // FireTrigger scratch (frontier bindings + fresh-null tail).
  std::vector<Binding> head_scratch_;

  // OriginalSupport scratch: epoch-stamped visited marks.
  mutable std::vector<uint32_t> support_epoch_;
  mutable uint32_t support_epoch_counter_ = 0;
  mutable std::vector<AtomId> support_frontier_;

  size_t total_retracted_ = 0;
  size_t total_added_ = 0;
  size_t total_refired_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_INCREMENTAL_CHASE_H_
