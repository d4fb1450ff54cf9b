// The conflict census allconflicts(K) (Algorithm 3) and its
// index-anchored maintenance over a maintained chased base —
// UPDATECONFLICTS (Section 5) for naive and chased conflicts alike.
//
// DeltaConflictEngine owns an IncrementalChase whose maintained base
// mirrors the working facts. Initialize() chases the facts and takes the
// full census; it is also every one-shot census in the code base (CQA,
// deletion repairs, GreedyRFix, kbrepair-debug's reference), run on a
// throwaway engine. The engine then keeps the census current without
// recomputing it. After a fix it
//
//   1. replays the fix on the chase (retract cone / re-saturate),
//   2. drops every live conflict whose homomorphism used the modified
//      atom or a retracted atom (found through a matched-atom index, not
//      a scan), and
//   3. re-enumerates CDD bodies pinned at each changed atom — the
//      modified atom plus every newly derived one — via the
//      (predicate -> [(cdd, body position)]) anchor index, so only CDDs
//      whose bodies mention a touched predicate are evaluated at all.
//
// Dedup across anchors: a homomorphism using several changed atoms is
// kept only when enumerated at its minimal changed atom, pinned at the
// first body position mapping to it. A re-found homomorphism cannot
// coincide with a live conflict: it uses a changed atom, and every live
// conflict using one was dropped in step 2 (newly derived ids are fresh).
//
// Naive conflicts. A conflict whose matched atoms are all original
// (IncrementalChase::IsOriginal) is exactly a naive conflict of the
// working facts: the maintained base restricted to original ids is F.
// Its canonical support is its distinct matched atoms. The engine keeps
// these in an ordered index, which is phase one's census (Algorithm 4).
//
// Selection indexes. Question selection reads three more structures,
// each built on its first read — so Initialize, InitializeFromShared and
// a cold rebuild do no extra work — and from then on updated on every
// conflict add, drop and support change, never recounted:
//   * census(): every live conflict in canonical order (CensusOrder);
//   * ranks(kNaive), ranks(kCensus): opti-mcd's rank state over the
//     naive conflicts (phase one) and over the whole census (phase two,
//     Algorithm 3) — position -> the live conflicts whose resolving
//     position set contains it.
// Supports of derived conflicts are refreshed through a (derived
// predicate -> conflicts) index, and a release build verifies only the
// conflicts a fix touched; VerifyInvariants() is the full walk.
//
// Cross-engine determinism. Derived-atom ids differ between a maintained
// base and a from-scratch chase (a rebuilt or cold reference engine, or
// the scratch census the tests compare against), and so does raw
// enumeration order. Conflicts are therefore ordered by CanonicalConflictLess — the
// engine-independent identity (cdd, matched pattern with derived ids
// collapsed to a sentinel, original support) — before any RNG-consuming
// selection. Conflicts tying on the full key are interchangeable for
// question generation, which consumes nothing beyond the key.

#ifndef KBREPAIR_REPAIR_DELTA_CONFLICTS_H_
#define KBREPAIR_REPAIR_DELTA_CONFLICTS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chase/incremental_chase.h"
#include "chase/support.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/conflict.h"
#include "repair/fix.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

// Engine-independent total preorder on conflicts: (cdd index, matched
// with every derived id replaced by a sentinel, support). `num_original`
// is the working fact-base size; ids >= num_original are chase-derived.
// (Atoms AddOriginal appends sort with the derived ones; only the reduced
// Π-skeleton has any, and only its census' emptiness is read.)
bool CanonicalConflictLess(const Conflict& a, const Conflict& b,
                           size_t num_original);

// Sorts `conflicts` by CanonicalConflictLess. The maintained engine runs
// its census through this before selection, and so does every scratch
// reference census it is compared against, which is what makes a
// rebuilt engine's dialogue identical to a maintained one's per-seed.
void CanonicalizeConflicts(std::vector<Conflict>& conflicts,
                           size_t num_original);

// CanonicalConflictLess made total on one engine's live conflicts: ties
// are broken by the raw matched ids, which differ between any two live
// conflicts of the same CDD. Tied conflicts are interchangeable for
// question generation, so the tie-break never shows in a dialogue.
struct CensusOrder {
  size_t num_original = 0;
  bool operator()(const Conflict* a, const Conflict* b) const;
};
using Census = std::set<const Conflict*, CensusOrder>;

// opti-mcd's rank state over one census (Section 5): position -> the
// census conflicts whose RetrievePositions(kResolvingPositions) set
// contains it, and the positions ordered by rank, that holder count.
class RankTable {
 public:
  struct Ranked {
    size_t rank = 0;
    Position position;
    bool operator==(const Ranked& other) const {
      return rank == other.rank && position == other.position;
    }
  };
  // Highest rank first; ascending positions within a rank.
  struct RankedOrder {
    bool operator()(const Ranked& a, const Ranked& b) const {
      return a.rank != b.rank ? a.rank > b.rank : a.position < b.position;
    }
  };
  using Ranking = std::set<Ranked, RankedOrder>;
  // A position's holders in canonical order. A position is held by few
  // conflicts, so a sorted vector beats a node-based set.
  using Holders = std::vector<const Conflict*>;

  // Each conflict with the positions it holds.
  using Held = std::vector<std::pair<const Conflict*, std::vector<Position>>>;

  // The table of a census, counted in one pass.
  RankTable(CensusOrder order, const Held& held);

  // Every held position with its rank; the runs of equal rank are
  // opti-mcd's groups.
  const Ranking& ranking() const { return ranking_; }

  // The conflicts holding `position`, canonical order; nullptr when none.
  const Holders* holders(const Position& position) const;

  // The first holder of `position` in canonical order other than `skip`
  // (SOUNDQUESTION's conflict for an opti-mcd position); nullptr when
  // none.
  const Conflict* FirstHolder(const Position& position,
                              const Conflict* skip = nullptr) const;

  // `conflict` starts / stops holding each of `positions`.
  void Add(const Conflict* conflict, const std::vector<Position>& positions);
  void Remove(const Conflict* conflict,
              const std::vector<Position>& positions);

  bool operator==(const RankTable& other) const {
    return holders_ == other.holders_ && ranking_ == other.ranking_;
  }

 private:
  // Re-keys `position` from rank `from` to rank `to` (rank 0: unranked).
  void Rerank(const Position& position, size_t from, size_t to);

  CensusOrder order_;
  std::unordered_map<Position, Holders, PositionHash> holders_;
  Ranking ranking_;
};

class DeltaConflictEngine {
 public:
  // All pointers must outlive the engine; `symbols` is mutated (fresh
  // nulls minted by the underlying chase).
  DeltaConflictEngine(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                      const std::vector<Cdd>* cdds,
                      ChaseOptions chase_options = {});

  // Chases a copy of `facts` and takes the full conflict census.
  // Resets all maintained state.
  Status Initialize(const FactBase& facts);

  // Flattens the maintained chase into immutable shared segments so
  // InitializeFromShared() forks are O(census) instead of O(chase).
  // Call once on a fully initialized prototype never mutated again.
  void FreezeShared() { chase_.FreezeShared(); }

  // Initialize() by adoption: takes the frozen prototype's chased base
  // and conflict census instead of re-chasing and re-scanning. The
  // prototype must have been built over the same facts and rule vectors
  // this engine was constructed against (its symbol table an ancestor of
  // this engine's); the engine's own constructor-time symbols/options —
  // per-session cancel tokens in particular — stay in effect.
  Status InitializeFromShared(const DeltaConflictEngine& frozen);

  bool initialized() const { return chase_.initialized(); }

  // The caller has applied the position fix (atom, arg, value) to its
  // working base; replays it here and maintains the conflict set.
  Status OnFixApplied(AtomId atom, int arg, TermId value);

  // The caller's working facts gained `atom`: adds it to the maintained
  // chase as an original atom (IncrementalChase::AddOriginal) and
  // maintains the conflict set. Returns its id in chase().facts().
  StatusOr<AtomId> AddOriginal(const Atom& atom);

  bool empty() const { return conflicts_.empty(); }
  size_t size() const { return conflicts_.size(); }

  // The live naive conflicts (every matched atom original), in canonical
  // order, which on naive conflicts is (cdd, matched). The pointers stay
  // valid until the next OnFixApplied, AddOriginal or (re)initialization.
  const Census& naive_conflicts() const { return naive_; }
  size_t naive_size() const { return naive_.size(); }

  // Every live conflict in canonical order, read in place (same pointer
  // validity). Built on first call, maintained from then on.
  const Census& census();

  // Which census an opti-mcd rank table counts over.
  enum class RankScope {
    kNaive,   // naive_conflicts(): phase one
    kCensus,  // census(): phase two and Algorithm 3
  };

  // opti-mcd's rank state over that census. Built on first call,
  // maintained from then on.
  const RankTable& ranks(RankScope scope);

  // The positions `conflict` holds in a rank table:
  // RetrievePositions(kResolvingPositions) over the maintained base.
  std::vector<Position> RankedPositions(const Conflict& conflict) const;

  // The rank table of `scope` if a ranks() call has built it, else
  // nullptr. Inspection only; builds nothing.
  const RankTable* built_ranks(RankScope scope) const;

  // Copies of the live naive conflicts, in the order of
  // naive_conflicts().
  std::vector<Conflict> CanonicalNaiveConflicts() const;

  // True when some live naive conflict matches `atom`.
  bool NaiveConflictMatches(AtomId atom) const;

  // Live conflicts in canonical order. Matched ids refer to the
  // maintained base (chase().facts()); supports are original atoms.
  std::vector<Conflict> CanonicalConflicts() const;

  // Live conflicts (canonical order) whose original-atom support
  // contains `atom`. Inspection accessor for kbrepair-debug's
  // conflict-membership views; linear in the census.
  std::vector<Conflict> ConflictsUsingSupport(AtomId atom) const;

  // Structural self-check: each live conflict must match only alive
  // atoms of the maintained base and carry a non-empty original-atom
  // support, the matched and derived-predicate indexes must mirror the
  // conflict map, the naive index and a built census() must hold exactly
  // the naive / all live conflicts, and a built rank table must equal a
  // recount over its census. Internal on violation — the inquiry engine
  // treats that as divergence and drops the engine for a cold rebuild
  // rather than trusting a corrupt census. Debug builds run it after
  // every fix; release builds run the per-conflict checks on the
  // conflicts the fix added or re-supported only.
  Status VerifyInvariants() const;

  const IncrementalChase& chase() const { return chase_; }

 private:
  // Enumerates CDD bodies pinned at each anchor (ascending ids) and adds
  // the surviving homomorphisms. `anchors` must be sorted ascending.
  void AddConflictsAnchoredAt(const std::vector<AtomId>& anchors,
                              CanonicalSupportResolver& support);

  // Maintains the census across one chase delta (steps 2 and 3 of the
  // file comment, then the support refresh and the self-check).
  Status Absorb(const IncrementalChase::Delta& delta);

  // Re-resolves the support of live conflicts whose homomorphism
  // involves a derived atom that a changed atom could prove. Canonical
  // support is a function of the whole base, so a fix can change the
  // minimal proof of an atom whose conflicts survived the drop step
  // untouched — but only if the changed atom's predicate reaches the
  // derived atom's predicate in the TGD body->head graph; every atom in
  // any proof tree of a has a predicate in contributors_[pred(a)], so
  // conflicts outside that cone keep their supports verbatim. Appends
  // the ids whose support changed to `touched`.
  void RefreshDerivedSupports(const std::unordered_set<int32_t>& changed_preds,
                              CanonicalSupportResolver& support,
                              std::vector<uint64_t>& touched);

  // The per-conflict checks of VerifyInvariants.
  Status VerifyConflict(uint64_t id, const Conflict& conflict) const;

  bool IsNaive(const Conflict& conflict) const;
  // Enters `id` in by_derived_pred_ under each derived atom it matches.
  void IndexDerived(uint64_t id, const Conflict& conflict);
  void AddConflict(Conflict conflict);
  void DropConflictsMatching(AtomId atom);
  // Enters `conflict` into / removes it from every built selection
  // index.
  void IndexForSelection(const Conflict& conflict);
  void UnindexForSelection(const Conflict& conflict);
  // Drops every selection index, to be rebuilt on its next read.
  void ResetSelectionIndexes();
  // The rank table of `scope` counted from the live conflicts.
  RankTable CountRanks(RankScope scope) const;

  IncrementalChase chase_;
  SymbolTable* symbols_;
  const std::vector<Cdd>* cdds_;

  // CDD-body predicate -> [(cdd index, body position)].
  std::unordered_map<int32_t, std::vector<std::pair<size_t, size_t>>>
      cdd_anchor_index_;

  // Derived predicate -> predicates that can transitively contribute to
  // its derivations (reflexive-transitive closure of the TGD body->head
  // predicate edges, restricted to predicates that occur in TGD heads).
  std::unordered_map<int32_t, std::unordered_set<int32_t>> contributors_;

  std::unordered_map<uint64_t, Conflict> conflicts_;
  // Matched chased-base atom -> live conflict ids using it.
  std::unordered_map<AtomId, std::unordered_set<uint64_t>> by_matched_;
  // Predicate of a matched non-original atom -> live conflict ids
  // matching such an atom. Built by the first support refresh, so
  // Initialize and InitializeFromShared do not pay for it.
  std::optional<std::unordered_map<int32_t, std::unordered_set<uint64_t>>>
      by_derived_pred_;
  // The naive members of conflicts_, in canonical order.
  Census naive_;
  uint64_t next_id_ = 0;

  // Selection indexes (see the file comment); empty until first read.
  std::optional<Census> census_;
  std::optional<RankTable> naive_ranks_;
  std::optional<RankTable> census_ranks_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_DELTA_CONFLICTS_H_
