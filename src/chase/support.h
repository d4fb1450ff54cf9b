// Canonical original support: an engine-independent replacement for
// fire-time chase provenance.
//
// The chase records, for each derived atom, the first trigger that fired
// it — but "first" depends on saturation order, and an atom with several
// valid derivations gets different recorded parents in a from-scratch
// chase vs a maintained delta chase (where a retracted atom may be
// re-derived through another rule). Conflict supports built from such
// provenance are then engine-dependent, which breaks the differential
// guarantee of the scratch/incremental pair.
//
// CanonicalSupportResolver computes a support that is a pure function of
// the *current* atom set: the canonical support of a derived atom is the
// lexicographically smallest sorted original-atom set over all acyclic
// proof trees (backward search over the TGDs, unifying rule heads with
// the atom and enumerating body homomorphisms). Both conflict engines
// derive question supports through this resolver, so equal chased bases
// yield equal supports regardless of how they were reached.
//
// Results untainted by the cycle guard are memoized; tainted ones (a
// candidate proof revisited an atom on the current recursion path) are
// recomputed per top-level query so the value never depends on resolver
// call order. Weakly-acyclic TGD sets as generated here have acyclic
// derivations, so in practice everything memoizes.

#ifndef KBREPAIR_CHASE_SUPPORT_H_
#define KBREPAIR_CHASE_SUPPORT_H_

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/incremental_chase.h"
#include "kb/fact_base.h"
#include "kb/homomorphism.h"
#include "kb/symbol_table.h"
#include "rules/tgd.h"

namespace kbrepair {

class CanonicalSupportResolver {
 public:
  // Resolves over the maintained base of `chase`, whose IsOriginal()
  // atoms are the supports. Both pointers must outlive the resolver; the
  // base must not change while the resolver is in use (memoization).
  CanonicalSupportResolver(const SymbolTable* symbols,
                           const IncrementalChase* chase);

  // Canonical original support of the alive atom `id` (the atom itself
  // when original). Sorted, deduplicated.
  std::vector<AtomId> Support(AtomId id);

  // Union over several atoms. Sorted, deduplicated.
  std::vector<AtomId> Support(const std::vector<AtomId>& ids);

 private:
  struct Result {
    std::vector<AtomId> support;
    bool found = false;    // false: every proof was cut by the guard
    bool tainted = false;  // depended on the recursion path; don't memo
  };

  Result Resolve(AtomId id);

  // Unifies rule atom `pattern` (constants + variables) against the
  // ground/null atom `ground`, extending `bindings`.
  bool Unify(const Atom& pattern, const Atom& ground,
             std::unordered_map<TermId, TermId>& bindings) const;

  const SymbolTable* symbols_;
  const IncrementalChase* chase_;
  const std::vector<Tgd>* tgds_;
  const FactBase* facts_;
  HomomorphismFinder finder_;

  std::unordered_map<AtomId, std::vector<AtomId>> memo_;
  std::unordered_set<AtomId> on_path_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_SUPPORT_H_
