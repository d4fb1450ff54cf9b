// Conflicts (Definition 2.3) and what is reported about them.
//
// A conflict is a pair (N, h): a CDD N and a homomorphism h of body(N)
// into the chased base Cl(F). A *naive* conflict (Section 5) is one whose
// homomorphism lands entirely inside F itself, i.e., it is visible without
// chasing. Every conflict carries its *support*: the original fact-base
// atoms that (transitively, through chase provenance) ground it; for naive
// conflicts the support is just the matched atoms.
//
// The census allconflicts(K) and its maintenance UPDATECONFLICTS are one
// class, DeltaConflictEngine (repair/delta_conflicts.h): a one-shot
// census is a throwaway engine's Initialize(). The scratch enumerator
// the engine is tested against lives with the tests
// (tests/support/conflict_finder.h).

#ifndef KBREPAIR_REPAIR_CONFLICT_H_
#define KBREPAIR_REPAIR_CONFLICT_H_

#include <string>
#include <vector>

#include "chase/incremental_chase.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/fix.h"
#include "rules/cdd.h"

namespace kbrepair {

struct Conflict {
  size_t cdd_index = 0;
  // Per body atom (body order), the matched atom of the evaluated base
  // (F for naive conflicts, Cl(F) otherwise).
  std::vector<AtomId> matched;
  // Original fact-base atoms supporting the conflict, deduplicated,
  // ascending. For naive conflicts: the distinct matched atoms.
  std::vector<AtomId> support;

  // A canonical identity key: two conflicts with equal (cdd, matched) are
  // the same homomorphism.
  bool SameAs(const Conflict& other) const {
    return cdd_index == other.cdd_index && matched == other.matched;
  }
};

// RETRIEVE-POSITIONS variants (Section 5).
enum class PositionSelection {
  kAllPositions,        // random strategy
  kResolvingPositions,  // opti-join / opti-prop / opti-mcd
};

// RETRIEVE-POSITIONS: the positions a question about `conflict` covers,
// ascending and deduplicated. A naive conflict (every matched id below
// `num_original`) under kResolvingPositions yields the resolving
// positions of its matched atoms; any other conflict, and every conflict
// under kAllPositions, yields every position of its original support —
// GENERATEQUESTION-CHASE's projection of a chase-level violation onto the
// contributing original facts. `facts` supplies the support atoms'
// arities; ids below `num_original` must be original atoms in it.
std::vector<Position> RetrievePositions(const Conflict& conflict,
                                        const std::vector<Cdd>& cdds,
                                        const FactBase& facts,
                                        size_t num_original,
                                        PositionSelection selection);

// Structure indicators reported in the paper's experiment tables.
struct OverlapIndicators {
  // Average number of atoms in each non-empty pairwise intersection of
  // conflict supports ("Avg # atoms per overlap").
  double avg_atoms_per_overlap = 0.0;
  // Average, over conflicts, of the number of other conflicts whose
  // support intersects this one's ("Avg scope").
  double avg_scope = 0.0;
  // Number of distinct atoms involved in at least one conflict (the
  // numerator of the paper's inconsistency ratio).
  size_t atoms_in_conflicts = 0;
};

OverlapIndicators ComputeOverlapIndicators(
    const std::vector<Conflict>& conflicts);

// Human-readable explanation of one conflict: the violated CDD, the
// facts its body matched (marking chase-derived atoms), and the original
// support set — what a data steward needs to understand a question.
// `chased` may be null; it is required to render derived matched atoms
// (matched ids >= facts.size()), which are otherwise labelled opaquely —
// as is a matched id the chase holds no derivation for.
std::string ExplainConflict(const Conflict& conflict,
                            const std::vector<Cdd>& cdds,
                            const FactBase& facts,
                            const SymbolTable& symbols,
                            const IncrementalChase* chased = nullptr);

// GraphViz DOT rendering of the conflict hypergraph: one box per
// conflict, one ellipse per involved atom, an edge when the atom
// supports the conflict. Feed to `dot -Tsvg` to see the overlap
// structure the opti-mcd strategy exploits.
std::string ConflictHypergraphToDot(const std::vector<Conflict>& conflicts,
                                    const FactBase& facts,
                                    const SymbolTable& symbols);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_CONFLICT_H_
