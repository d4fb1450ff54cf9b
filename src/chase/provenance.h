// Provenance cone walks over the Derivation DAG.
//
// The chase kernel (chase/incremental_chase.h) records, for every
// derived atom, the TGD and the body-matched parent atoms that produced
// it. This header turns that DAG into something an operator can read:
// the *support cone* of an atom — the derivation tree rooted at it,
// walked down through parents to the original facts — and the *forward
// cone* of an original atom — every derived atom whose proof uses it.
// There is one source of derivations, so the walks take the chase
// directly: a session's maintained base, or a one-shot IncrementalChase
// run with Initialize(); kbrepair-debug uses both.

#ifndef KBREPAIR_CHASE_PROVENANCE_H_
#define KBREPAIR_CHASE_PROVENANCE_H_

#include <functional>
#include <string>
#include <vector>

#include "chase/incremental_chase.h"
#include "kb/symbol_table.h"

namespace kbrepair {

// One visited node of a support-cone walk.
struct ProvenanceNode {
  AtomId id = 0;
  size_t depth = 0;  // 0 at the root
  // Derivation of this node, or nullptr when original.
  const Derivation* derivation = nullptr;
};

// Walks the support cone of `root` pre-order, parents in body order,
// invoking `visit` for every node (root included). The derivation
// structure is a DAG (parents always have smaller ids than children), so
// the walk terminates; shared sub-cones are visited once per occurrence,
// capped at `max_nodes` total visits (0 = unlimited).
void WalkSupportCone(AtomId root, const IncrementalChase& chase,
                     size_t max_nodes,
                     const std::function<void(const ProvenanceNode&)>& visit);

// Alive derived atoms (ascending) whose support cone contains
// `original`; the forward direction of the DAG.
std::vector<AtomId> ForwardCone(AtomId original,
                                const IncrementalChase& chase);

// Renders the support cone of `root` as an indented tree:
//
//   s(a,_N3)  [tgd 2]
//     p(a,b)  [original]
//     q(b,_N3)  [tgd 0]
//       r(b)  [original]
//
// Output is truncated (with a trailing note) past `max_nodes` visits.
std::string RenderSupportCone(AtomId root, const IncrementalChase& chase,
                              const SymbolTable& symbols,
                              size_t max_nodes = 256);

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_PROVENANCE_H_
