// ProvenanceInspector: human-readable views of a suspended repair
// session.
//
// Renders what kbrepair-debug shows at a timeline step: the conflict
// census (each conflict's violated CDD, matched facts and original
// support), the Π-skeleton state (frozen positions, propagated subset,
// skeleton census size), and the provenance of a single atom — its
// support cone down to original facts and its forward cone of derived
// consequences. Provenance comes from the incremental engine's
// maintained Derivation DAG when one is live; otherwise a fresh
// inspection chase runs against a *clone* of the session's symbol table,
// so inspection can never mint nulls into (or otherwise perturb) the
// replayed session.

#ifndef KBREPAIR_DEBUG_INSPECT_H_
#define KBREPAIR_DEBUG_INSPECT_H_

#include <string>

#include "chase/incremental_chase.h"
#include "repair/inquiry.h"
#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {
namespace debug {

class ProvenanceInspector {
 public:
  // Both pointers must outlive the inspector; the engine must be
  // started. `chase_options` configures the fallback inspection chase
  // (run without CDDs, so it saturates fully — the census needs the
  // whole chased base).
  ProvenanceInspector(const InquiryEngine* engine, const KnowledgeBase* kb,
                      ChaseOptions chase_options = {});

  // Everything known about one working-base atom: its rendering, its
  // support cone (derived atoms only have one through the chase), its
  // forward cone of derived consequences, and the census conflicts whose
  // original support contains it.
  StatusOr<std::string> AtomReport(AtomId atom) const;

  // The current conflict census, canonical order, one block per
  // conflict: violated CDD, matched facts (derived ones marked and
  // rendered through the chased base), original support. Truncated past
  // `max_conflicts` blocks with a trailing note.
  StatusOr<std::string> CensusReport(size_t max_conflicts = 16) const;

  // Phase, active conflict engine, Π (propagated subset marked), and
  // the maintained skeleton census size when the incremental engine is
  // live.
  std::string PiReport() const;

 private:
  const InquiryEngine* engine_;
  const KnowledgeBase* kb_;
  ChaseOptions chase_options_;
};

}  // namespace debug
}  // namespace kbrepair

#endif  // KBREPAIR_DEBUG_INSPECT_H_
