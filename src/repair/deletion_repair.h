// Deletion-based repairing — the baseline the paper argues against
// (Examples 1.1–1.3): restore consistency by removing whole atoms
// instead of updating positions.
//
// A deletion repair is a maximal (w.r.t. ⊆) consistent subset of F.
// This module provides a greedy constructor (remove the atom involved in
// the most conflicts, recompute, repeat; then re-add whatever fits) and
// an exhaustive enumerator for tiny KBs, plus the information-retention
// metrics used by the update-vs-deletion comparison benchmark: an update
// repair keeps every atom and every error-free value, while a deletion
// repair forfeits all values of the atoms it drops.

#ifndef KBREPAIR_REPAIR_DELETION_REPAIR_H_
#define KBREPAIR_REPAIR_DELETION_REPAIR_H_

#include <vector>

#include "kb/fact_base.h"
#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

// A subset of F by atom id. kept[id] == false means atom id is deleted.
struct DeletionRepair {
  std::vector<bool> kept;

  size_t NumKept() const;
  size_t NumDeleted() const { return kept.size() - NumKept(); }

  // Materializes the surviving atoms into a new FactBase (atom ids are
  // renumbered; the mapping is the order of surviving ids).
  FactBase Materialize(const FactBase& facts) const;
};

// Greedy deletion repair: repeatedly remove the atom supporting the most
// conflicts (ties: smallest id), then re-add removed atoms that do not
// re-introduce an inconsistency, making the result subset-maximal.
StatusOr<DeletionRepair> GreedyDeletionRepair(KnowledgeBase& kb);

// All maximal consistent subsets of F, for KBs with at most `max_atoms`
// facts and fewer than 64 whatever the cap, since subsets are 64-bit
// masks (exponential; intended for tests and pedagogy). InvalidArgument
// past either limit. Repairs are returned in no particular order.
StatusOr<std::vector<DeletionRepair>> AllDeletionRepairs(
    KnowledgeBase& kb, size_t max_atoms = 16);

// Information-retention metrics comparing a repair against the original
// F, used by the deletion-vs-update benchmark.
struct RetentionMetrics {
  size_t atoms_original = 0;
  size_t atoms_kept = 0;       // deletion: survivors; update: all
  size_t values_original = 0;  // |pos(F)|
  size_t values_kept = 0;      // positions whose value is untouched
};

RetentionMetrics MetricsForDeletion(const FactBase& facts,
                                    const DeletionRepair& repair);
// `updated` must be an update of `facts` (same shape).
RetentionMetrics MetricsForUpdate(const FactBase& facts,
                                  const FactBase& updated);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_DELETION_REPAIR_H_
