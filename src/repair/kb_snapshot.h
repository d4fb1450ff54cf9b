// SharedKbSnapshot: a frozen, pre-chased base KB that repair sessions
// fork from in O(delta) instead of re-parsing, re-interning, re-chasing
// and re-scanning a private copy.
//
// Building a snapshot replicates exactly the work InquiryEngine::Begin()
// performs on a cold private KB — building the maintained Π-skeleton and
// reading its verdict, building the conflict engine and reading its
// chased and naive censuses — in the same order and *before* freezing
// the symbol table, so the frozen base captures the precise post-Begin
// state (including every null those chases mint) every cold session
// would reach. A fork then adopts the stored verdicts via
// InquiryEngine::BeginShared() and the two maintained engines via their
// frozen prototypes, just as a cold Begin leaves its own:
//
//  * skeleton_proto — the reduced Π=∅ skeleton engine: one all-null
//                     atom per predicate of the base facts and no atom
//                     of them; a fork adds the atoms its dialogue
//                     touches to its own overlay;
//  * delta_proto    — the DeltaConflictEngine saturated over the base
//                     facts; phase one of a fork reads its naive
//                     conflicts.

#ifndef KBREPAIR_REPAIR_KB_SNAPSHOT_H_
#define KBREPAIR_REPAIR_KB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "chase/incremental_chase.h"
#include "repair/delta_conflicts.h"
#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

// Precomputed Begin() state handed to InquiryEngine::BeginShared() by a
// session forked from a snapshot. All pointers must outlive the engine.
struct SharedBeginSeed {
  bool repairable = false;
  size_t initial_conflicts = 0;
  size_t initial_naive_conflicts = 0;
  // Set by every repairable snapshot. A null prototype leaves the fork to
  // build that engine cold on first use, the path after a dropped engine.
  const DeltaConflictEngine* delta_proto = nullptr;
  const DeltaConflictEngine* skeleton_proto = nullptr;
};

struct SharedKbSnapshot {
  std::string label;

  // The frozen base: shared symbol/fact segments + shared rule vectors.
  KnowledgeBase kb;
  ChaseOptions chase_options;

  // Verdicts of the replicated Begin() on (kb, Π=∅).
  bool repairable = false;
  size_t initial_conflicts = 0;
  size_t initial_naive_conflicts = 0;

  // Frozen engine prototypes, built by the replicated Begin() (null when
  // the base is not repairable).
  std::unique_ptr<DeltaConflictEngine> delta_proto;
  std::unique_ptr<DeltaConflictEngine> skeleton_proto;

  // FNV-1a over symbols, facts and rule structure; two registrations of
  // the same logical KB hash identically (registry idempotence check).
  uint64_t content_hash = 0;
  // Rough resident footprint of the shared segments, for metrics.
  size_t approx_bytes = 0;

  // O(delta) per-session KB: shares symbol/fact segments and rules.
  KnowledgeBase Fork() const { return kb.ForkShared(); }

  // The Begin() adoption bundle; valid while the snapshot lives.
  SharedBeginSeed Seed() const {
    SharedBeginSeed seed;
    seed.repairable = repairable;
    seed.initial_conflicts = initial_conflicts;
    seed.initial_naive_conflicts = initial_naive_conflicts;
    seed.delta_proto = delta_proto.get();
    seed.skeleton_proto = skeleton_proto.get();
    return seed;
  }
};

// Structural FNV-1a hash of a KB (symbols, facts, rules). Exposed so the
// base registry can verify re-registration identity.
uint64_t HashKnowledgeBase(const KnowledgeBase& kb);

// Consumes `kb`, replicates Begin(Π=∅) on it — engine prototypes
// included — and freezes it. Fails only if the replicated Begin itself
// fails (e.g. chase atom cap).
StatusOr<std::shared_ptr<const SharedKbSnapshot>> BuildSharedKbSnapshot(
    KnowledgeBase kb, std::string label, const ChaseOptions& chase_options);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_KB_SNAPSHOT_H_
