// SharedKbSnapshot: a frozen, pre-chased base KB that repair sessions
// fork from in O(delta) instead of re-parsing, re-interning, re-chasing
// and re-scanning a private copy.
//
// Building a snapshot replicates exactly the work InquiryEngine::Begin()
// performs on a cold private KB — building the maintained Π-skeleton and
// reading its verdict, the chased conflict census, the naive census —
// in the same order and *before* freezing the symbol table, so the
// frozen base captures the precise post-Begin state (including
// chase-minted nulls) every cold session would reach. A fork then adopts
// the stored verdicts via InquiryEngine::BeginShared() and the two
// maintained engines via their frozen prototypes:
//
//  * skeleton_proto — the Π=∅ skeleton engine that replicated Begin
//                     built; forks adopt it as their live skeleton, just
//                     as a cold Begin leaves its own.
//  * delta_proto    — a DeltaConflictEngine saturated over the base
//                     facts; forks adopt it and replay their own applied
//                     fixes (recovery) on top.
//
// Mint guard: a cold session builds its chased-conflict engine lazily,
// after Begin, so delta_proto is only kept when building it interned no
// fresh symbol. A chase that mints fresh nulls — existential TGDs firing
// — would advance the fork's null counter differently from a cold
// session's lazy construction, breaking byte-identity; those bases fall
// back to cold per-session construction of that engine while still
// sharing symbols/facts/census and the skeleton. Full (existential-free)
// TGD sets always keep both prototypes.

#ifndef KBREPAIR_REPAIR_KB_SNAPSHOT_H_
#define KBREPAIR_REPAIR_KB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "kb/symbol_table.h"
#include "repair/conflict.h"
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
  const std::vector<Conflict>* naive_census = nullptr;
  // Null when the snapshot's mint guard dropped it.
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
  std::vector<Conflict> naive_census;

  // Frozen engine prototypes. delta_proto (null when the mint guard
  // fired) interns into proto_symbols — a throwaway fork of the frozen
  // table — so building it can never pollute the shared base.
  std::unique_ptr<SymbolTable> proto_symbols;
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
    seed.naive_census = &naive_census;
    seed.delta_proto = delta_proto.get();
    seed.skeleton_proto = skeleton_proto.get();
    return seed;
  }
};

// Structural FNV-1a hash of a KB (symbols, facts, rules). Exposed so the
// base registry can verify re-registration identity.
uint64_t HashKnowledgeBase(const KnowledgeBase& kb);

// Consumes `kb`, replicates Begin(Π=∅) on it, freezes it and builds the
// engine prototypes (mint-guarded). Fails only if the replicated Begin
// itself fails (e.g. chase atom cap).
StatusOr<std::shared_ptr<const SharedKbSnapshot>> BuildSharedKbSnapshot(
    KnowledgeBase kb, std::string label, const ChaseOptions& chase_options);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_KB_SNAPSHOT_H_
