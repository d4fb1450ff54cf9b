// The scratch conflict census: the reference DeltaConflictEngine
// (repair/delta_conflicts.h) is tested against.
//
// ConflictFinder recomputes a census from nothing on every call — a
// fresh chase and a full CDD-body enumeration for AllConflicts, a plain
// enumeration over F for NaiveConflicts — so it shares no maintained
// state with the engine under test. The differential suites compare the
// engine's census after Initialize and after every fix with this one.

#ifndef KBREPAIR_TESTS_SUPPORT_CONFLICT_FINDER_H_
#define KBREPAIR_TESTS_SUPPORT_CONFLICT_FINDER_H_

#include <vector>

#include "chase/incremental_chase.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/conflict.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

class ConflictFinder {
 public:
  ConflictFinder(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                 const std::vector<Cdd>* cdds,
                 ChaseOptions chase_options = {});

  // allconflicts(K): all CDD-body homomorphisms into Cl(F), with original
  // support computed through chase provenance.
  StatusOr<std::vector<Conflict>> AllConflicts(const FactBase& facts) const;

  // allconflicts_naive(K): CDD bodies evaluated directly on F.
  std::vector<Conflict> NaiveConflicts(const FactBase& facts) const;

 private:
  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions chase_options_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_TESTS_SUPPORT_CONFLICT_FINDER_H_
