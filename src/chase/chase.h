// The one-shot chase: saturating a fact base with weakly-acyclic TGDs.
//
// ChaseEngine::Run is a thin facade over the chase kernel
// (chase/incremental_chase.h): it initializes an IncrementalChase over a
// copy of the input and hands it back inside a ChaseResult, whose read
// API forwards to it. Cl(F), Π-repairability on the skeleton and
// CHECKCONSISTENCY-OPT therefore run the same saturation loop — wave
// order, duplicate test and derivation store — as a repair session's
// maintained base.
//
//  * Provenance. Every derived atom records its trigger (TGD index plus
//    the body-matched parent atoms), so a constraint violation detected on
//    the chased base can be traced back to the original facts that support
//    it. GENERATEQUESTION-CHASE (Section 5) asks its question on exactly
//    that support set.
//
//  * ⊥-detection. When CDDs are supplied, the chase checks each newly
//    available atom against the constraint bodies as it goes and stops at
//    the first violation. This is the paper's CHECKCONSISTENCY-OPT, which
//    stops the consistency check as early as possible.

#ifndef KBREPAIR_CHASE_CHASE_H_
#define KBREPAIR_CHASE_CHASE_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "chase/incremental_chase.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

// The chased base Cl(F). Original atoms keep their ids [0, num_original);
// derived atoms follow.
class ChaseResult {
 public:
  const FactBase& facts() const { return chase_.facts(); }
  size_t num_original() const { return chase_.num_original(); }
  size_t num_derived() const { return facts().size() - num_original(); }

  bool IsOriginal(AtomId id) const { return chase_.IsOriginal(id); }

  // Trigger of a derived atom. `id` must satisfy !IsOriginal(id).
  const Derivation& derivation(AtomId id) const;

  // The original atoms transitively supporting `id` (the atom itself when
  // original). Deduplicated, ascending. Not safe to call concurrently on
  // the same result (see IncrementalChase::OriginalSupport).
  std::vector<AtomId> OriginalSupport(AtomId id) const {
    return chase_.OriginalSupport({id});
  }

  // Union of OriginalSupport over several atoms. Deduplicated, ascending.
  std::vector<AtomId> OriginalSupport(const std::vector<AtomId>& ids) const {
    return chase_.OriginalSupport(ids);
  }

  // First CDD violation, when the chase ran with constraints and found
  // one. Empty means no violation was detected (if constraints were
  // supplied, the KB is consistent).
  const std::optional<ChaseViolation>& violation() const {
    return chase_.violation();
  }

  // The chase itself, for the provenance walks (chase/provenance.h).
  const IncrementalChase& chase() const { return chase_; }

 private:
  friend class ChaseEngine;

  explicit ChaseResult(IncrementalChase chase) : chase_(std::move(chase)) {}

  IncrementalChase chase_;
};

// Runs the chase over `facts`. The symbol table is mutated (fresh nulls).
// `cdds` may be null for a pure saturation run; with CDDs the chase stops
// at the first violation.
class ChaseEngine {
 public:
  ChaseEngine(SymbolTable* symbols, const std::vector<Tgd>* tgds,
              const std::vector<Cdd>* cdds = nullptr,
              ChaseOptions options = {});

  // Chases a copy of `facts` to saturation (or first violation), seeded
  // with its alive atoms. The caller must have validated weak
  // acyclicity; this function CHECKs only the atom cap.
  StatusOr<ChaseResult> Run(const FactBase& facts) const;

 private:
  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions options_;
};

// Convenience wrapper: Cl(F) without constraint checking.
StatusOr<ChaseResult> RunChase(const FactBase& facts,
                               const std::vector<Tgd>& tgds,
                               SymbolTable& symbols,
                               ChaseOptions options = {});

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_CHASE_H_
