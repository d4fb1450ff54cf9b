// Sound questions (Definition 4.1, Algorithms 2 and 5).
//
// A question is a set of candidate fixes drawn from a conflict's
// positions; it is sound when every offered fix keeps the KB
// Π'-repairable (Π' = Π plus the fix's position), so no user choice can
// paint the repair into a corner. Generation follows Algorithm 2:
//   1. RETRIEVE-POSITIONS picks which positions of the conflict to ask
//      about — all of them (random strategy), only the resolving/join
//      positions (opti-join family), or one externally chosen position
//      (opti-mcd);
//   2. per position, the candidate values are the active domain minus the
//      current value, plus a fresh labeled null unique to the position;
//   3. each candidate is filtered through Π-REPOPT, which reads the
//      repairability checker's maintained Π-skeleton; it must mirror the
//      (facts, Π) passed in (see RepairabilityChecker::EnsureSkeleton).

#ifndef KBREPAIR_REPAIR_QUESTION_H_
#define KBREPAIR_REPAIR_QUESTION_H_

#include <optional>
#include <vector>

#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/conflict.h"
#include "repair/fix.h"
#include "repair/repairability.h"
#include "util/status.h"

namespace kbrepair {

struct Question {
  std::vector<Fix> fixes;
  // The positions Algorithm 2 considered (Π'' in the paper) — the
  // opti-prop strategy propagates the unchosen ones into Π.
  std::vector<Position> considered_positions;
  // The CDD whose conflict produced the question (for display/debug).
  size_t source_cdd = 0;
};

class QuestionGenerator {
 public:
  // `repairability` must outlive the generator; its maintained skeleton
  // is probed (and restored) by every full Π-REPOPT check.
  QuestionGenerator(SymbolTable* symbols,
                    RepairabilityChecker* repairability);

  // SOUNDQUESTION(K, Π, X). `restrict_to` (opti-mcd) limits the question
  // to a single position, which must belong to the conflict.
  //
  // Returns an empty question iff K is not Π-repairable or all candidate
  // positions are frozen/filtered; Lemma 4.3 guarantees non-emptiness for
  // kAllPositions with no restriction whenever K is Π-repairable.
  StatusOr<Question> SoundQuestion(
      const FactBase& facts, const PositionSet& pi, const Conflict& conflict,
      const std::vector<Cdd>& cdds, PositionSelection selection,
      std::optional<Position> restrict_to = std::nullopt) const;

  // The positions RETRIEVE-POSITIONS yields for a conflict
  // (repair/conflict.h) whose matched ids below facts.size() are the
  // original atoms of `facts`.
  std::vector<Position> RetrievePositions(const FactBase& facts,
                                          const Conflict& conflict,
                                          const std::vector<Cdd>& cdds,
                                          PositionSelection selection) const;

  // Instrumentation accumulated across SoundQuestion calls.
  size_t total_candidates() const { return total_candidates_; }
  size_t total_filtered() const { return total_filtered_; }
  size_t total_fast_paths() const { return total_fast_paths_; }
  size_t total_full_checks() const { return total_full_checks_; }

 private:
  SymbolTable* symbols_;
  RepairabilityChecker* repairability_;
  mutable size_t total_candidates_ = 0;
  mutable size_t total_filtered_ = 0;
  mutable size_t total_fast_paths_ = 0;
  mutable size_t total_full_checks_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_QUESTION_H_
