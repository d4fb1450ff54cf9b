// Consistent query answering over update repairs.
//
// The paper positions itself against Wijsen's update-repair CQA [28]:
// "finding the answers of a query in the intersection of all possible
// repairs". This module implements that semantics for the *canonical*
// family of update repairs — the ⊆-minimal repairs whose fixes commit to
// no new values, i.e., every rewritten position takes a fresh labeled
// null. These null-valued u-repairs exist for every repairable KB
// (the paper's repairability argument is exactly "change positions to
// fresh existential variables"), they are finitely many (one per minimal
// position set), and they are the least-committal repairs: any other
// u-repair makes strictly stronger value claims.
//
// CqaAnswers(Q, K) = ⋂ over all minimal null-valued u-repairs F' of the
// certain answers of Q over (F', Σ_T). An answer survives iff it holds
// no matter which minimal set of position retractions the user would
// settle on — a sound lower bound for CQA over all u-repairs w.r.t.
// constant answers (every u-repair's facts map onto some null-valued
// repair's facts position-wise... more precisely, each null-valued
// repair is dominated by the u-repairs refining its nulls, so an answer
// certain in every null-valued repair is certain in at least one member
// of every refinement family).
//
// Enumeration is exponential in the number of candidate positions and is
// intended for small KBs (max_positions caps the search); the module is
// a faithful executable semantics, not a scalable evaluator.

#ifndef KBREPAIR_REPAIR_CQA_H_
#define KBREPAIR_REPAIR_CQA_H_

#include <vector>

#include "chase/query.h"
#include "repair/fix.h"
#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

// One minimal null-valued repair: the set of retracted positions.
struct NullRepair {
  std::vector<Position> retracted;  // sorted
};

// Enumerates all ⊆-minimal sets of positions whose replacement by fresh
// nulls restores consistency. Candidate positions are those of atoms
// involved in at least one conflict (others can never matter).
// InvalidArgument if the candidate count exceeds `max_positions`
// (default 20; the enumeration is exponential) or reaches 64, whatever
// the cap (subsets are 64-bit masks).
StatusOr<std::vector<NullRepair>> EnumerateMinimalNullRepairs(
    KnowledgeBase& kb, size_t max_positions = 20);

struct CqaResult {
  // Certain answers (constant tuples) that hold in EVERY minimal
  // null-valued repair; sorted, distinct.
  std::vector<AnswerTuple> consistent_answers;
  // Answers that hold in at least one repair but not all ("possible").
  std::vector<AnswerTuple> possible_answers;
  size_t num_repairs = 0;
};

// Evaluates `query` under the CQA semantics above. For already
// consistent KBs this degenerates to plain certain answers.
StatusOr<CqaResult> CqaAnswers(const ConjunctiveQuery& query,
                               KnowledgeBase& kb,
                               size_t max_positions = 20);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_CQA_H_
