#include "repair/cqa.h"

#include <algorithm>
#include <set>

#include "repair/consistency.h"
#include "repair/delta_conflicts.h"
#include "util/logging.h"

namespace kbrepair {

StatusOr<std::vector<NullRepair>> EnumerateMinimalNullRepairs(
    KnowledgeBase& kb, size_t max_positions) {
  DeltaConflictEngine census(&kb.symbols(), &kb.tgds(), &kb.cdds());
  KBREPAIR_RETURN_IF_ERROR(census.Initialize(kb.facts()));
  if (census.empty()) {
    return std::vector<NullRepair>{NullRepair{}};  // the empty repair
  }

  // Candidate positions: every position of every conflict-involved atom.
  std::set<Position> candidate_set;
  for (const Conflict& conflict : census.CanonicalConflicts()) {
    for (AtomId id : conflict.support) {
      const int arity = kb.facts().atom(id).arity();
      for (int arg = 0; arg < arity; ++arg) {
        candidate_set.insert(Position{id, arg});
      }
    }
  }
  const std::vector<Position> candidates(candidate_set.begin(),
                                         candidate_set.end());
  if (candidates.size() > max_positions) {
    return Status::InvalidArgument(
        "CQA enumeration over " + std::to_string(candidates.size()) +
        " candidate positions exceeds max_positions=" +
        std::to_string(max_positions));
  }
  if (candidates.size() >= 64) {
    return Status::InvalidArgument(
        "CQA enumeration over " + std::to_string(candidates.size()) +
        " candidate positions; a 64-bit subset mask holds at most 63");
  }
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());

  // Enumerate subsets by increasing size; keep subset-minimal consistent
  // ones. A superset of a kept repair can be skipped outright.
  std::vector<uint64_t> kept_masks;
  std::vector<NullRepair> repairs;
  const size_t n = candidates.size();
  // Group masks by popcount so minimality pruning works by size order.
  std::vector<std::vector<uint64_t>> by_size(n + 1);
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    by_size[static_cast<size_t>(__builtin_popcountll(mask))].push_back(
        mask);
  }
  for (size_t size = 1; size <= n; ++size) {
    for (uint64_t mask : by_size[size]) {
      bool dominated = false;
      for (uint64_t kept : kept_masks) {
        if ((mask & kept) == kept) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;

      FactBase updated = kb.facts();
      NullRepair repair;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (uint64_t{1} << i)) {
          updated.SetArg(candidates[i].atom, candidates[i].arg,
                         kb.symbols().MakeFreshNull());
          repair.retracted.push_back(candidates[i]);
        }
      }
      KBREPAIR_ASSIGN_OR_RETURN(const bool now_consistent,
                                checker.IsConsistentOpt(updated));
      if (now_consistent) {
        kept_masks.push_back(mask);
        repairs.push_back(std::move(repair));
      }
    }
  }
  return repairs;
}

StatusOr<CqaResult> CqaAnswers(const ConjunctiveQuery& query,
                               KnowledgeBase& kb, size_t max_positions) {
  KBREPAIR_ASSIGN_OR_RETURN(const std::vector<NullRepair> repairs,
                            EnumerateMinimalNullRepairs(kb, max_positions));
  CqaResult result;
  result.num_repairs = repairs.size();

  // Evaluate the query over each repair; intersect/union certain
  // answers. The repaired facts live in a scratch KB sharing symbols and
  // rules via the original (AnswerQuery takes a KnowledgeBase, so we
  // swap the fact base in and out).
  std::set<AnswerTuple> intersection;
  std::set<AnswerTuple> unions;
  bool first = true;
  const FactBase original = kb.facts();
  for (const NullRepair& repair : repairs) {
    FactBase repaired = original;
    for (const Position& position : repair.retracted) {
      repaired.SetArg(position.atom, position.arg,
                      kb.symbols().MakeFreshNull());
    }
    kb.facts() = std::move(repaired);
    StatusOr<QueryAnswers> answers = AnswerQuery(query, kb);
    kb.facts() = original;  // restore before any error return
    KBREPAIR_RETURN_IF_ERROR(answers.status());

    const std::set<AnswerTuple> certain(answers->certain.begin(),
                                        answers->certain.end());
    unions.insert(certain.begin(), certain.end());
    if (first) {
      intersection = certain;
      first = false;
    } else {
      std::set<AnswerTuple> merged;
      std::set_intersection(intersection.begin(), intersection.end(),
                            certain.begin(), certain.end(),
                            std::inserter(merged, merged.begin()));
      intersection = std::move(merged);
    }
  }
  result.consistent_answers.assign(intersection.begin(),
                                   intersection.end());
  for (const AnswerTuple& tuple : unions) {
    if (intersection.count(tuple) == 0) {
      result.possible_answers.push_back(tuple);
    }
  }
  return result;
}

}  // namespace kbrepair
