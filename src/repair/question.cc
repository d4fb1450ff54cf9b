#include "repair/question.h"

#include <algorithm>

#include "util/logging.h"

namespace kbrepair {

QuestionGenerator::QuestionGenerator(
    SymbolTable* symbols, RepairabilityChecker* repairability)
    : symbols_(symbols), repairability_(repairability) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(repairability != nullptr);
}

std::vector<Position> QuestionGenerator::RetrievePositions(
    const FactBase& facts, const Conflict& conflict,
    const std::vector<Cdd>& cdds, PositionSelection selection) const {
  return kbrepair::RetrievePositions(conflict, cdds, facts, facts.size(),
                                     selection);
}

StatusOr<Question> QuestionGenerator::SoundQuestion(
    const FactBase& facts, const PositionSet& pi, const Conflict& conflict,
    const std::vector<Cdd>& cdds, PositionSelection selection,
    std::optional<Position> restrict_to) const {
  Question question;
  question.source_cdd = conflict.cdd_index;

  std::vector<Position> positions =
      RetrievePositions(facts, conflict, cdds, selection);
  if (restrict_to.has_value()) {
    const bool member =
        std::find(positions.begin(), positions.end(), *restrict_to) !=
        positions.end();
    positions.clear();
    if (member) positions.push_back(*restrict_to);
  }

  // Build candidate fixes: per mutable position, active-domain values
  // different from the current one, plus one fresh null.
  RepairabilityChecker::Scope scope(repairability_, facts, pi);
  for (const Position& position : positions) {
    if (pi.count(position) > 0) continue;
    question.considered_positions.push_back(position);
    const Atom& atom = facts.atom(position.atom);
    const TermId current = atom.args[static_cast<size_t>(position.arg)];

    std::vector<TermId> values =
        facts.ActiveDomain(atom.predicate, position.arg);
    values.erase(std::remove(values.begin(), values.end(), current),
                 values.end());
    values.push_back(symbols_->MakeFreshNull());

    for (TermId value : values) {
      const Fix fix{position.atom, position.arg, value};
      ++total_candidates_;
      KBREPAIR_ASSIGN_OR_RETURN(const bool keeps,
                                scope.FixKeepsRepairable(fix));
      if (keeps) {
        question.fixes.push_back(fix);
      } else {
        ++total_filtered_;
      }
    }
  }
  total_fast_paths_ += scope.num_fast_paths();
  total_full_checks_ += scope.num_full_checks();
  return question;
}

}  // namespace kbrepair
