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
  std::vector<Position> positions;

  // Detect whether the conflict's homomorphism lies entirely inside the
  // original fact base. Matched ids of a chase conflict refer to Cl(F);
  // ids below |F| coincide with original atoms.
  bool naive = true;
  for (AtomId id : conflict.matched) naive = naive && id < facts.size();

  if (naive && selection == PositionSelection::kResolvingPositions) {
    // Join positions of the matched atoms, per CDD body structure. A
    // position is resolving when the CDD term it matches is a join
    // variable or a constant: rewriting it can break the homomorphism,
    // whereas a lone variable simply rebinds (Section 5, opti-join).
    const Cdd& cdd = cdds[conflict.cdd_index];
    for (size_t j = 0; j < conflict.matched.size(); ++j) {
      for (int arg : cdd.resolving_positions(j)) {
        positions.push_back(Position{conflict.matched[j], arg});
      }
    }
  } else {
    // All positions of the (original-)support atoms. This covers both
    // the random strategy and GENERATEQUESTION-CHASE, which projects a
    // chase-level violation onto the contributing original facts.
    for (AtomId id : conflict.support) {
      const int arity = facts.atom(id).arity();
      for (int arg = 0; arg < arity; ++arg) {
        positions.push_back(Position{id, arg});
      }
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions;
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
