#include "repair/user.h"

#include "util/logging.h"

namespace kbrepair {

std::optional<size_t> FindOfferedFix(const Question& question,
                                     const Fix& wanted, bool wanted_is_null,
                                     const SymbolTable& symbols,
                                     const InquiryView& view) {
  for (size_t i = 0; i < question.fixes.size(); ++i) {
    const Fix& offered = question.fixes[i];
    if (offered.atom != wanted.atom || offered.arg != wanted.arg) continue;
    const bool exact = offered.value == wanted.value;
    const bool both_fresh_nulls =
        wanted_is_null && symbols.IsNull(offered.value) &&
        view.facts != nullptr && view.facts->TermUseCount(offered.value) == 0;
    if (exact || both_fresh_nulls) return i;
  }
  return std::nullopt;
}

std::optional<size_t> TakeOfferedTarget(const Question& question,
                                        std::vector<Fix>* targets,
                                        const SymbolTable& symbols,
                                        const InquiryView& view) {
  std::optional<size_t> best;
  size_t best_target = 0;
  for (size_t j = 0; j < targets->size(); ++j) {
    const Fix& target = (*targets)[j];
    const std::optional<size_t> offered = FindOfferedFix(
        question, target, symbols.IsNull(target.value), symbols, view);
    if (offered.has_value() && (!best.has_value() || *offered < *best)) {
      best = offered;
      best_target = j;
    }
  }
  if (best.has_value()) {
    targets->erase(targets->begin() + static_cast<std::ptrdiff_t>(best_target));
  }
  return best;
}

std::optional<size_t> RandomUser::ChooseFix(const Question& question,
                                            const InquiryView& view) {
  (void)view;
  if (question.fixes.empty()) return std::nullopt;
  return rng_.UniformIndex(question.fixes.size());
}

OracleUser::OracleUser(std::vector<Fix> r_fix, const SymbolTable* symbols)
    : remaining_(std::move(r_fix)), symbols_(symbols) {
  KBREPAIR_CHECK(symbols != nullptr);
}

std::optional<size_t> OracleUser::ChooseFix(const Question& question,
                                            const InquiryView& view) {
  // Lemma 4.7 says a miss cannot happen with full-position questions
  // and Π built from the oracle's own answers.
  return TakeOfferedTarget(question, &remaining_, *symbols_, view);
}

}  // namespace kbrepair
