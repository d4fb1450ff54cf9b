#include "repair/user_models.h"

#include "util/logging.h"

namespace kbrepair {

NoisyOracleUser::NoisyOracleUser(std::vector<Fix> r_fix,
                                 const SymbolTable* symbols,
                                 double reliability, uint64_t seed)
    : remaining_(std::move(r_fix)),
      symbols_(symbols),
      reliability_(reliability),
      rng_(seed) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(reliability >= 0.0 && reliability <= 1.0);
}

std::optional<size_t> NoisyOracleUser::OracleChoice(
    const Question& question, const InquiryView& view) {
  return TakeOfferedTarget(question, &remaining_, *symbols_, view);
}

std::optional<size_t> NoisyOracleUser::ChooseFix(const Question& question,
                                                 const InquiryView& view) {
  if (question.fixes.empty()) return std::nullopt;
  if (rng_.Bernoulli(reliability_)) {
    const std::optional<size_t> choice = OracleChoice(question, view);
    if (choice.has_value()) {
      ++faithful_answers_;
      return choice;
    }
    // The target repair has drifted out of reach (earlier noise); fall
    // through to a random answer rather than refusing.
  }
  ++noisy_answers_;
  return rng_.UniformIndex(question.fixes.size());
}

ConservativeUser::ConservativeUser(const SymbolTable* symbols)
    : symbols_(symbols) {
  KBREPAIR_CHECK(symbols != nullptr);
}

std::optional<size_t> ConservativeUser::ChooseFix(const Question& question,
                                                  const InquiryView& view) {
  (void)view;
  if (question.fixes.empty()) return std::nullopt;
  for (size_t i = 0; i < question.fixes.size(); ++i) {
    if (symbols_->IsNull(question.fixes[i].value)) return i;
  }
  return 0;
}

DecisiveUser::DecisiveUser(const SymbolTable* symbols, uint64_t seed)
    : symbols_(symbols), rng_(seed) {
  KBREPAIR_CHECK(symbols != nullptr);
}

std::optional<size_t> DecisiveUser::ChooseFix(const Question& question,
                                              const InquiryView& view) {
  (void)view;
  if (question.fixes.empty()) return std::nullopt;
  std::vector<size_t> constant_fixes;
  for (size_t i = 0; i < question.fixes.size(); ++i) {
    if (!symbols_->IsNull(question.fixes[i].value)) {
      constant_fixes.push_back(i);
    }
  }
  if (!constant_fixes.empty()) return rng_.Choose(constant_fixes);
  return rng_.UniformIndex(question.fixes.size());
}

TranscriptUser::TranscriptUser(User* inner, SessionTranscript* transcript)
    : inner_(inner), transcript_(transcript) {
  KBREPAIR_CHECK(inner != nullptr);
  KBREPAIR_CHECK(transcript != nullptr);
}

std::optional<size_t> TranscriptUser::ChooseFix(const Question& question,
                                                const InquiryView& view) {
  const std::optional<size_t> choice = inner_->ChooseFix(question, view);
  if (choice.has_value()) transcript_->Record(question, *choice);
  return choice;
}

}  // namespace kbrepair
