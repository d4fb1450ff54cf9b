// User models for the inquiry dialogue (Section 4).
//
// The engine is agnostic to who answers: a simulated user drawing
// uniformly at random (the paper's experimental protocol, Section 6), an
// oracle holding a target u-repair (Section 4.1), a deterministic
// callback for tests, or a human on stdin (see examples/).

#ifndef KBREPAIR_REPAIR_USER_H_
#define KBREPAIR_REPAIR_USER_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/fix.h"
#include "repair/question.h"
#include "rules/cdd.h"
#include "util/rng.h"

namespace kbrepair {

// Read-only context handed to users so they can render the question.
struct InquiryView {
  const SymbolTable* symbols = nullptr;
  const FactBase* facts = nullptr;
  // The constraint set; question.source_cdd indexes into it, so users
  // can show *which* contradiction the question is resolving. May be
  // null when a user is driven outside an engine (tests).
  const std::vector<Cdd>* cdds = nullptr;
};

class User {
 public:
  virtual ~User() = default;

  // Picks one fix from a non-empty question; the returned index must be
  // < question.fixes.size(). nullopt means the user cannot answer, which
  // aborts the inquiry with FailedPrecondition.
  virtual std::optional<size_t> ChooseFix(const Question& question,
                                          const InquiryView& view) = 0;
};

// The one fix-matching rule, applied by replay and by the oracle users:
// the index of the first fix of `question` that rewrites `wanted`'s
// position to `wanted.value` or — when `wanted_is_null` — to a fresh
// null, i.e. an offered null the working facts do not use yet. Any two
// fresh nulls denote "an unknown unique to this position", whatever
// names they were minted under. `wanted.value` may be kInvalidTerm (a
// recorded term the symbol table has never seen), which matches no
// term exactly. nullopt when no offered fix matches.
std::optional<size_t> FindOfferedFix(const Question& question,
                                     const Fix& wanted, bool wanted_is_null,
                                     const SymbolTable& symbols,
                                     const InquiryView& view);

// Answers from target fixes (an oracle's r-fix): the lowest-indexed
// offered fix that realizes one of `targets` (FindOfferedFix); the
// first target it realizes is erased. nullopt when none is offered.
std::optional<size_t> TakeOfferedTarget(const Question& question,
                                        std::vector<Fix>* targets,
                                        const SymbolTable& symbols,
                                        const InquiryView& view);

// The paper's simulated end-user: a uniformly random valid choice.
class RandomUser : public User {
 public:
  explicit RandomUser(uint64_t seed) : rng_(seed) {}

  std::optional<size_t> ChooseFix(const Question& question,
                                  const InquiryView& view) override;

 private:
  Rng rng_;
};

// An oracle (Section 4.1): holds the r-fix P_O of a target u-repair and
// always answers with a fix from it (TakeOfferedTarget). The question
// mints its own labeled null, which stands for the oracle's null up to
// renaming.
class OracleUser : public User {
 public:
  OracleUser(std::vector<Fix> r_fix, const SymbolTable* symbols);

  std::optional<size_t> ChooseFix(const Question& question,
                                  const InquiryView& view) override;

  // Oracle fixes not yet exercised by the dialogue.
  const std::vector<Fix>& remaining() const { return remaining_; }

 private:
  std::vector<Fix> remaining_;
  const SymbolTable* symbols_;
};

// Answers through a std::function; for deterministic tests.
class CallbackUser : public User {
 public:
  using Callback = std::function<std::optional<size_t>(
      const Question&, const InquiryView&)>;

  explicit CallbackUser(Callback callback)
      : callback_(std::move(callback)) {}

  std::optional<size_t> ChooseFix(const Question& question,
                                  const InquiryView& view) override {
    return callback_(question, view);
  }

 private:
  Callback callback_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_USER_H_
