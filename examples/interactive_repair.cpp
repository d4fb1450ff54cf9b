// Interactive repair REPL: load a DLGP knowledge base (from a file or
// the built-in hospital example), then answer the engine's questions on
// stdin until the KB is consistent.
//
// Usage:
//   interactive_repair [kb.dlgp] [strategy]
//     strategy: random | opti-join | opti-prop | opti-mcd (default) |
//               opti-learn
//
// Each question lists candidate fixes "(atom, position, new-value)";
// type the number of the fix that is true, or 'q' to abort.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "parser/dlgp_parser.h"
#include "repair/consistency.h"
#include "repair/inquiry.h"
#include "repair/user.h"

namespace {

constexpr const char* kDefaultKb = R"(
% The paper's running example (Figure 1b).
prescribed(aspirin, john).
hasAllergy(john, aspirin).
hasAllergy(mike, penicillin).
hasPain(john, migraine).
isPainKillerFor(nsaids, migraine).
incompatible(aspirin, nsaids).
prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
! :- prescribed(X, Y), hasAllergy(Y, X).
! :- prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y).
)";

// A user that renders questions on stdout and reads choices from stdin.
class ConsoleUser : public kbrepair::User {
 public:
  std::optional<size_t> ChooseFix(const kbrepair::Question& question,
                                  const kbrepair::InquiryView& view) override {
    if (view.cdds != nullptr &&
        question.source_cdd < view.cdds->size()) {
      std::cout << "\nviolated constraint: "
                << (*view.cdds)[question.source_cdd].ToString(*view.symbols)
                << "\n";
    }
    std::cout << "KB: which fix is true from the following set?\n";
    for (size_t i = 0; i < question.fixes.size(); ++i) {
      const kbrepair::Fix& fix = question.fixes[i];
      const kbrepair::Atom& atom = view.facts->atom(fix.atom);
      std::cout << "  [" << i << "] " << atom.ToString(*view.symbols)
                << "  — set argument " << (fix.arg + 1) << " to "
                << view.symbols->term_name(fix.value);
      if (view.symbols->IsNull(fix.value)) {
        std::cout << " (an unknown value)";
      }
      std::cout << "\n";
    }
    while (true) {
      std::cout << "your answer (0-" << question.fixes.size() - 1
                << ", or q to abort): " << std::flush;
      std::string line;
      if (!std::getline(std::cin, line) || line == "q") return std::nullopt;
      std::istringstream stream(line);
      size_t choice = 0;
      if (stream >> choice && choice < question.fixes.size()) {
        return choice;
      }
      std::cout << "  please enter a number in range.\n";
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace kbrepair;

  std::string text = kDefaultKb;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  const StatusOr<Strategy> parsed_strategy =
      StrategyFromName(argc > 2 ? argv[2] : "opti-mcd");
  if (!parsed_strategy.ok()) {
    std::cerr << parsed_strategy.status() << "\n";
    return 2;
  }
  const Strategy strategy = *parsed_strategy;

  StatusOr<KnowledgeBase> parsed = ParseDlgp(text);
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.status() << "\n";
    return 1;
  }
  KnowledgeBase kb = std::move(parsed).value();
  if (Status status = kb.Validate(); !status.ok()) {
    std::cerr << "invalid KB: " << status << "\n";
    return 1;
  }

  std::cout << "Loaded KB: " << kb.facts().size() << " facts, "
            << kb.tgds().size() << " TGDs, " << kb.cdds().size()
            << " CDDs. Strategy: " << StrategyName(strategy) << "\n";

  StatusOr<bool> consistent = IsConsistent(kb);
  if (!consistent.ok()) {
    std::cerr << "consistency check failed: " << consistent.status() << "\n";
    return 1;
  }
  if (consistent.value()) {
    std::cout << "The knowledge base is already consistent.\n";
    return 0;
  }

  ConsoleUser user;
  InquiryOptions options;
  options.strategy = strategy;
  InquiryEngine engine(&kb, options);
  StatusOr<InquiryResult> result = engine.Run(user);
  if (!result.ok()) {
    std::cerr << "\ninquiry aborted: " << result.status() << "\n";
    return 1;
  }

  std::cout << "\nConsistency restored after " << result->num_questions()
            << " question(s). Applied fixes:\n";
  for (const Fix& fix : result->applied_fixes) {
    // Render against the original facts (the paper's fix notation).
    std::cout << "  " << fix.ToString(kb.symbols(), kb.facts()) << "\n";
  }
  std::cout << "\nRepaired facts:\n"
            << result->facts.ToString(kb.symbols());
  return 0;
}
