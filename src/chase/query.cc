#include "chase/query.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "kb/homomorphism.h"
#include "util/logging.h"

namespace kbrepair {

std::string ConjunctiveQuery::ToString(const SymbolTable& symbols) const {
  std::string out = "?(";
  for (size_t i = 0; i < answer_variables.size(); ++i) {
    if (i > 0) out += ",";
    out += symbols.term_name(answer_variables[i]);
  }
  out += ") :- ";
  out += AtomsToString(body, symbols);
  return out;
}

StatusOr<QueryAnswers> AnswerQuery(const ConjunctiveQuery& query,
                                   KnowledgeBase& kb, ChaseOptions options) {
  // Answer variables must occur in the body (safety).
  for (TermId var : query.answer_variables) {
    bool occurs = false;
    for (const Atom& atom : query.body) {
      for (TermId term : atom.args) occurs = occurs || term == var;
    }
    if (!occurs) {
      return Status::InvalidArgument(
          "unsafe query: answer variable " + kb.symbols().term_name(var) +
          " does not occur in the body");
    }
  }

  IncrementalChase chase(&kb.symbols(), &kb.tgds(), options);
  KBREPAIR_RETURN_IF_ERROR(chase.Initialize(kb.facts()));

  QueryAnswers answers;
  HomomorphismFinder finder(&kb.symbols(), &chase.facts());
  finder.FindAll(query.body, [&](const Homomorphism& hom) {
    answers.boolean_result = true;
    if (query.answer_variables.empty()) return false;  // boolean: done
    AnswerTuple tuple;
    tuple.reserve(query.answer_variables.size());
    for (TermId var : query.answer_variables) {
      tuple.push_back(hom.Map(var));
    }
    answers.all.push_back(std::move(tuple));
    return true;
  });

  std::sort(answers.all.begin(), answers.all.end());
  answers.all.erase(std::unique(answers.all.begin(), answers.all.end()),
                    answers.all.end());
  for (const AnswerTuple& tuple : answers.all) {
    bool all_constants = true;
    for (TermId term : tuple) {
      all_constants = all_constants && kb.symbols().IsConstant(term);
    }
    if (all_constants) answers.certain.push_back(tuple);
  }
  return answers;
}

namespace {

void SkipSpace(const std::string& text, size_t& pos) {
  while (pos < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    } else if (text[pos] == '%') {
      while (pos < text.size() && text[pos] != '\n') ++pos;
    } else {
      break;
    }
  }
}

StatusOr<std::string> ReadIdentifier(const std::string& text, size_t& pos) {
  SkipSpace(text, pos);
  const size_t start = pos;
  while (pos < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[pos])) ||
          text[pos] == '_' || text[pos] == '-' || text[pos] == '/')) {
    ++pos;
  }
  if (pos == start) {
    return Status::InvalidArgument("expected identifier in query at offset " +
                                   std::to_string(pos));
  }
  return text.substr(start, pos - start);
}

bool Consume(const std::string& text, size_t& pos, const std::string& token) {
  SkipSpace(text, pos);
  if (text.compare(pos, token.size(), token) == 0) {
    pos += token.size();
    return true;
  }
  return false;
}

TermId ResolveQueryTerm(const std::string& name, SymbolTable& symbols) {
  if (!name.empty() &&
      std::isupper(static_cast<unsigned char>(name[0]))) {
    return symbols.InternVariable(name);
  }
  return symbols.InternConstant(name);
}

}  // namespace

StatusOr<ConjunctiveQuery> ParseDlgpQuery(const std::string& text,
                                          KnowledgeBase& kb) {
  ConjunctiveQuery query;
  SymbolTable& symbols = kb.symbols();
  size_t pos = 0;

  if (!Consume(text, pos, "?")) {
    return Status::InvalidArgument("query must start with '?'");
  }
  if (Consume(text, pos, "(")) {
    if (!Consume(text, pos, ")")) {
      while (true) {
        KBREPAIR_ASSIGN_OR_RETURN(const std::string name,
                                  ReadIdentifier(text, pos));
        const TermId term = ResolveQueryTerm(name, symbols);
        if (!symbols.IsVariable(term)) {
          return Status::InvalidArgument(
              "answer terms must be variables: " + name);
        }
        query.answer_variables.push_back(term);
        if (Consume(text, pos, ",")) continue;
        if (Consume(text, pos, ")")) break;
        return Status::InvalidArgument("expected ',' or ')' in query head");
      }
    }
  }
  if (!Consume(text, pos, ":-")) {
    return Status::InvalidArgument("expected ':-' after query head");
  }
  while (true) {
    KBREPAIR_ASSIGN_OR_RETURN(const std::string predicate,
                              ReadIdentifier(text, pos));
    if (!Consume(text, pos, "(")) {
      return Status::InvalidArgument("expected '(' after predicate " +
                                     predicate);
    }
    std::vector<TermId> args;
    while (true) {
      KBREPAIR_ASSIGN_OR_RETURN(const std::string name,
                                ReadIdentifier(text, pos));
      args.push_back(ResolveQueryTerm(name, symbols));
      if (Consume(text, pos, ",")) continue;
      if (Consume(text, pos, ")")) break;
      return Status::InvalidArgument("expected ',' or ')' in atom");
    }
    const PredicateId existing = symbols.FindPredicate(predicate);
    const int arity = static_cast<int>(args.size());
    if (existing != kInvalidPredicate &&
        symbols.predicate_arity(existing) != arity) {
      return Status::InvalidArgument("arity mismatch for predicate " +
                                     predicate);
    }
    query.body.emplace_back(symbols.InternPredicate(predicate, arity),
                            std::move(args));
    if (Consume(text, pos, ",")) continue;
    if (Consume(text, pos, ".")) break;
    return Status::InvalidArgument("expected ',' or '.' after atom");
  }
  SkipSpace(text, pos);
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing input after query");
  }
  if (query.body.empty()) {
    return Status::InvalidArgument("query body must be non-empty");
  }
  return query;
}

}  // namespace kbrepair
