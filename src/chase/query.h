// Conjunctive query answering over knowledge bases (Section 2).
//
// An answer to Q(x1..xk) over K = (F, Σ_T, Σ_C) is a tuple
// (h(x1)..h(xk)) for a homomorphism h from Q's body into the chased base
// Cl_{Σ_T}(F). Certain answers additionally require every answer term to
// be a constant — labeled nulls denote unknown individuals and are not
// certain.
//
// Queries use the DLGP syntax  ?(X, Y) :- p(X, Z), q(Z, Y).
// (ParseDlgpQuery interns symbols into an existing knowledge base).

#ifndef KBREPAIR_CHASE_QUERY_H_
#define KBREPAIR_CHASE_QUERY_H_

#include <string>
#include <vector>

#include "chase/incremental_chase.h"
#include "kb/atom.h"
#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

struct ConjunctiveQuery {
  // Distinguished (answer) variables, in output order. May be empty: a
  // boolean query.
  std::vector<TermId> answer_variables;
  std::vector<Atom> body;

  std::string ToString(const SymbolTable& symbols) const;
};

// One answer tuple (parallel to answer_variables).
using AnswerTuple = std::vector<TermId>;

struct QueryAnswers {
  // Distinct tuples, sorted. Tuples may contain labeled nulls.
  std::vector<AnswerTuple> all;
  // The subset of `all` whose terms are all constants: Q(F, Σ_T) in the
  // paper's notation.
  std::vector<AnswerTuple> certain;

  // For boolean queries: true iff the body has any homomorphism.
  bool boolean_result = false;
};

// Evaluates Q over Cl(F). `kb.symbols()` is mutated (chase nulls).
StatusOr<QueryAnswers> AnswerQuery(const ConjunctiveQuery& query,
                                   KnowledgeBase& kb,
                                   ChaseOptions options = {});

// Parses "?(X, Y) :- body ." (or "? :- body ." for boolean queries),
// interning into kb's symbol table.
StatusOr<ConjunctiveQuery> ParseDlgpQuery(const std::string& text,
                                          KnowledgeBase& kb);

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_QUERY_H_
