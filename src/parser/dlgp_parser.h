// Parser and printer for a DLGP-flavoured text syntax for knowledge bases
// (facts, TGDs, CDDs), close to the format used by the GRAAL toolchain the
// paper builds on.
//
// Syntax, one statement per '.':
//
//   % a comment, to end of line
//   prescribed(aspirin, john).                   % a fact
//   hasAllergy(john, _N1).                       % fact with a labeled null
//   prescribed(X,Z) :- painKiller(X,Y), pain(Z,Y).  % TGD: head :- body
//   ! :- prescribed(X,Y), hasAllergy(Y,X).          % CDD: ! :- body
//   ! :- p(X,Y), q(Z,W), X = Z.                     % CDD with equality
//
// Term conventions:
//   * in rule/constraint context, an identifier starting with an
//     uppercase letter is a variable; anything else is a constant;
//   * in fact context there are no variables: identifiers starting with
//     '_' are labeled nulls, everything else is a constant;
//   * a double-quoted string is always a constant ("Aspirin" lets an
//     uppercase-initial constant appear inside a rule).

#ifndef KBREPAIR_PARSER_DLGP_PARSER_H_
#define KBREPAIR_PARSER_DLGP_PARSER_H_

#include <string>
#include <string_view>

#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

// Parses `text` into a fresh KnowledgeBase. Errors carry 1-based line
// numbers. The result is syntactically validated but Validate() (weak
// acyclicity etc.) is left to the caller. The tables are sized from the
// text before the load, and the facts come back frozen
// (FactBase::FreezeSharedBase), so every copy of them is an O(1) fork.
//
// When a text has several errors, the first lexical error (a byte no
// token starts with, an unterminated string) is reported, else the
// first syntax error, else the first semantic one (arity, labels on
// facts, equalities outside CDD bodies, rule validation) in statement
// order.
StatusOr<KnowledgeBase> ParseDlgp(std::string_view text);

// Parses `text` and appends to an existing KnowledgeBase (same syntax).
// On error, `kb` keeps the statements before the failing one. Only an
// empty `kb` has its tables sized from the text; nothing is frozen.
Status ParseDlgpInto(std::string_view text, KnowledgeBase& kb);

// Serializes a KnowledgeBase back to the syntax above. Round-trips with
// ParseDlgp (modulo whitespace).
std::string PrintDlgp(const KnowledgeBase& kb);

// Reads and parses a DLGP file. NotFound if the file cannot be read.
StatusOr<KnowledgeBase> LoadDlgpFile(const std::string& path);

// Serializes and writes a KnowledgeBase to a file.
Status SaveDlgpFile(const KnowledgeBase& kb, const std::string& path);

}  // namespace kbrepair

#endif  // KBREPAIR_PARSER_DLGP_PARSER_H_
