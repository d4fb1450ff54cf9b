#include "parser/dlgp_parser.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

namespace kbrepair {

namespace {

// Character classes of the C locale, which the DLGP grammar is written in.
bool IsSpace(unsigned char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsUpper(unsigned char c) { return c >= 'A' && c <= 'Z'; }
bool IsAlnum(unsigned char c) {
  return IsUpper(c) || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
}
bool IsIdentifierStart(unsigned char c) { return IsAlnum(c) || c == '_'; }
bool IsIdentifierChar(unsigned char c) {
  return IsIdentifierStart(c) || c == '-' || c == '/';
}

// Renders one input byte for an error message: printable ASCII is shown
// quoted, anything else (control bytes, NUL, UTF-8 lead bytes) as hex so
// the message itself stays printable.
std::string DescribeByte(char c) {
  const unsigned char byte = static_cast<unsigned char>(c);
  if (byte >= 0x20 && byte < 0x7f) {
    return std::string("'") + c + "'";
  }
  static const char kHex[] = "0123456789abcdef";
  std::string out = "byte 0x";
  out += kHex[byte >> 4];
  out += kHex[byte & 0xf];
  return out;
}

enum class Lex : uint8_t {
  kIdentifier,
  kQuoted,  // text() is the content between the quotes
  kLeftParen,
  kRightParen,
  kLeftBracket,
  kRightBracket,
  kComma,
  kDot,
  kImplies,  // ":-"
  kBang,     // "!"
  kEquals,   // "="
  kEnd,
  kError,  // a lexical error (ScanRest() returns it); the lexer stays here
};

// Pulls one token at a time from the text: the current token is kind(),
// text(), line() and column(), and Next() moves to the following one.
// Token texts are views into the input; nothing is copied.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { Next(); }

  Lex kind() const { return kind_; }
  std::string_view text() const { return token_; }
  int line() const { return token_line_; }
  int column() const { return token_column_; }

  void Next() {
    if (kind_ == Lex::kError) return;
    SkipSpaceAndComments();
    token_line_ = line_;
    token_column_ = Column();
    token_ = {};
    if (pos_ >= text_.size()) {
      kind_ = Lex::kEnd;
      return;
    }
    const char c = text_[pos_];
    switch (c) {
      case '(':
        return Punctuation(Lex::kLeftParen);
      case ')':
        return Punctuation(Lex::kRightParen);
      case '[':
        return Punctuation(Lex::kLeftBracket);
      case ']':
        return Punctuation(Lex::kRightBracket);
      case ',':
        return Punctuation(Lex::kComma);
      case '.':
        return Punctuation(Lex::kDot);
      case '!':
        return Punctuation(Lex::kBang);
      case '=':
        return Punctuation(Lex::kEquals);
      case ':':
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
          kind_ = Lex::kImplies;
          pos_ += 2;
          return;
        }
        return Fail("expected ':-'");
      case '"':
        return Quoted();
      default:
        break;
    }
    if (!IsIdentifierStart(static_cast<unsigned char>(c))) {
      return Fail("unexpected character " + DescribeByte(c));
    }
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           IsIdentifierChar(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    kind_ = Lex::kIdentifier;
    token_ = text_.substr(start, pos_ - start);
  }

  // Lexes the rest of the text: the first lexical error from the current
  // token on, or Ok.
  Status ScanRest() {
    while (kind_ != Lex::kEnd && kind_ != Lex::kError) Next();
    return kind_ == Lex::kError ? error_ : Status::Ok();
  }

 private:
  int Column() const { return static_cast<int>(pos_ - line_start_) + 1; }

  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        line_start_ = pos_;
      } else if (IsSpace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%') {
        const size_t newline = text_.find('\n', pos_);
        pos_ = newline == std::string_view::npos ? text_.size() : newline;
      } else {
        return;
      }
    }
  }

  void Punctuation(Lex kind) {
    kind_ = kind;
    ++pos_;
  }

  void Quoted() {
    const size_t start = ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\n') return Fail("unterminated string");
      ++pos_;
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    kind_ = Lex::kQuoted;
    token_ = text_.substr(start, pos_ - start);
    ++pos_;  // closing quote
  }

  // Reports `message` at the current position and stops the lexer.
  void Fail(const std::string& message) {
    kind_ = Lex::kError;
    error_ = Status::InvalidArgument("line " + std::to_string(line_) +
                                     ", column " + std::to_string(Column()) +
                                     ": " + message);
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_start_ = 0;
  int line_ = 1;
  Lex kind_ = Lex::kEnd;
  std::string_view token_;
  int token_line_ = 1;
  int token_column_ = 1;
  Status error_;
};

// One pass over the text: each statement is parsed into flat scratch
// lists of token views (reused from statement to statement) and then
// resolved into the KB at once, facts straight into the SymbolTable and
// FactBase, so terms and predicates are interned in statement order.
//
// Errors keep the priority of a lex-everything, parse-everything,
// resolve-everything reading: the first lexical error anywhere in the
// text, else the first syntax error, else the first semantic error. The
// pass stops at its first error; text before it is known to be clean,
// so only the rest is re-scanned, in check-only mode.
class Parser {
 public:
  Parser(std::string_view text, KnowledgeBase& kb)
      : lexer_(text), kb_(kb), symbols_(kb.symbols()) {}

  Status ParseAll() {
    while (lexer_.kind() != Lex::kEnd) {
      KBREPAIR_RETURN_IF_ERROR(ParseStatement());
      if (check_only_) continue;
      const Status resolved = ResolveStatement();
      if (!resolved.ok()) return RestOutranks(resolved);
    }
    return Status::Ok();
  }

 private:
  enum class StatementKind { kFact, kTgd, kCdd };

  struct TermText {
    std::string_view text;
    bool quoted;
  };
  // An atom or, when `equality`, the two sides of "term = term"; its
  // terms are terms_[first_term, end_term).
  struct AtomText {
    std::string_view predicate;
    size_t first_term;
    size_t end_term;
    int line;
    bool equality;
  };

  // A syntax error at the current token, unless the rest of the text
  // holds a lexical error, which outranks it.
  Status SyntaxError(const std::string& message) {
    const Status syntax = Status::InvalidArgument(
        "line " + std::to_string(lexer_.line()) + ", column " +
        std::to_string(lexer_.column()) + ": " + message);
    const Status lexical = lexer_.ScanRest();
    return lexical.ok() ? syntax : lexical;
  }

  // `semantic` unless the statements after it hold a lexical or syntax
  // error, which outrank it.
  Status RestOutranks(const Status& semantic) {
    const Lexer rest = lexer_;
    KBREPAIR_RETURN_IF_ERROR(lexer_.ScanRest());
    lexer_ = rest;
    check_only_ = true;
    KBREPAIR_RETURN_IF_ERROR(ParseAll());
    return semantic;
  }

  bool AtTerm() const {
    return lexer_.kind() == Lex::kIdentifier || lexer_.kind() == Lex::kQuoted;
  }
  TermText CurrentTerm() const {
    return {lexer_.text(), lexer_.kind() == Lex::kQuoted};
  }

  Status ParseStatement() {
    terms_.clear();
    head_.clear();
    body_.clear();
    label_ = {};
    statement_line_ = lexer_.line();
    if (lexer_.kind() == Lex::kLeftBracket) {
      lexer_.Next();
      if (lexer_.kind() != Lex::kIdentifier) {
        return SyntaxError("expected rule label after '['");
      }
      label_ = lexer_.text();
      lexer_.Next();
      if (lexer_.kind() != Lex::kRightBracket) {
        return SyntaxError("expected ']' after rule label");
      }
      lexer_.Next();
    }
    if (lexer_.kind() == Lex::kBang) {
      // CDD: ! :- body .
      lexer_.Next();
      if (lexer_.kind() != Lex::kImplies) {
        return SyntaxError("expected ':-' after '!'");
      }
      lexer_.Next();
      kind_ = StatementKind::kCdd;
      KBREPAIR_RETURN_IF_ERROR(ParseAtomList(&body_));
    } else {
      KBREPAIR_RETURN_IF_ERROR(ParseAtomList(&head_));
      if (lexer_.kind() == Lex::kImplies) {
        lexer_.Next();
        kind_ = StatementKind::kTgd;
        KBREPAIR_RETURN_IF_ERROR(ParseAtomList(&body_));
      } else {
        kind_ = StatementKind::kFact;
      }
    }
    if (lexer_.kind() != Lex::kDot) {
      return SyntaxError("expected '.' at end of statement");
    }
    lexer_.Next();
    return Status::Ok();
  }

  Status ParseAtomList(std::vector<AtomText>* atoms) {
    while (true) {
      KBREPAIR_RETURN_IF_ERROR(ParseAtomOrEquality(atoms));
      if (lexer_.kind() != Lex::kComma) return Status::Ok();
      lexer_.Next();
    }
  }

  Status ParseAtomOrEquality(std::vector<AtomText>* atoms) {
    AtomText atom{{}, terms_.size(), 0, lexer_.line(), false};
    if (!AtTerm()) return SyntaxError("expected predicate or term");
    const TermText first = CurrentTerm();
    lexer_.Next();
    if (lexer_.kind() == Lex::kEquals) {
      // Equality: term = term.
      lexer_.Next();
      if (!AtTerm()) return SyntaxError("expected term after '='");
      terms_.push_back(first);
      terms_.push_back(CurrentTerm());
      lexer_.Next();
      atom.equality = true;
      atom.end_term = terms_.size();
      atoms->push_back(atom);
      return Status::Ok();
    }
    if (first.quoted) {
      return SyntaxError("predicate names cannot be quoted");
    }
    atom.predicate = first.text;
    if (lexer_.kind() != Lex::kLeftParen) {
      return SyntaxError("expected '(' after predicate " +
                         std::string(first.text));
    }
    lexer_.Next();
    while (true) {
      if (!AtTerm()) return SyntaxError("expected term");
      terms_.push_back(CurrentTerm());
      lexer_.Next();
      if (lexer_.kind() == Lex::kComma) {
        lexer_.Next();
        continue;
      }
      if (lexer_.kind() == Lex::kRightParen) {
        lexer_.Next();
        break;
      }
      return SyntaxError("expected ',' or ')' in argument list");
    }
    atom.end_term = terms_.size();
    atoms->push_back(atom);
    return Status::Ok();
  }

  // Rule context: uppercase-initial identifiers are variables.
  TermId ResolveRuleTerm(const TermText& term) {
    if (!term.quoted && IsUpper(static_cast<unsigned char>(term.text[0]))) {
      return symbols_.InternVariable(term.text);
    }
    return symbols_.InternConstant(term.text);
  }

  // Fact context: '_'-initial identifiers are labeled nulls.
  TermId ResolveFactTerm(const TermText& term) {
    if (!term.quoted && term.text[0] == '_') {
      return symbols_.InternNull(term.text);
    }
    return symbols_.InternConstant(term.text);
  }

  StatusOr<Atom> ResolveAtom(const AtomText& text, bool rule_context) {
    if (text.equality) {
      return Status::InvalidArgument(
          "line " + std::to_string(text.line) +
          ": equalities are only allowed in CDD bodies");
    }
    const int arity = static_cast<int>(text.end_term - text.first_term);
    PredicateId pred = symbols_.FindPredicate(text.predicate);
    if (pred == kInvalidPredicate) {
      pred = symbols_.InternPredicate(text.predicate, arity);
    } else if (symbols_.predicate_arity(pred) != arity) {
      return Status::InvalidArgument(
          "line " + std::to_string(text.line) + ": predicate " +
          std::string(text.predicate) + " used with arity " +
          std::to_string(arity) + " but previously had arity " +
          std::to_string(symbols_.predicate_arity(pred)));
    }
    Atom atom;
    atom.predicate = pred;
    atom.args.reserve(static_cast<size_t>(arity));
    for (size_t i = text.first_term; i < text.end_term; ++i) {
      atom.args.push_back(rule_context ? ResolveRuleTerm(terms_[i])
                                       : ResolveFactTerm(terms_[i]));
    }
    return atom;
  }

  StatusOr<std::vector<Atom>> ResolveRuleAtoms(
      const std::vector<AtomText>& texts) {
    std::vector<Atom> atoms;
    atoms.reserve(texts.size());
    for (const AtomText& text : texts) {
      KBREPAIR_ASSIGN_OR_RETURN(Atom atom,
                                ResolveAtom(text, /*rule_context=*/true));
      atoms.push_back(std::move(atom));
    }
    return atoms;
  }

  Status ResolveStatement() {
    switch (kind_) {
      case StatementKind::kFact: {
        if (!label_.empty()) {
          return Status::InvalidArgument(
              "line " + std::to_string(statement_line_) +
              ": labels are only supported on rules and constraints");
        }
        for (const AtomText& text : head_) {
          KBREPAIR_ASSIGN_OR_RETURN(
              Atom atom, ResolveAtom(text, /*rule_context=*/false));
          kb_.facts().Add(std::move(atom));
        }
        return Status::Ok();
      }
      case StatementKind::kTgd: {
        KBREPAIR_ASSIGN_OR_RETURN(std::vector<Atom> head,
                                  ResolveRuleAtoms(head_));
        KBREPAIR_ASSIGN_OR_RETURN(std::vector<Atom> body,
                                  ResolveRuleAtoms(body_));
        KBREPAIR_ASSIGN_OR_RETURN(
            Tgd tgd, Tgd::Create(std::move(body), std::move(head), symbols_));
        tgd.set_label(std::string(label_));
        kb_.tgds().push_back(std::move(tgd));
        return Status::Ok();
      }
      case StatementKind::kCdd: {
        std::vector<Atom> body;
        std::vector<TermEquality> equalities;
        for (const AtomText& text : body_) {
          if (text.equality) {
            TermEquality eq;
            eq.left = ResolveRuleTerm(terms_[text.first_term]);
            eq.right = ResolveRuleTerm(terms_[text.first_term + 1]);
            equalities.push_back(eq);
            continue;
          }
          KBREPAIR_ASSIGN_OR_RETURN(Atom atom,
                                    ResolveAtom(text, /*rule_context=*/true));
          body.push_back(std::move(atom));
        }
        KBREPAIR_ASSIGN_OR_RETURN(
            Cdd cdd,
            Cdd::Create(std::move(body), symbols_, std::move(equalities)));
        cdd.set_label(std::string(label_));
        kb_.cdds().push_back(std::move(cdd));
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  Lexer lexer_;
  KnowledgeBase& kb_;
  SymbolTable& symbols_;
  // After a semantic error: parse the rest for outranking errors only.
  bool check_only_ = false;

  // The current statement.
  StatementKind kind_ = StatementKind::kFact;
  int statement_line_ = 0;
  std::string_view label_;  // "[name]" prefix; empty if absent
  std::vector<TermText> terms_;
  std::vector<AtomText> head_;  // a fact's atoms, or a TGD head
  std::vector<AtomText> body_;
};

// Sizes an empty KB's tables for `text` from one count of '(' and ','
// (each atom opens one parenthesis; its arguments are separated by
// commas), so the load runs no growth step. The counts bound what a
// valid text holds: at most `(` atoms and `(` + `,` argument positions,
// and every term is first interned at a position. Comments, strings
// and rule bodies only make them larger.
//
// The text is untrusted, so the counts are capped by what a valid text
// of its length could need: an atom takes at least five bytes ("p(a)"
// and the ',' or '.' after it), an argument at least two (a one-byte
// term and the ',' or ')' after it). Worst case, a 1 MiB text
// (kbrepaird's line cap) of '(' reserves 209,715 atoms and 524,288
// positions (one of ',' only the positions): the probe table and the
// term index, which are written when sized, take 20 MiB and 8 MiB (2^20
// slots of 20 and 8 bytes), and the atom, term and term-use vectors
// reserve 28 MiB more that stays untouched, before the first byte fails
// to parse.
void ReserveFor(std::string_view text, KnowledgeBase& kb) {
  const size_t opens = static_cast<size_t>(
      std::count(text.begin(), text.end(), '('));
  const size_t commas = static_cast<size_t>(
      std::count(text.begin(), text.end(), ','));
  const size_t atoms = std::min(opens, text.size() / 5);
  const size_t positions = std::min(opens + commas, text.size() / 2);
  kb.symbols().ReserveTerms(positions);
  kb.facts().Reserve(atoms, positions);
}

}  // namespace

Status ParseDlgpInto(std::string_view text, KnowledgeBase& kb) {
  if (kb.symbols().num_terms() == 0 && kb.facts().empty()) {
    ReserveFor(text, kb);
  }
  return Parser(text, kb).ParseAll();
}

StatusOr<KnowledgeBase> ParseDlgp(std::string_view text) {
  KnowledgeBase kb;
  KBREPAIR_RETURN_IF_ERROR(ParseDlgpInto(text, kb));
  // F is read-only input to every session built on it: freezing it here
  // makes the working facts and the chase base O(1) forks of this copy.
  kb.facts().FreezeSharedBase();
  return kb;
}

namespace {

// True iff the lexer would read `name` back as one identifier token:
// alnum/underscore start, then alnum/underscore/dash/slash.
bool LexesAsIdentifier(const std::string& name) {
  if (name.empty()) return false;
  const unsigned char first = static_cast<unsigned char>(name[0]);
  if (!IsIdentifierStart(first)) return false;
  for (const char c : name) {
    const unsigned char byte = static_cast<unsigned char>(c);
    if (!IsIdentifierChar(byte)) {
      return false;
    }
  }
  return true;
}

// Quotes a term name if it would not re-parse with the same kind.
std::string PrintTerm(const SymbolTable& symbols, TermId term,
                      bool rule_context) {
  const std::string& name = symbols.term_name(term);
  switch (symbols.term_kind(term)) {
    case TermKind::kConstant: {
      const bool looks_variable =
          rule_context && !name.empty() &&
          IsUpper(static_cast<unsigned char>(name[0]));
      const bool looks_null = !name.empty() && name[0] == '_';
      if (looks_variable || looks_null || !LexesAsIdentifier(name)) {
        return '"' + name + '"';
      }
      return name;
    }
    case TermKind::kVariable:
      return name;  // rules only; names are uppercase-initial by intern
    case TermKind::kNull:
      return name;  // '_'-initial by convention
  }
  return name;
}

std::string PrintAtom(const SymbolTable& symbols, const Atom& atom,
                      bool rule_context) {
  std::string out = symbols.predicate_name(atom.predicate);
  out += '(';
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += PrintTerm(symbols, atom.args[i], rule_context);
  }
  out += ')';
  return out;
}

std::string PrintConjunction(const SymbolTable& symbols,
                             const std::vector<Atom>& atoms,
                             bool rule_context) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += PrintAtom(symbols, atoms[i], rule_context);
  }
  return out;
}

}  // namespace

StatusOr<KnowledgeBase> LoadDlgpFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseDlgp(buffer.str());
}

Status SaveDlgpFile(const KnowledgeBase& kb, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  file << PrintDlgp(kb);
  if (!file.good()) {
    return Status::Internal("write to " + path + " failed");
  }
  return Status::Ok();
}

std::string PrintDlgp(const KnowledgeBase& kb) {
  const SymbolTable& symbols = kb.symbols();
  std::string out;
  out += "% facts\n";
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    out += PrintAtom(symbols, kb.facts().atom(id), /*rule_context=*/false);
    out += ".\n";
  }
  out += "% tgds\n";
  for (const Tgd& tgd : kb.tgds()) {
    if (!tgd.label().empty()) out += "[" + tgd.label() + "] ";
    out += PrintConjunction(symbols, tgd.head(), /*rule_context=*/true);
    out += " :- ";
    out += PrintConjunction(symbols, tgd.body(), /*rule_context=*/true);
    out += ".\n";
  }
  out += "% cdds\n";
  for (const Cdd& cdd : kb.cdds()) {
    if (!cdd.label().empty()) out += "[" + cdd.label() + "] ";
    out += "! :- ";
    out += PrintConjunction(symbols, cdd.body(), /*rule_context=*/true);
    out += ".\n";
  }
  return out;
}

}  // namespace kbrepair
