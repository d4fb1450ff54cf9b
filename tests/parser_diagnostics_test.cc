// Golden diagnostics of the DLGP parser: tests/data/parser_diagnostics.txt
// holds, for every error site of src/parser/dlgp_parser.cc, an input and
// the exact Status text ParseDlgpInto returns for it — lexical errors
// (including control bytes and UTF-8 lead bytes, which print as hex),
// syntax errors, the semantic checks (arity, labels on facts, equalities
// outside CDD bodies) and the Cdd::Create rejections a text can reach.
// The `priority.*` cases hold several errors each and pin which one is
// reported: the first lexical error anywhere in the text, else the first
// syntax error, else the first semantic error in statement order.
//
// File format, one case per block:
//   == <name>
//   prelude <escaped text>   (optional; parsed into the KB first, must be OK)
//   input <escaped text>
//   status <escaped Status::ToString()>
// Escapes: \\ \n \t \r and \xHH for any other byte outside 0x20..0x7e.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "parser/dlgp_parser.h"

#ifndef KBREPAIR_PARSER_DIAGNOSTICS_FILE
#error "KBREPAIR_PARSER_DIAGNOSTICS_FILE must be defined by the build"
#endif

namespace kbrepair {
namespace {

struct DiagnosticCase {
  std::string name;
  std::string prelude;
  bool has_prelude = false;
  std::string input;
  std::string status;
};

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string Unescape(std::string_view text) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
      continue;
    }
    const char esc = text[++i];
    if (esc == 'n') {
      out += '\n';
    } else if (esc == 't') {
      out += '\t';
    } else if (esc == 'r') {
      out += '\r';
    } else if (esc == 'x' && i + 2 < text.size() &&
               HexDigit(text[i + 1]) >= 0 && HexDigit(text[i + 2]) >= 0) {
      out += static_cast<char>(HexDigit(text[i + 1]) * 16 +
                               HexDigit(text[i + 2]));
      i += 2;
    } else {
      out += esc;
    }
  }
  return out;
}

std::vector<DiagnosticCase> ReadCases() {
  std::ifstream in(KBREPAIR_PARSER_DIAGNOSTICS_FILE);
  EXPECT_TRUE(in.good()) << "cannot open "
                         << KBREPAIR_PARSER_DIAGNOSTICS_FILE;
  std::vector<DiagnosticCase> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      cases.emplace_back();
      cases.back().name = line.substr(3);
    } else if (cases.empty() || line.empty() || line[0] == '#') {
      continue;
    } else if (line.rfind("prelude ", 0) == 0) {
      cases.back().prelude = Unescape(std::string_view(line).substr(8));
      cases.back().has_prelude = true;
    } else if (line.rfind("input ", 0) == 0) {
      cases.back().input = Unescape(std::string_view(line).substr(6));
    } else if (line.rfind("status ", 0) == 0) {
      cases.back().status = Unescape(std::string_view(line).substr(7));
    } else {
      ADD_FAILURE() << "unrecognized line in golden: " << line;
    }
  }
  return cases;
}

size_t CountWithPrefix(const std::vector<DiagnosticCase>& cases,
                       std::string_view prefix) {
  size_t count = 0;
  for (const DiagnosticCase& c : cases) {
    if (c.name.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(ParserDiagnosticsTest, GoldenCoversEveryErrorClass) {
  const std::vector<DiagnosticCase> cases = ReadCases();
  EXPECT_GE(CountWithPrefix(cases, "lex."), 10u);
  EXPECT_GE(CountWithPrefix(cases, "syntax."), 14u);
  EXPECT_GE(CountWithPrefix(cases, "semantic."), 8u);
  EXPECT_GE(CountWithPrefix(cases, "priority."), 6u);
  for (const DiagnosticCase& c : cases) {
    EXPECT_FALSE(c.status.empty()) << c.name << " has no status line";
  }
}

TEST(ParserDiagnosticsTest, StatusTextsMatchGolden) {
  for (const DiagnosticCase& c : ReadCases()) {
    SCOPED_TRACE(c.name);
    KnowledgeBase kb;
    if (c.has_prelude) {
      ASSERT_TRUE(ParseDlgpInto(c.prelude, kb).ok());
    }
    EXPECT_EQ(ParseDlgpInto(c.input, kb).ToString(), c.status);
  }
}

// ParseDlgp reports what ParseDlgpInto reports on an empty KB.
TEST(ParserDiagnosticsTest, ParseDlgpAgreesWithParseDlgpInto) {
  for (const DiagnosticCase& c : ReadCases()) {
    if (c.has_prelude) continue;
    SCOPED_TRACE(c.name);
    EXPECT_EQ(ParseDlgp(c.input).status().ToString(), c.status);
  }
}

}  // namespace
}  // namespace kbrepair
