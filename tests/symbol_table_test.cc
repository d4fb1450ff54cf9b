#include "kb/symbol_table.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace kbrepair {
namespace {

// "<prefix><i>", the number named first (GCC 12 warns on a literal
// concatenated with a temporary).
std::string Name(const char* prefix, int i) {
  const std::string number = std::to_string(i);
  return prefix + number;
}

TEST(SymbolTableTest, InternTermIsIdempotent) {
  SymbolTable symbols;
  const TermId a = symbols.InternConstant("aspirin");
  const TermId b = symbols.InternConstant("aspirin");
  EXPECT_EQ(a, b);
  EXPECT_EQ(symbols.num_terms(), 1u);
}

TEST(SymbolTableTest, SameNameDifferentKindsAreDistinct) {
  SymbolTable symbols;
  const TermId constant = symbols.InternConstant("X");
  const TermId variable = symbols.InternVariable("X");
  const TermId null = symbols.InternNull("X");
  EXPECT_NE(constant, variable);
  EXPECT_NE(variable, null);
  EXPECT_NE(constant, null);
  EXPECT_TRUE(symbols.IsConstant(constant));
  EXPECT_TRUE(symbols.IsVariable(variable));
  EXPECT_TRUE(symbols.IsNull(null));
}

TEST(SymbolTableTest, NamesRoundTrip) {
  SymbolTable symbols;
  const TermId id = symbols.InternConstant("john");
  EXPECT_EQ(symbols.term_name(id), "john");
  EXPECT_EQ(symbols.term_kind(id), TermKind::kConstant);
}

TEST(SymbolTableTest, FindTermReturnsInvalidWhenAbsent) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.FindTerm(TermKind::kConstant, "ghost"), kInvalidTerm);
  symbols.InternConstant("ghost");
  EXPECT_NE(symbols.FindTerm(TermKind::kConstant, "ghost"), kInvalidTerm);
  // Other kinds still absent.
  EXPECT_EQ(symbols.FindTerm(TermKind::kVariable, "ghost"), kInvalidTerm);
}

TEST(SymbolTableTest, FreshNullsAreDistinct) {
  SymbolTable symbols;
  const TermId n1 = symbols.MakeFreshNull();
  const TermId n2 = symbols.MakeFreshNull();
  EXPECT_NE(n1, n2);
  EXPECT_TRUE(symbols.IsNull(n1));
  EXPECT_TRUE(symbols.IsNull(n2));
}

TEST(SymbolTableTest, FreshNullAvoidsUserClaimedNames) {
  SymbolTable symbols;
  symbols.InternNull("_N1");  // user grabbed the first generated name
  const TermId fresh = symbols.MakeFreshNull();
  EXPECT_NE(symbols.term_name(fresh), "_N1");
}

TEST(SymbolTableTest, FreshVariablesAreDistinct) {
  SymbolTable symbols;
  EXPECT_NE(symbols.MakeFreshVariable(), symbols.MakeFreshVariable());
}

TEST(SymbolTableTest, InternPredicateIsIdempotent) {
  SymbolTable symbols;
  const PredicateId p1 = symbols.InternPredicate("prescribed", 2);
  const PredicateId p2 = symbols.InternPredicate("prescribed", 2);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(symbols.predicate_name(p1), "prescribed");
  EXPECT_EQ(symbols.predicate_arity(p1), 2);
}

TEST(SymbolTableTest, FindPredicate) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.FindPredicate("nope"), kInvalidPredicate);
  const PredicateId p = symbols.InternPredicate("soil", 1);
  EXPECT_EQ(symbols.FindPredicate("soil"), p);
}

TEST(SymbolTableTest, StringViewLookups) {
  SymbolTable symbols;
  // Views into a larger buffer, not NUL-terminated at the view's end.
  const std::string buffer = "aspirin(john,mary)";
  const std::string_view predicate = std::string_view(buffer).substr(0, 7);
  const std::string_view john = std::string_view(buffer).substr(8, 4);
  const PredicateId p = symbols.InternPredicate(predicate, 2);
  const TermId id = symbols.InternConstant(john);
  EXPECT_EQ(symbols.predicate_name(p), "aspirin");
  EXPECT_EQ(symbols.term_name(id), "john");
  EXPECT_EQ(symbols.FindPredicate(std::string_view("aspirin")), p);
  EXPECT_EQ(symbols.FindTerm(TermKind::kConstant, std::string_view("john")),
            id);
  // A prefix of a stored name is a different name.
  EXPECT_EQ(symbols.FindTerm(TermKind::kConstant, john.substr(0, 3)),
            kInvalidTerm);
  EXPECT_EQ(symbols.FindPredicate(predicate.substr(0, 3)), kInvalidPredicate);
  // The table owns its names: the source can go away.
  {
    std::string temporary = "transient";
    symbols.InternNull(temporary);
    temporary.assign("overwritten");
  }
  EXPECT_NE(symbols.FindTerm(TermKind::kNull, "transient"), kInvalidTerm);
  // The empty name is a name like any other.
  const TermId empty = symbols.InternConstant(std::string_view());
  EXPECT_EQ(symbols.FindTerm(TermKind::kConstant, ""), empty);
  EXPECT_EQ(symbols.FindTerm(TermKind::kVariable, ""), kInvalidTerm);
}

TEST(SymbolTableTest, GrowthKeepsEveryIdFindable) {
  SymbolTable symbols;
  // 3 x 20000 terms: the index doubles a dozen times on the way.
  const TermKind kinds[] = {TermKind::kConstant, TermKind::kVariable,
                            TermKind::kNull};
  std::vector<TermId> ids;
  for (int i = 0; i < 20000; ++i) {
    for (const TermKind kind : kinds) {
      ids.push_back(symbols.InternTerm(kind, Name("t", i)));
    }
  }
  for (int p = 0; p < 3000; ++p) {
    EXPECT_EQ(symbols.InternPredicate(Name("p", p), 1 + p % 4),
              p);
  }
  ASSERT_EQ(symbols.num_terms(), ids.size());
  size_t next = 0;
  for (int i = 0; i < 20000; ++i) {
    for (const TermKind kind : kinds) {
      const TermId id = ids[next];
      ASSERT_EQ(id, static_cast<TermId>(next++));
      ASSERT_EQ(symbols.FindTerm(kind, Name("t", i)), id);
      ASSERT_EQ(symbols.InternTerm(kind, Name("t", i)), id);
      ASSERT_EQ(symbols.term_kind(id), kind);
    }
  }
  for (int p = 0; p < 3000; ++p) {
    ASSERT_EQ(symbols.FindPredicate(Name("p", p)), p);
    ASSERT_EQ(symbols.predicate_arity(p), 1 + p % 4);
  }
  EXPECT_EQ(symbols.FindTerm(TermKind::kConstant, "t20000"), kInvalidTerm);
  EXPECT_EQ(symbols.num_terms(), 60000u);
}

// ReserveTerms only sizes the tables: a reserved table hands out the
// same ids as an unreserved one, finds every term, and keeps both when
// interning runs past the reservation or a non-empty table reserves.
TEST(SymbolTableTest, ReservedTableAssignsTheSameIds) {
  const TermKind kinds[] = {TermKind::kConstant, TermKind::kVariable,
                            TermKind::kNull};
  SymbolTable reserved;
  reserved.ReserveTerms(3000);
  SymbolTable plain;
  for (int i = 0; i < 2000; ++i) {
    const TermKind kind = kinds[i % 3];
    ASSERT_EQ(reserved.InternTerm(kind, Name("t", i % 1500)),
              plain.InternTerm(kind, Name("t", i % 1500)));
  }
  reserved.ReserveTerms(5000);
  for (int i = 2000; i < 6000; ++i) {
    const TermKind kind = kinds[i % 3];
    ASSERT_EQ(reserved.InternTerm(kind, Name("t", i)),
              plain.InternTerm(kind, Name("t", i)));
  }
  ASSERT_EQ(reserved.num_terms(), plain.num_terms());
  for (TermId id = 0; id < static_cast<TermId>(plain.num_terms()); ++id) {
    ASSERT_EQ(reserved.term_kind(id), plain.term_kind(id));
    ASSERT_EQ(reserved.term_name(id), plain.term_name(id));
    ASSERT_EQ(reserved.FindTerm(plain.term_kind(id), plain.term_name(id)),
              id);
  }
  EXPECT_EQ(reserved.FindTerm(TermKind::kConstant, "t6000"), kInvalidTerm);
}

TEST(SymbolTableTest, ForkSharesTheFrozenBase) {
  SymbolTable base;
  std::vector<TermId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(base.InternConstant(Name("c", i)));
    ids.push_back(base.InternVariable(Name("V", i)));
  }
  const PredicateId p = base.InternPredicate("p", 2);
  base.MakeFreshNull();
  base.FreezeSharedBase();
  ASSERT_TRUE(base.has_shared_base());
  EXPECT_EQ(base.overlay_size(), 0u);

  SymbolTable fork;
  fork.ForkFrom(base);
  EXPECT_EQ(fork.overlay_size(), 0u);
  EXPECT_EQ(fork.num_terms(), base.num_terms());
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(fork.FindTerm(TermKind::kConstant, Name("c", i)),
              ids[2 * static_cast<size_t>(i)]);
    EXPECT_EQ(fork.FindTerm(TermKind::kVariable, Name("V", i)),
              ids[2 * static_cast<size_t>(i) + 1]);
  }
  EXPECT_EQ(fork.FindPredicate("p"), p);
  EXPECT_EQ(fork.FindTerm(TermKind::kNull, "_N1"),
            base.FindTerm(TermKind::kNull, "_N1"));

  // Re-interning a base symbol adds nothing; new symbols append after
  // the base and stay private to the fork.
  EXPECT_EQ(fork.InternConstant("c7"), ids[14]);
  EXPECT_EQ(fork.overlay_size(), 0u);
  const TermId fresh = fork.MakeFreshNull();
  EXPECT_EQ(fork.term_name(fresh), "_N2");
  EXPECT_EQ(fresh, static_cast<TermId>(base.num_terms()));
  const TermId added = fork.InternConstant("only-in-fork");
  EXPECT_EQ(fork.overlay_size(), 2u);
  EXPECT_EQ(base.FindTerm(TermKind::kConstant, "only-in-fork"), kInvalidTerm);
  EXPECT_EQ(base.FindTerm(TermKind::kNull, "_N2"), kInvalidTerm);

  // A sibling fork sees none of it.
  SymbolTable sibling;
  sibling.ForkFrom(base);
  EXPECT_EQ(sibling.FindTerm(TermKind::kConstant, "only-in-fork"),
            kInvalidTerm);
  EXPECT_EQ(sibling.term_name(sibling.MakeFreshNull()), "_N2");

  // Freezing the fork folds its own symbols into a new base; a fork of
  // that finds base and fork symbols alike.
  fork.FreezeSharedBase();
  SymbolTable grandchild;
  grandchild.ForkFrom(fork);
  EXPECT_EQ(grandchild.overlay_size(), 0u);
  EXPECT_EQ(grandchild.FindTerm(TermKind::kConstant, "only-in-fork"), added);
  EXPECT_EQ(grandchild.FindTerm(TermKind::kConstant, "c499"), ids[998]);
  EXPECT_EQ(grandchild.term_name(grandchild.MakeFreshNull()), "_N3");
}

TEST(SymbolTableTest, ConcurrentReadersOfAFork) {
  SymbolTable base;
  for (int i = 0; i < 2000; ++i) base.InternConstant(Name("c", i));
  base.FreezeSharedBase();
  SymbolTable fork;
  fork.ForkFrom(base);
  for (int i = 0; i < 100; ++i) fork.InternNull(Name("_n", i));
  std::vector<std::thread> readers;
  std::vector<int> misses(4, 0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&fork, &misses, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string name = Name("c", (i + 500 * t) % 2000);
        if (fork.FindTerm(TermKind::kConstant, name) == kInvalidTerm) {
          ++misses[static_cast<size_t>(t)];
        }
        if (fork.FindTerm(TermKind::kNull,
                          Name("_n", i % 100)) == kInvalidTerm) {
          ++misses[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(misses, std::vector<int>(4, 0));
}

TEST(SymbolTableTest, CloneMintsTheSameNamesAsTheLiveTable) {
  SymbolTable live;
  live.InternConstant("a");
  live.MakeFreshNull();
  live.MakeScratchNull();
  live.MakeFreshVariable();
  // User-claimed names the minting has to skip.
  live.InternNull("_N2");
  live.InternNull("_S3");
  live.InternVariable("_V2");
  const std::unique_ptr<SymbolTable> clone = live.Clone();
  for (int round = 0; round < 3; ++round) {
    const TermId live_null = live.MakeFreshNull();
    const TermId clone_null = clone->MakeFreshNull();
    EXPECT_EQ(live_null, clone_null);
    EXPECT_EQ(live.term_name(live_null), clone->term_name(clone_null));
    const TermId live_scratch = live.MakeScratchNull();
    const TermId clone_scratch = clone->MakeScratchNull();
    EXPECT_EQ(live_scratch, clone_scratch);
    EXPECT_EQ(live.term_name(live_scratch), clone->term_name(clone_scratch));
    const TermId live_var = live.MakeFreshVariable();
    const TermId clone_var = clone->MakeFreshVariable();
    EXPECT_EQ(live_var, clone_var);
    EXPECT_EQ(live.term_name(live_var), clone->term_name(clone_var));
  }
  EXPECT_EQ(live.term_name(live.FindTerm(TermKind::kNull, "_N3")), "_N3");
  EXPECT_EQ(clone->FindTerm(TermKind::kNull, "_N2"),
            live.FindTerm(TermKind::kNull, "_N2"));
  // The clone is independent: its interns do not reach the live table.
  clone->InternConstant("clone-only");
  EXPECT_EQ(live.FindTerm(TermKind::kConstant, "clone-only"), kInvalidTerm);
  EXPECT_EQ(live.num_terms() + 1, clone->num_terms());
}

TEST(SymbolTableDeathTest, ArityMismatchAborts) {
  SymbolTable symbols;
  symbols.InternPredicate("p", 2);
  EXPECT_DEATH(symbols.InternPredicate("p", 3), "arity");
}

}  // namespace
}  // namespace kbrepair
