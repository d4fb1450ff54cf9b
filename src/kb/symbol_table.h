// Interning tables for terms and predicates.
//
// All terms (constants, rule variables, labeled nulls) and predicates are
// interned into dense integer ids. Atoms are then just small integer
// vectors, which makes homomorphism search, indexing and hashing cheap —
// the same design used by in-memory Datalog engines.

#ifndef KBREPAIR_KB_SYMBOL_TABLE_H_
#define KBREPAIR_KB_SYMBOL_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/cow.h"
#include "util/logging.h"

namespace kbrepair {

// Dense id of an interned term. Valid ids are >= 0.
using TermId = int32_t;
inline constexpr TermId kInvalidTerm = -1;

// Dense id of an interned predicate. Valid ids are >= 0.
using PredicateId = int32_t;
inline constexpr PredicateId kInvalidPredicate = -1;

// The three syntactic categories of terms in the paper's KB model.
enum class TermKind : uint8_t {
  kConstant = 0,  // e.g. Aspirin, John
  kVariable = 1,  // universally/existentially quantified rule variable
  kNull = 2,      // labeled null (frozen existential), e.g. X_1 in facts
};

// Owns the string<->id mappings for terms and predicates.
//
// Labeled nulls and rule variables can be minted fresh
// (MakeFreshNull/MakeFreshVariable); freshness is global to the table, so
// a null invented during the chase or by a position fix can never collide
// with an existing value — the property Definition 3.1 relies on.
class SymbolTable {
 public:
  SymbolTable() = default;

  // SymbolTable is shared by reference between the fact base, rules and
  // the repair engine; copying one by accident is almost always a bug.
  // The copy constructor is private (see Clone() below); assignment
  // stays deleted outright.
  SymbolTable& operator=(const SymbolTable&) = delete;

  // --- Terms -------------------------------------------------------------

  // Interns (creating if absent) a term with the given kind and name.
  // The same name may exist with different kinds ("X" the constant and
  // "X" the variable are distinct terms).
  TermId InternTerm(TermKind kind, std::string_view name) {
    bool inserted = false;
    return Intern(kind, name, &inserted);
  }

  TermId InternConstant(std::string_view name) {
    return InternTerm(TermKind::kConstant, name);
  }
  TermId InternVariable(std::string_view name) {
    return InternTerm(TermKind::kVariable, name);
  }
  TermId InternNull(std::string_view name) {
    return InternTerm(TermKind::kNull, name);
  }

  // Returns the id of an existing term, or kInvalidTerm.
  TermId FindTerm(TermKind kind, std::string_view name) const {
    return FindTerm(kind, name, TermHash(kind, name));
  }

  // Mints a brand-new labeled null (name "_N<k>").
  TermId MakeFreshNull();

  // Mints a brand-new labeled null named "_S<k>" from a counter of its
  // own, for scratch instances (the Π-skeleton) whose nulls never reach
  // a transcript: minting them leaves the "_N" labels a dialogue hands
  // out unchanged.
  TermId MakeScratchNull();

  // Mints a brand-new rule variable (name "_V<k>"), used when renaming
  // rule heads apart ("safe(H)" in the paper).
  TermId MakeFreshVariable();

  TermKind term_kind(TermId id) const {
    KBREPAIR_DCHECK(id >= 0 && static_cast<size_t>(id) < terms_.size());
    return terms_[static_cast<size_t>(id)].kind;
  }
  const std::string& term_name(TermId id) const {
    KBREPAIR_DCHECK(id >= 0 && static_cast<size_t>(id) < terms_.size());
    return terms_[static_cast<size_t>(id)].name;
  }
  bool IsConstant(TermId id) const {
    return term_kind(id) == TermKind::kConstant;
  }
  bool IsVariable(TermId id) const {
    return term_kind(id) == TermKind::kVariable;
  }
  bool IsNull(TermId id) const { return term_kind(id) == TermKind::kNull; }

  size_t num_terms() const { return terms_.size(); }

  // Room for `count` more terms: interning that many runs no growth
  // step of the term entries or their index.
  void ReserveTerms(size_t count);

  // --- Predicates --------------------------------------------------------

  // Interns a predicate. Re-interning an existing name with a different
  // arity is a CHECK failure (the DLGP format has no arity overloading).
  PredicateId InternPredicate(std::string_view name, int arity);

  // Returns the id of an existing predicate, or kInvalidPredicate.
  PredicateId FindPredicate(std::string_view name) const {
    return FindPredicate(name, PredicateHash(name));
  }

  const std::string& predicate_name(PredicateId id) const {
    KBREPAIR_DCHECK(id >= 0 &&
                    static_cast<size_t>(id) < predicates_.size());
    return predicates_[static_cast<size_t>(id)].name;
  }
  int predicate_arity(PredicateId id) const {
    KBREPAIR_DCHECK(id >= 0 &&
                    static_cast<size_t>(id) < predicates_.size());
    return predicates_[static_cast<size_t>(id)].arity;
  }

  size_t num_predicates() const { return predicates_.size(); }

  // --- Shared-base forking -----------------------------------------------

  // Flattens the current contents into an immutable shared base segment.
  // Afterwards ForkFrom() on an empty table shares that segment in O(1)
  // and the fork only materializes symbols it interns itself. Existing
  // ids and lookups are unchanged.
  void FreezeSharedBase();

  // Makes this (empty) table an O(delta) fork of `frozen`, which must
  // have been FreezeSharedBase()'d. The fork sees every base symbol
  // under its original id; new interns append after the base.
  void ForkFrom(const SymbolTable& frozen);

  bool has_shared_base() const { return terms_.has_base(); }
  // Symbols this table interned itself (not inherited from the base).
  size_t overlay_size() const {
    return terms_.overlay_size() + predicates_.overlay_size();
  }

  // --- Inspection snapshots ----------------------------------------------

  // Deep, independent copy — an *explicit* escape hatch from the
  // no-copy policy above. Used by read-only inspectors (kbrepair-debug,
  // consistency oracles) that need to chase without minting fresh nulls
  // into the live table, which would perturb deterministic replay.
  // Fresh-null/variable counters carry over, so ids minted in the clone
  // match what the live table would have minted.
  std::unique_ptr<SymbolTable> Clone() const {
    return std::unique_ptr<SymbolTable>(new SymbolTable(*this));
  }

 private:
  // Copying stays private so it can only happen through Clone().
  SymbolTable(const SymbolTable&) = default;

  // Open-addressing index from names to dense ids: a flat power-of-two
  // array of (hash, id) slots with linear probing. Names live only in the
  // owning table's entries, so a probe compares the stored 32-bit hash
  // first and asks the owner (`matches(id)`) only on a hash hit. Growth
  // re-slots the stored hashes and never re-hashes a name.
  //
  // Freeze() moves the slots into an immutable shared base; copies share
  // it through a shared_ptr and index only the ids they append in a local
  // array of their own, so a copy of a frozen index is O(1). Find() is
  // const and never writes, so concurrent readers need no lock.
  class Index {
   public:
    // The id among those stored under `hash` for which `matches(id)`
    // holds, or -1.
    template <typename Matches>
    int32_t Find(uint32_t hash, const Matches& matches) const {
      if (base_ != nullptr) {
        const int32_t found = Probe(*base_, hash, matches);
        if (found >= 0) return found;
      }
      return local_.empty() ? -1 : Probe(local_, hash, matches);
    }

    // Stores `id` under `hash`; the caller has checked it is absent.
    void Insert(uint32_t hash, int32_t id);

    // Room for `count` more Inserts without a growth step.
    void Reserve(size_t count);

    // Makes the current contents the immutable shared base.
    void Freeze();

   private:
    struct Slot {
      uint32_t hash;
      int32_t id;  // -1: empty
    };

    template <typename Matches>
    static int32_t Probe(const std::vector<Slot>& slots, uint32_t hash,
                         const Matches& matches) {
      const size_t mask = slots.size() - 1;
      for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot& slot = slots[i];
        if (slot.id < 0) return -1;
        if (slot.hash == hash && matches(slot.id)) return slot.id;
      }
    }

    static void Place(std::vector<Slot>& slots, Slot slot);

    std::shared_ptr<const std::vector<Slot>> base_;  // never empty
    size_t base_count_ = 0;
    std::vector<Slot> local_;
    size_t local_count_ = 0;
  };

  static uint32_t TermHash(TermKind kind, std::string_view name);
  static uint32_t PredicateHash(std::string_view name);

  TermId FindTerm(TermKind kind, std::string_view name,
                  uint32_t hash) const {
    return term_index_.Find(hash, [&](int32_t id) {
      const TermEntry& entry = terms_[static_cast<size_t>(id)];
      return entry.kind == kind && entry.name == name;
    });
  }
  PredicateId FindPredicate(std::string_view name, uint32_t hash) const {
    return predicate_index_.Find(hash, [&](int32_t id) {
      return predicates_[static_cast<size_t>(id)].name == name;
    });
  }

  // InternTerm with one probe: *inserted tells whether the term is new.
  TermId Intern(TermKind kind, std::string_view name, bool* inserted);

  // Interns the null "<prefix><k>" for the next k of `*counter` whose
  // name is still free.
  TermId MintNull(const char* prefix, uint64_t* counter);

  struct TermEntry {
    TermKind kind;
    std::string name;
  };
  struct PredicateEntry {
    std::string name;
    int arity;
  };

  CowVector<TermEntry> terms_;
  Index term_index_;  // hashed on (kind, name)
  CowVector<PredicateEntry> predicates_;
  Index predicate_index_;  // hashed on name
  uint64_t fresh_null_counter_ = 0;
  uint64_t scratch_null_counter_ = 0;
  uint64_t fresh_variable_counter_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_KB_SYMBOL_TABLE_H_
