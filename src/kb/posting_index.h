// PostingIndex: posting lists in one open-addressing table.
//
// FactBase keeps two index families (predicate -> atom ids and
// (predicate, position, term) -> atom ids). Most keys of the second hold
// a single atom: a 2000-atom session-churn KB has 4,606 probe keys, and
// 4,597 of them list one atom. So every posting list lives in one flat
// Table, where such a list costs no allocation of its own:
//
//  * power-of-two slots, linear probing, at most three quarters full.
//    A slot holds its key, the list's length and one 32-bit word.
//  * A list that has never held more than one id keeps it inline, in
//    that word. A longer list keeps the offset of its range in one
//    pooled AtomId column; the word before a range holds its capacity,
//    and a full range moves to the end of the pool at twice the size.
//  * Growth re-slots the kept keys into a larger table and packs their
//    ranges back to back, each keeping its capacity (a list down to one
//    id moves back inline). An emptied list reads as absent, and growth
//    drops its key unless it shadows a frozen one.
//
// A copy is two array copies and keeps the source's spare capacity in
// both, so the first insert after a copy reallocates only where the
// source would have; a teardown is two frees.
//
// Reserve() sizes an empty index for a known number of keys, so a load
// of that many runs no growth step.
//
// Freeze() shares the index's contents const: copies made afterwards
// share them in O(1). An index with no frozen base that is at most half
// full, the load a reserved or freshly grown table has, is adopted as
// the frozen Table by move, without copying a slot. Any other index,
// and an index that already has a frozen base and a non-empty overlay,
// packs base ∪ overlay into a fresh Table at most half full, every list
// back to back at its exact length. An index with a frozen base and an
// empty overlay is left as it is. A mutation copies the touched frozen
// list into the copy's own overlay Table first, so Find probes the
// overlay and then the frozen base, and an emptied overlay list shadows
// its frozen key; an emptied list adopted into the frozen Table reads
// as absent.
//
// Append is push_back and SwapErase moves the list's last id into the
// erased one's place; copies, growth and Freeze() keep every list's
// element order. Candidate enumeration order, and with it derived atom
// ids, null names and transcripts, does not depend on the layout.

#ifndef KBREPAIR_KB_POSTING_INDEX_H_
#define KBREPAIR_KB_POSTING_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace kbrepair {

// Stable handle of an atom within a FactBase (defined here so the index
// does not depend on fact_base.h; fact_base.h re-exports it).
using AtomId = uint32_t;

// Non-owning view of one posting list. Valid until the next mutation of
// the owning PostingIndex.
struct AtomSpan {
  const AtomId* ptr = nullptr;
  size_t len = 0;

  const AtomId* begin() const { return ptr; }
  const AtomId* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  AtomId operator[](size_t i) const {
    KBREPAIR_DCHECK(i < len);
    return ptr[i];
  }
};

// `Hash` maps a key to 64 bits; the table spreads them over its slots by
// Fibonacci hashing, so an identity hash of a dense id is enough.
template <typename Key, typename Hash = std::hash<Key>>
class PostingIndex {
 public:
  // Posting list of `key`; empty when absent.
  AtomSpan Find(const Key& key) const {
    if (const Slot* slot = local_.Lookup(key)) return local_.List(*slot);
    if (base_ != nullptr) {
      if (const Slot* slot = base_->Lookup(key)) return base_->List(*slot);
    }
    return {};
  }

  // Appends `id` to the list of `key`.
  void Append(const Key& key, AtomId id) { local_.Push(Touch(key), id); }

  // Removes `id`, which must be in the list of `key`, by moving the
  // list's last id into its place.
  void SwapErase(const Key& key, AtomId id) {
    local_.Remove(Touch(key), id);
  }

  // Empties the list of `key`; over a frozen base, the empty overlay
  // list shadows the frozen one.
  void Erase(const Key& key) {
    if (Find(key).empty()) return;
    bool added = false;
    local_.Clear(local_.FindOrAdd(key, base_.get(), &added));
  }

  // Sizes an empty index for `keys` keys: adding that many keys runs no
  // growth step. No effect on a non-empty index.
  void Reserve(size_t keys) {
    if (base_ == nullptr && local_.size() == 0) local_.Reserve(keys);
  }

  // Makes the contents the frozen shared base; the overlay starts over
  // empty. An unshared table at most half full is adopted by move; a
  // frozen index with an empty overlay stays as it is; anything else is
  // packed into a fresh Table.
  void Freeze() {
    if (base_ == nullptr && 2 * local_.size() <= local_.capacity()) {
      base_ = std::make_shared<const Table>(std::move(local_));
    } else if (base_ == nullptr || local_.size() > 0) {
      auto frozen = std::make_shared<Table>();
      frozen->PackFrom(base_.get(), local_);
      base_ = std::move(frozen);
    }
    local_ = Table();
  }

  // Keys this instance holds itself (its delta over the frozen base).
  size_t overlay_size() const { return local_.size(); }

 private:
  static constexpr uint32_t kUsed = 1;
  static constexpr uint32_t kPooled = 2;
  static constexpr uint32_t kMaxLength = (uint32_t{1} << 30) - 1;

  struct Slot {
    Key key;
    // 0 for a free slot; else length << 2 | kPooled (when `word` is a
    // pool offset) | kUsed.
    uint32_t meta;
    // The id of an inline list, or the pool offset of a pooled one.
    AtomId word;

    uint32_t length() const { return meta >> 2; }
    bool pooled() const { return (meta & kPooled) != 0; }
    void set(uint32_t length, bool pooled) {
      meta = length << 2 | (pooled ? kPooled : 0) | kUsed;
    }
  };

  class Table {
   public:
    Table() = default;
    // Copies keep the source's pool capacity; the slot array is always
    // full size, so it keeps its headroom by construction.
    Table(const Table& other)
        : slots_(other.slots_), count_(other.count_), shift_(other.shift_) {
      pool_.reserve(other.pool_.capacity());
      pool_.assign(other.pool_.begin(), other.pool_.end());
    }
    Table& operator=(const Table& other) {
      if (this != &other) {
        slots_ = other.slots_;
        count_ = other.count_;
        shift_ = other.shift_;
        pool_.reserve(other.pool_.capacity());
        pool_.assign(other.pool_.begin(), other.pool_.end());
      }
      return *this;
    }
    Table(Table&& other) noexcept { Swap(other); }
    Table& operator=(Table&& other) noexcept {
      Table(std::move(other)).Swap(*this);
      return *this;
    }

    size_t size() const { return count_; }
    size_t capacity() const { return slots_.size(); }

    // Sizes this empty table at most half full with `keys` keys.
    void Reserve(size_t keys) { Reshape(CapacityFor(keys)); }

    const Slot* Lookup(const Key& key) const {
      if (count_ == 0) return nullptr;
      const size_t mask = slots_.size() - 1;
      for (size_t i = Home(key);; i = (i + 1) & mask) {
        const Slot& slot = slots_[i];
        if (slot.meta == 0) return nullptr;
        if (slot.key == key) return &slot;
      }
    }

    AtomSpan List(const Slot& slot) const {
      return {slot.pooled() ? pool_.data() + slot.word : &slot.word,
              slot.length()};
    }

    // The slot of `key`, added with an empty list when absent (*added
    // tells which) in the same probe. Growth keeps an emptied key only
    // while it shadows one of `base`.
    Slot& FindOrAdd(const Key& key, const Table* base, bool* added) {
      if (4 * (count_ + 1) > 3 * slots_.size()) Grow(base);
      const size_t mask = slots_.size() - 1;
      size_t i = Home(key);
      for (; slots_[i].meta != 0; i = (i + 1) & mask) {
        if (slots_[i].key == key) {
          *added = false;
          return slots_[i];
        }
      }
      Slot& slot = slots_[i];
      slot.key = key;
      slot.set(0, false);
      ++count_;
      *added = true;
      return slot;
    }

    // Stores `list` in `slot`: inline when it has at most one id, else
    // in a new pool range of `capacity` (at least its length) ids.
    void Store(Slot& slot, AtomSpan list, uint32_t capacity) {
      const uint32_t length = static_cast<uint32_t>(list.size());
      if (length <= 1) {
        if (length == 1) slot.word = list[0];
        slot.set(length, false);
        return;
      }
      slot.word = Allocate(capacity);
      std::copy(list.begin(), list.end(), pool_.begin() + slot.word);
      slot.set(length, true);
    }

    void Push(Slot& slot, AtomId id) {
      const uint32_t length = slot.length();
      KBREPAIR_CHECK(length < kMaxLength);
      if (!slot.pooled()) {
        if (length == 0) {
          slot.word = id;
          slot.set(1, false);
          return;
        }
        const AtomId first = slot.word;
        slot.word = Allocate(2);
        pool_[slot.word] = first;
      } else if (length == pool_[slot.word - 1]) {
        const uint32_t moved = Allocate(2 * length);
        std::copy_n(pool_.begin() + slot.word, length, pool_.begin() + moved);
        slot.word = moved;
      }
      pool_[slot.word + length] = id;
      slot.set(length + 1, true);
    }

    void Remove(Slot& slot, AtomId id) {
      const uint32_t length = slot.length();
      AtomId* ids = slot.pooled() ? pool_.data() + slot.word : &slot.word;
      AtomId* entry = std::find(ids, ids + length, id);
      KBREPAIR_DCHECK(entry != ids + length);
      *entry = ids[length - 1];
      slot.set(length - 1, slot.pooled());
    }

    void Clear(Slot& slot) { slot.set(0, slot.pooled()); }

    // Fills this empty table with the non-empty lists of `base` (which
    // may be null) overridden by `overlay`, each range exactly its
    // list's length.
    void PackFrom(const Table* base, const Table& overlay) {
      size_t keys = 0;
      size_t words = 0;
      const auto tally = [&](const Slot& slot) {
        if (slot.length() == 0) return;
        ++keys;
        if (slot.length() > 1) words += slot.length() + 1;
      };
      if (base != nullptr) {
        base->ForEach([&](const Slot& slot) {
          if (overlay.Lookup(slot.key) == nullptr) tally(slot);
        });
      }
      overlay.ForEach(tally);
      Reshape(CapacityFor(keys));
      pool_.reserve(words);
      const auto add = [&](const Table& table, const Slot& slot) {
        if (slot.length() == 0) return;
        ++count_;
        Store(Place(slot.key), table.List(slot), slot.length());
      };
      if (base != nullptr) {
        base->ForEach([&](const Slot& slot) {
          if (overlay.Lookup(slot.key) == nullptr) add(*base, slot);
        });
      }
      overlay.ForEach([&](const Slot& slot) { add(overlay, slot); });
    }

   private:
    static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

    // Smallest power-of-two capacity (at least 16) at most half full
    // with `keys` keys.
    static size_t CapacityFor(size_t keys) {
      return std::bit_ceil(std::max<size_t>(16, 2 * keys));
    }

    size_t Home(const Key& key) const {
      return static_cast<size_t>(
          (static_cast<uint64_t>(Hash()(key)) * kGolden) >> shift_);
    }

    void Swap(Table& other) noexcept {
      slots_.swap(other.slots_);
      pool_.swap(other.pool_);
      std::swap(count_, other.count_);
      std::swap(shift_, other.shift_);
    }

    template <typename Fn>
    void ForEach(const Fn& fn) const {
      for (const Slot& slot : slots_) {
        if (slot.meta != 0) fn(slot);
      }
    }

    void Reshape(size_t capacity) {
      slots_.assign(capacity, Slot{});
      shift_ = 64 - std::countr_zero(capacity);
    }

    // The free slot where `key`, which must be absent, goes.
    Slot& Place(const Key& key) {
      const size_t mask = slots_.size() - 1;
      size_t i = Home(key);
      while (slots_[i].meta != 0) i = (i + 1) & mask;
      slots_[i].key = key;
      return slots_[i];
    }

    // Appends a range of `capacity` ids (after its capacity word) to the
    // pool and returns its offset.
    uint32_t Allocate(uint32_t capacity) {
      KBREPAIR_CHECK(pool_.size() + capacity + 1 <= UINT32_MAX);
      pool_.push_back(capacity);
      const size_t offset = pool_.size();
      pool_.resize(offset + capacity);
      return static_cast<uint32_t>(offset);
    }

    // Re-slots the kept keys into a table at most half full, packing
    // their ranges back to back, each keeping its capacity.
    void Grow(const Table* base) {
      const auto kept = [base](const Slot& slot) {
        return slot.length() > 0 ||
               (base != nullptr && base->Lookup(slot.key) != nullptr);
      };
      size_t keys = 0;
      size_t words = 0;
      ForEach([&](const Slot& slot) {
        if (!kept(slot)) return;
        ++keys;
        if (slot.pooled()) words += pool_[slot.word - 1] + 1;
      });
      Table grown;
      grown.Reshape(CapacityFor(keys + 1));
      grown.pool_.reserve(2 * words);
      ForEach([&](const Slot& slot) {
        if (!kept(slot)) return;
        ++grown.count_;
        grown.Store(grown.Place(slot.key), List(slot),
                    slot.pooled() ? pool_[slot.word - 1] : 1);
      });
      Swap(grown);
    }

    std::vector<Slot> slots_;  // empty or a power of two
    std::vector<AtomId> pool_;
    size_t count_ = 0;  // used slots
    int shift_ = 64;    // 64 - log2(slots_.size())
  };

  // The overlay slot of `key`, copying the frozen list in on first touch.
  Slot& Touch(const Key& key) {
    bool added = false;
    Slot& slot = local_.FindOrAdd(key, base_.get(), &added);
    if (added && base_ != nullptr) {
      if (const Slot* frozen = base_->Lookup(key)) {
        // Room for one more id: a touched list is about to change.
        local_.Store(slot, base_->List(*frozen),
                     std::bit_ceil(frozen->length() + 1));
      }
    }
    return slot;
  }

  std::shared_ptr<const Table> base_;
  Table local_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_KB_POSTING_INDEX_H_
