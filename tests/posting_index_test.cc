#include "kb/posting_index.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace kbrepair {
namespace {

// Randomized model test: every PostingIndex answer must equal the same
// operations applied to a std::map of vectors, list order included.

using Key = uint64_t;
using Index = PostingIndex<Key>;
using Model = std::map<Key, std::vector<AtomId>>;

// Keys in three families: dense small ids, ids shifted past the low 32
// bits, and ids shifted past the low 48 bits with a fixed low tag. The
// last two share all their low bits, so a table that hashed only those
// would put every one of them in one probe chain.
std::vector<Key> MakeKeys(size_t per_family) {
  std::vector<Key> keys;
  for (Key i = 0; i < per_family; ++i) {
    keys.push_back(i);
    keys.push_back((i + 1) << 32);
    keys.push_back((i + 1) << 48 | 0x7f);
  }
  return keys;
}

std::vector<AtomId> Read(const Index& index, Key key) {
  const AtomSpan span = index.Find(key);
  return std::vector<AtomId>(span.begin(), span.end());
}

void ExpectMatches(const Index& index, const Model& model,
                   const std::vector<Key>& keys) {
  for (const Key key : keys) {
    auto it = model.find(key);
    const std::vector<AtomId> expected =
        it == model.end() ? std::vector<AtomId>{} : it->second;
    ASSERT_EQ(Read(index, key), expected) << "key " << key;
  }
}

struct Replica {
  Index index;
  Model model;
};

// One random operation on both the index and its model. Appends dominate,
// so the table grows through several doublings; swap-erases pick a
// random element of a random non-empty list.
void Step(Replica& replica, const std::vector<Key>& keys, Rng& rng,
          AtomId* next_id) {
  const size_t op = rng.UniformIndex(10);
  const Key key = keys[rng.UniformIndex(keys.size())];
  std::vector<AtomId>& list = replica.model[key];
  if (op < 6 || (op < 9 && list.empty())) {
    const AtomId id = (*next_id)++;
    replica.index.Append(key, id);
    list.push_back(id);
  } else if (op < 9) {
    const size_t at = rng.UniformIndex(list.size());
    replica.index.SwapErase(key, list[at]);
    list[at] = list.back();
    list.pop_back();
  } else {
    replica.index.Erase(key);
    list.clear();
  }
  if (list.empty()) replica.model.erase(key);
}

class PostingIndexModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PostingIndexModel, LiveTableMatchesModel) {
  Rng rng(GetParam() * 7919 + 5);
  const std::vector<Key> keys = MakeKeys(1500);
  Replica replica;
  AtomId next_id = 0;
  for (int op = 0; op < 20000; ++op) {
    Step(replica, keys, rng, &next_id);
    if (op % 2500 == 2499) {
      SCOPED_TRACE("op " + std::to_string(op));
      ExpectMatches(replica.index, replica.model, keys);
    }
  }
  // 4,500 keys, most of them touched: the table grew from 16 slots
  // through at least eight doublings.
  EXPECT_GT(replica.model.size(), 2000u);
  ExpectMatches(replica.index, replica.model, keys);
}

TEST_P(PostingIndexModel, ForksFreezesAndCopiesMatchModel) {
  Rng rng(GetParam() * 104729 + 17);
  const std::vector<Key> keys = MakeKeys(400);
  AtomId next_id = 0;

  Replica base;
  for (int op = 0; op < 3000; ++op) Step(base, keys, rng, &next_id);
  base.index.Freeze();
  EXPECT_EQ(base.index.overlay_size(), 0u);
  ExpectMatches(base.index, base.model, keys);

  // Sibling forks of one frozen base diverge without seeing each other.
  Replica left = base;
  Replica right = base;
  EXPECT_EQ(left.index.overlay_size(), 0u);
  for (int op = 0; op < 1500; ++op) {
    Step(left, keys, rng, &next_id);
    Step(right, keys, rng, &next_id);
  }
  ExpectMatches(left.index, left.model, keys);
  ExpectMatches(right.index, right.model, keys);
  ExpectMatches(base.index, base.model, keys);

  // A plain copy of a fork carries the overlay; both go on independently.
  Replica copy = left;
  for (int op = 0; op < 500; ++op) {
    Step(copy, keys, rng, &next_id);
    Step(left, keys, rng, &next_id);
  }
  ExpectMatches(copy.index, copy.model, keys);
  ExpectMatches(left.index, left.model, keys);

  // Grandchild: freeze a fork (base ∪ overlay packed into a new base),
  // fork it, and mutate both generations.
  right.index.Freeze();
  EXPECT_EQ(right.index.overlay_size(), 0u);
  ExpectMatches(right.index, right.model, keys);
  Replica grandchild = right;
  for (int op = 0; op < 1500; ++op) {
    Step(grandchild, keys, rng, &next_id);
    Step(right, keys, rng, &next_id);
  }
  ExpectMatches(grandchild.index, grandchild.model, keys);
  ExpectMatches(right.index, right.model, keys);
  ExpectMatches(base.index, base.model, keys);
}

// Freeze() of a reserved index with no frozen base adopts its table by
// move: every list keeps its address. The adopted base then takes
// appends, swap-erases, copies, forks and a second freeze like a packed
// one, and freezing a frozen index with an empty overlay moves nothing.
TEST_P(PostingIndexModel, MoveFreezeOfUnsharedIndexMatchesModel) {
  Rng rng(GetParam() * 15485863 + 29);
  const std::vector<Key> keys = MakeKeys(400);
  AtomId next_id = 0;

  Replica base;
  base.index.Reserve(keys.size());
  for (int op = 0; op < 3000; ++op) Step(base, keys, rng, &next_id);
  std::vector<const AtomId*> addresses;
  for (const Key key : keys) addresses.push_back(base.index.Find(key).ptr);
  base.index.Freeze();
  EXPECT_EQ(base.index.overlay_size(), 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(base.index.Find(keys[i]).ptr, addresses[i]) << "key " << keys[i];
  }
  ExpectMatches(base.index, base.model, keys);
  base.index.Freeze();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(base.index.Find(keys[i]).ptr, addresses[i]) << "key " << keys[i];
  }

  // Forks of the adopted base diverge without seeing each other.
  Replica left = base;
  Replica right = base;
  for (int op = 0; op < 1500; ++op) {
    Step(left, keys, rng, &next_id);
    Step(right, keys, rng, &next_id);
  }
  ExpectMatches(left.index, left.model, keys);
  ExpectMatches(right.index, right.model, keys);
  ExpectMatches(base.index, base.model, keys);

  // A copy of a fork carries its overlay; both go on independently.
  Replica copy = left;
  for (int op = 0; op < 500; ++op) {
    Step(copy, keys, rng, &next_id);
    Step(left, keys, rng, &next_id);
  }
  ExpectMatches(copy.index, copy.model, keys);
  ExpectMatches(left.index, left.model, keys);

  // Freezing a fork packs the adopted base and its overlay.
  right.index.Freeze();
  EXPECT_EQ(right.index.overlay_size(), 0u);
  Replica grandchild = right;
  for (int op = 0; op < 1500; ++op) {
    Step(grandchild, keys, rng, &next_id);
    Step(right, keys, rng, &next_id);
  }
  ExpectMatches(grandchild.index, grandchild.model, keys);
  ExpectMatches(right.index, right.model, keys);
  ExpectMatches(base.index, base.model, keys);
}

// An index grown past half full is packed, not adopted, and reads the
// same.
TEST_P(PostingIndexModel, FreezeOfAFullIndexPacksIt) {
  Rng rng(GetParam() * 32452843 + 3);
  const std::vector<Key> keys = MakeKeys(400);
  AtomId next_id = 0;
  Replica replica;
  // The table grows at three quarters full: 90 keys sit in 128 slots.
  for (size_t i = 0; i < 90; ++i) {
    replica.index.Append(keys[i], next_id);
    replica.model[keys[i]].push_back(next_id++);
  }
  const AtomId* before = replica.index.Find(keys[0]).ptr;
  replica.index.Freeze();
  EXPECT_NE(replica.index.Find(keys[0]).ptr, before);
  ExpectMatches(replica.index, replica.model, keys);
  for (int op = 0; op < 1000; ++op) Step(replica, keys, rng, &next_id);
  ExpectMatches(replica.index, replica.model, keys);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostingIndexModel,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(PostingIndexTest, ErasedKeyReadsAbsent) {
  Index index;
  index.Append(1, 10);
  index.Append(1, 11);
  index.Append(2, 20);
  index.Erase(1);
  EXPECT_TRUE(index.Find(1).empty());
  index.SwapErase(2, 20);
  EXPECT_TRUE(index.Find(2).empty());
  index.Erase(3);  // never present
  EXPECT_TRUE(index.Find(3).empty());

  // Over a frozen base, an erased or emptied key shadows the base list,
  // and a later append starts the list over.
  index.Append(1, 12);
  index.Append(2, 21);
  index.Append(2, 22);
  index.Freeze();
  Index fork = index;
  fork.Erase(1);
  fork.SwapErase(2, 21);
  fork.SwapErase(2, 22);
  EXPECT_TRUE(fork.Find(1).empty());
  EXPECT_TRUE(fork.Find(2).empty());
  EXPECT_EQ(Read(index, 1), std::vector<AtomId>{12});
  EXPECT_EQ(Read(index, 2), (std::vector<AtomId>{21, 22}));
  fork.Append(2, 23);
  EXPECT_EQ(Read(fork, 2), std::vector<AtomId>{23});
  // Freezing the fork drops the shadowed keys.
  fork.Freeze();
  EXPECT_TRUE(fork.Find(1).empty());
  EXPECT_EQ(Read(fork, 2), std::vector<AtomId>{23});
}

TEST(PostingIndexTest, SwapEraseMovesTheLastIdIntoPlace) {
  Index index;
  for (AtomId id = 0; id < 5; ++id) index.Append(9, id);
  index.SwapErase(9, 1);
  EXPECT_EQ(Read(index, 9), (std::vector<AtomId>{0, 4, 2, 3}));
  index.SwapErase(9, 3);
  EXPECT_EQ(Read(index, 9), (std::vector<AtomId>{0, 4, 2}));
  index.Freeze();
  EXPECT_EQ(Read(index, 9), (std::vector<AtomId>{0, 4, 2}));
  Index fork = index;
  fork.SwapErase(9, 0);
  EXPECT_EQ(Read(fork, 9), (std::vector<AtomId>{2, 4}));
}

// A copy keeps the source's spare capacity: one insert into a copy
// moves no list when the same insert leaves the source's lists in place.
// Spans of an inline list point into the slot array and spans of a
// longer list into the pool, so either reallocation would move them.
TEST(PostingIndexTest, CopyThenInsertDoesNotReallocate) {
  Index source;
  AtomId next_id = 0;
  for (Key key = 0; key < 1000; ++key) {
    source.Append(key << 32, next_id++);
    if (key % 4 == 0) source.Append(key << 32, next_id++);
  }
  const Key inline_key = Key{1} << 32;
  const Key pooled_key = Key{4} << 32;
  const Key fresh = Key{5000} << 32;
  Index copy = source;

  // The source has room for a new key with a pooled list ...
  const AtomId* inline_before = source.Find(inline_key).ptr;
  const AtomId* pooled_before = source.Find(pooled_key).ptr;
  source.Append(fresh, next_id);
  source.Append(fresh, next_id + 1);
  ASSERT_EQ(source.Find(inline_key).ptr, inline_before);
  ASSERT_EQ(source.Find(pooled_key).ptr, pooled_before);

  // ... and so has its copy.
  inline_before = copy.Find(inline_key).ptr;
  pooled_before = copy.Find(pooled_key).ptr;
  copy.Append(fresh, next_id);
  copy.Append(fresh, next_id + 1);
  EXPECT_EQ(copy.Find(inline_key).ptr, inline_before);
  EXPECT_EQ(copy.Find(pooled_key).ptr, pooled_before);
  EXPECT_EQ(Read(copy, fresh), (std::vector<AtomId>{next_id, next_id + 1}));
}

}  // namespace
}  // namespace kbrepair
