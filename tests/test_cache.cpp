// Tests for the caching building blocks: types, LruList, NodeCache, and the
// two directory implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/directory.hpp"
#include "cache/lru.hpp"
#include "cache/node_cache.hpp"
#include "cache/types.hpp"
#include "sim/random.hpp"

namespace coop::cache {
namespace {

// ---------------------------------------------------------------- Types ---

TEST(Types, BlocksFor) {
  EXPECT_EQ(blocks_for(0, 8192), 1u);
  EXPECT_EQ(blocks_for(1, 8192), 1u);
  EXPECT_EQ(blocks_for(8192, 8192), 1u);
  EXPECT_EQ(blocks_for(8193, 8192), 2u);
  EXPECT_EQ(blocks_for(65536, 8192), 8u);
}

TEST(Types, BlockBytesHandlesTailsAndEmptyFiles) {
  EXPECT_EQ(block_bytes(0, 0, 8192), 0u);  // zero-byte file
  EXPECT_EQ(block_bytes(8192, 0, 8192), 8192u);
  EXPECT_EQ(block_bytes(8192 + 100, 1, 8192), 100u);
  EXPECT_EQ(block_bytes(8192 + 100, 5, 8192), 0u);  // past end
}

TEST(Types, BlockIdOrderingAndEquality) {
  const BlockId a{1, 0}, b{1, 1}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (BlockId{1, 0}));
}

TEST(Types, BlockIdHashSpreads) {
  BlockIdHash h;
  EXPECT_NE(h(BlockId{1, 0}), h(BlockId{0, 1}));
  EXPECT_NE(h(BlockId{1, 2}), h(BlockId{2, 1}));
}

TEST(Types, LogicalClockMonotone) {
  LogicalClock c;
  const auto a = c.next();
  const auto b = c.next();
  EXPECT_LT(a, b);
  EXPECT_EQ(c.now(), b);
}

// ------------------------------------------------------------- LruList ---

TEST(LruList, InsertAndOldest) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 20);
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.oldest_age(), 10u);
  EXPECT_EQ(l.oldest().block, (BlockId{1, 0}));
}

TEST(LruList, InsertWithOldAgeKeepsOrder) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 30);
  l.insert(BlockId{1, 2}, 20);  // forwarded block with an intermediate age
  EXPECT_EQ(l.pop_oldest().age, 10u);
  EXPECT_EQ(l.pop_oldest().age, 20u);
  EXPECT_EQ(l.pop_oldest().age, 30u);
}

TEST(LruList, InsertOlderThanEverything) {
  LruList l;
  l.insert(BlockId{1, 1}, 50);
  l.insert(BlockId{1, 0}, 5);
  EXPECT_EQ(l.oldest_age(), 5u);
}

TEST(LruList, TouchMovesToYoungest) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 20);
  l.touch(BlockId{1, 0}, 30);
  EXPECT_EQ(l.oldest().block, (BlockId{1, 1}));
  EXPECT_EQ(l.age_of(BlockId{1, 0}), 30u);
}

TEST(LruList, EraseAndContains) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  EXPECT_TRUE(l.contains(BlockId{1, 0}));
  EXPECT_TRUE(l.erase(BlockId{1, 0}));
  EXPECT_FALSE(l.contains(BlockId{1, 0}));
  EXPECT_FALSE(l.erase(BlockId{1, 0}));
  EXPECT_TRUE(l.empty());
}

TEST(LruList, PopOldestRemoves) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 20);
  const auto e = l.pop_oldest();
  EXPECT_EQ(e.block, (BlockId{1, 0}));
  EXPECT_EQ(l.size(), 1u);
  EXPECT_FALSE(l.contains(BlockId{1, 0}));
}

TEST(LruList, IterationIsAgeOrdered) {
  LruList l;
  l.insert(BlockId{0, 3}, 3);
  l.insert(BlockId{0, 1}, 1);
  l.insert(BlockId{0, 2}, 2);
  std::uint64_t prev = 0;
  for (const auto& e : l) {
    EXPECT_GE(e.age, prev);
    prev = e.age;
  }
}

/// Block indices oldest to youngest (every block in these tests is file 1).
std::vector<std::uint32_t> order(const LruList& l) {
  std::vector<std::uint32_t> out;
  for (const auto& e : l) out.push_back(e.block.index);
  return out;
}

using Order = std::vector<std::uint32_t>;

TEST(LruList, InsertTiesGoAfterEqualAges) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 10);  // newest age, equal to the youngest
  l.insert(BlockId{1, 2}, 20);
  l.insert(BlockId{1, 3}, 10);  // older than the youngest: placed by age
  l.insert(BlockId{1, 4}, 10);
  l.insert(BlockId{1, 5}, 20);
  EXPECT_EQ(order(l), (Order{0, 1, 3, 4, 2, 5}));
}

TEST(LruList, TouchTiesGoAfterEqualAges) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 20);
  l.insert(BlockId{1, 2}, 20);
  l.touch(BlockId{1, 0}, 20);
  EXPECT_EQ(order(l), (Order{1, 2, 0}));
  l.touch(BlockId{1, 1}, 20);  // same age again: still after its equals
  EXPECT_EQ(order(l), (Order{2, 0, 1}));
}

TEST(LruList, TouchOlderThanYoungestPlacesByAge) {
  // Under one clock every touch carries the newest age. An older one is
  // placed by age, not appended: the list stays age-ordered.
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 20);
  l.insert(BlockId{1, 2}, 30);
  l.touch(BlockId{1, 0}, 25);
  EXPECT_EQ(order(l), (Order{1, 0, 2}));
  EXPECT_EQ(l.age_of(BlockId{1, 0}), 25u);
  l.touch(BlockId{1, 1}, 25);  // a tie with the entry just placed
  EXPECT_EQ(order(l), (Order{0, 1, 2}));
  l.touch(BlockId{1, 0}, 40);  // newest again
  EXPECT_EQ(order(l), (Order{1, 2, 0}));
}

TEST(LruList, AgedEntriesEraseAndPopAcrossStructures) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 50);
  l.insert(BlockId{1, 2}, 30);  // aged
  l.insert(BlockId{1, 3}, 5);   // aged, oldest of all
  l.insert(BlockId{1, 4}, 40);  // aged
  EXPECT_EQ(l.size(), 5u);
  EXPECT_EQ(l.age_of(BlockId{1, 2}), 30u);
  EXPECT_EQ(l.age_of(BlockId{1, 3}), 5u);
  EXPECT_EQ(order(l), (Order{3, 0, 2, 4, 1}));
  EXPECT_EQ(l.oldest().block, (BlockId{1, 3}));

  EXPECT_TRUE(l.erase(BlockId{1, 2}));  // from the aged entries
  EXPECT_TRUE(l.erase(BlockId{1, 1}));  // the youngest
  EXPECT_FALSE(l.erase(BlockId{1, 2}));
  EXPECT_EQ(order(l), (Order{3, 0, 4}));

  const auto a = l.pop_oldest();
  EXPECT_EQ(a.block, (BlockId{1, 3}));
  EXPECT_EQ(a.age, 5u);
  const auto b = l.pop_oldest();
  EXPECT_EQ(b.block, (BlockId{1, 0}));
  EXPECT_EQ(l.oldest_age(), 40u);
  EXPECT_EQ(l.pop_oldest().block, (BlockId{1, 4}));
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.begin(), l.end());
}

TEST(LruList, MovesBetweenStructuresKeepAgeOrder) {
  LruList l;
  l.insert(BlockId{1, 0}, 10);
  l.insert(BlockId{1, 1}, 20);
  l.insert(BlockId{1, 2}, 30);
  l.insert(BlockId{1, 3}, 15);  // aged
  l.touch(BlockId{1, 3}, 31);   // aged -> newest
  EXPECT_EQ(order(l), (Order{0, 1, 2, 3}));
  l.touch(BlockId{1, 0}, 25);   // newest -> aged
  EXPECT_EQ(order(l), (Order{1, 0, 2, 3}));
  l.touch(BlockId{1, 0}, 26);   // aged -> aged
  EXPECT_EQ(order(l), (Order{1, 0, 2, 3}));
  EXPECT_EQ(l.age_of(BlockId{1, 0}), 26u);
  // Drain the newest entries: the aged ones now hold the youngest ages,
  // and a newest-age insert still lands after them.
  EXPECT_TRUE(l.erase(BlockId{1, 2}));
  EXPECT_TRUE(l.erase(BlockId{1, 3}));
  EXPECT_TRUE(l.erase(BlockId{1, 1}));
  l.insert(BlockId{1, 4}, 27);
  l.insert(BlockId{1, 5}, 3);
  EXPECT_EQ(order(l), (Order{5, 0, 4}));
  l.touch(BlockId{1, 5}, 26);  // a tie with an aged entry
  EXPECT_EQ(order(l), (Order{0, 5, 4}));
  std::vector<std::uint64_t> ages;
  for (const auto& e : l) ages.push_back(e.age);
  EXPECT_EQ(ages, (std::vector<std::uint64_t>{26, 26, 27}));
}

/// Brute-force reference: entries in a vector sorted by (age, placement
/// order), placed after every entry of equal age.
class SortedReference {
 public:
  struct Item {
    BlockId block;
    std::uint64_t age;
  };

  void insert(const BlockId& b, std::uint64_t age) {
    const auto pos = std::upper_bound(
        items_.begin(), items_.end(), age,
        [](std::uint64_t a, const Item& i) { return a < i.age; });
    items_.insert(pos, Item{b, age});
  }
  void touch(const BlockId& b, std::uint64_t age) {
    erase(b);
    insert(b, age);
  }
  bool erase(const BlockId& b) {
    const auto it = find(b);
    if (it == items_.end()) return false;
    items_.erase(it);
    return true;
  }
  Item pop_oldest() {
    const Item front = items_.front();
    items_.erase(items_.begin());
    return front;
  }
  [[nodiscard]] std::uint64_t age_of(const BlockId& b) const {
    return find(b)->age;
  }
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  [[nodiscard]] std::vector<Item>::const_iterator find(
      const BlockId& b) const {
    return std::find_if(items_.begin(), items_.end(),
                        [&b](const Item& i) { return i.block == b; });
  }
  std::vector<Item> items_;
};

/// Fills an LruList and the reference to `cap` entries, then runs `ops`
/// seeded mixed operations on both. Size and oldest entry are compared after
/// every step, the whole order every `full_check_every` steps. Ages come from
/// one clock but are not always its newest: forwarded-style inserts draw an
/// older age, and some touches an age between the entry's own and the
/// newest, so entries move between both structures and ties are common.
void run_against_reference(std::uint64_t seed, std::size_t cap, int ops,
                           int full_check_every) {
  sim::Rng rng(seed);
  const auto draw = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng.uniform_int(hi - lo + 1);
  };
  LruList l;
  SortedReference ref;
  std::uint64_t clock = 0;
  std::uint32_t next_block = 0;
  const auto insert_new = [&] {
    const BlockId b{1, next_block++};
    const auto& items = ref.items();
    const std::uint64_t age = items.empty() || draw(0, 9) < 7
                                  ? ++clock
                                  : draw(items.front().age, clock);
    l.insert(b, age);
    ref.insert(b, age);
  };
  while (ref.items().size() < cap) insert_new();
  for (int op = 0; op < ops; ++op) {
    const auto& items = ref.items();
    const std::uint64_t roll = draw(0, 99);
    if (items.empty() || (items.size() < cap && roll < 35)) {
      insert_new();
    } else if (roll < 65) {
      const BlockId b = items[draw(0, items.size() - 1)].block;
      const std::uint64_t age =
          draw(0, 9) < 8 ? ++clock : draw(ref.age_of(b), clock);
      l.touch(b, age);
      ref.touch(b, age);
    } else if (roll < 80) {
      const BlockId b = draw(0, 9) == 0
                            ? BlockId{2, 0}  // never present
                            : items[draw(0, items.size() - 1)].block;
      ASSERT_EQ(l.erase(b), ref.erase(b)) << "op " << op;
    } else if (roll < 90) {
      const auto want = ref.pop_oldest();
      const auto got = l.pop_oldest();
      ASSERT_EQ(got.block, want.block) << "op " << op;
      ASSERT_EQ(got.age, want.age) << "op " << op;
    } else {
      // A move between a node's two lists: erase, then re-insert at the
      // same age (promote_to_master / demote_to_copy).
      const BlockId b = items[draw(0, items.size() - 1)].block;
      const std::uint64_t age = ref.age_of(b);
      l.erase(b);
      l.insert(b, age);
      ref.touch(b, age);
    }

    ASSERT_EQ(l.size(), ref.items().size()) << "op " << op;
    if (ref.items().empty()) continue;
    ASSERT_EQ(l.oldest().block, ref.items().front().block) << "op " << op;
    ASSERT_EQ(l.oldest_age(), ref.items().front().age) << "op " << op;
    if (op % full_check_every != 0) continue;
    std::size_t i = 0;
    for (const auto& e : l) {
      ASSERT_LT(i, ref.items().size()) << "op " << op;
      const auto& want = ref.items()[i++];
      ASSERT_EQ(e.block, want.block) << "op " << op << " pos " << i;
      ASSERT_EQ(e.age, want.age) << "op " << op << " pos " << i;
      ASSERT_EQ(l.age_of(e.block), want.age);
    }
    ASSERT_EQ(i, ref.items().size()) << "op " << op;
  }
}

TEST(LruList, MatchesSortedReferenceAtSmallSizes) {
  for (std::size_t cap = 1; cap <= 64; ++cap) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    run_against_reference(1000 + cap, cap, 1000, 1);
  }
}

TEST(LruList, MatchesSortedReferenceAt4096) {
  run_against_reference(77, 4096, 40000, 257);
}

// ----------------------------------------------------------- NodeCache ---

TEST(NodeCache, CapacityInBlocks) {
  const NodeCache c(10 * 8192, 8192);
  EXPECT_EQ(c.capacity_blocks(), 10u);
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.full());
}

TEST(NodeCache, AtLeastOneBlockOfCapacity) {
  const NodeCache c(100, 8192);  // less than one block
  EXPECT_EQ(c.capacity_blocks(), 1u);
}

TEST(NodeCache, InsertContainsMasterFlag) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 1);
  c.insert(BlockId{1, 1}, false, 2);
  EXPECT_TRUE(c.contains(BlockId{1, 0}));
  EXPECT_TRUE(c.is_master(BlockId{1, 0}));
  EXPECT_FALSE(c.is_master(BlockId{1, 1}));
  EXPECT_EQ(c.master_count(), 1u);
  EXPECT_EQ(c.copy_count(), 1u);
  EXPECT_EQ(c.used_blocks(), 2u);
}

TEST(NodeCache, OldestAcrossBothLists) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 5);
  c.insert(BlockId{1, 1}, false, 3);
  ASSERT_TRUE(c.oldest_age().has_value());
  EXPECT_EQ(*c.oldest_age(), 3u);
  EXPECT_FALSE(c.oldest_is_master());
  EXPECT_EQ(c.oldest()->block, (BlockId{1, 1}));
}

TEST(NodeCache, OldestCopyIgnoresMasters) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 1);
  EXPECT_FALSE(c.oldest_copy().has_value());
  c.insert(BlockId{1, 1}, false, 9);
  ASSERT_TRUE(c.oldest_copy().has_value());
  EXPECT_EQ(c.oldest_copy()->block, (BlockId{1, 1}));
}

TEST(NodeCache, EraseReportsMastership) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 1);
  c.insert(BlockId{1, 1}, false, 2);
  EXPECT_TRUE(c.erase(BlockId{1, 0}));
  EXPECT_FALSE(c.erase(BlockId{1, 1}));
  EXPECT_TRUE(c.empty());
}

TEST(NodeCache, TouchRefreshesAge) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 1);
  c.insert(BlockId{1, 1}, false, 2);
  c.touch(BlockId{1, 0}, 10);
  EXPECT_EQ(c.oldest()->block, (BlockId{1, 1}));
}

TEST(NodeCache, PromoteToMasterKeepsAge) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, false, 7);
  c.promote_to_master(BlockId{1, 0});
  EXPECT_TRUE(c.is_master(BlockId{1, 0}));
  EXPECT_EQ(c.masters().age_of(BlockId{1, 0}), 7u);
  EXPECT_EQ(c.copy_count(), 0u);
}

TEST(NodeCache, FullDetection) {
  NodeCache c(2 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 1);
  EXPECT_FALSE(c.full());
  c.insert(BlockId{1, 1}, true, 2);
  EXPECT_TRUE(c.full());
}

TEST(NodeCache, WideEntriesAccountSlots) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 1, /*slots=*/3);
  EXPECT_EQ(c.used_blocks(), 3u);
  EXPECT_EQ(c.entry_count(), 1u);
  EXPECT_EQ(c.slots_of(BlockId{1, 0}), 3u);
  EXPECT_FALSE(c.full());
  EXPECT_TRUE(c.lacks_room_for(6));
  EXPECT_FALSE(c.lacks_room_for(5));
  c.insert(BlockId{2, 0}, false, 2, /*slots=*/5);
  EXPECT_TRUE(c.full());
  c.erase(BlockId{1, 0});
  EXPECT_EQ(c.used_blocks(), 5u);
  EXPECT_EQ(c.slots_of(BlockId{2, 0}), 5u);
}

TEST(NodeCache, DefaultEntriesAreOneSlot) {
  NodeCache c(4 * 8192, 8192);
  c.insert(BlockId{1, 0}, true, 1);
  EXPECT_EQ(c.slots_of(BlockId{1, 0}), 1u);
  EXPECT_EQ(c.used_blocks(), 1u);
}

TEST(NodeCache, PromotionPreservesSlotFootprint) {
  NodeCache c(8 * 8192, 8192);
  c.insert(BlockId{1, 0}, false, 1, /*slots=*/4);
  c.promote_to_master(BlockId{1, 0});
  EXPECT_EQ(c.slots_of(BlockId{1, 0}), 4u);
  EXPECT_EQ(c.used_blocks(), 4u);
  c.demote_to_copy(BlockId{1, 0});
  EXPECT_EQ(c.slots_of(BlockId{1, 0}), 4u);
  EXPECT_EQ(c.used_blocks(), 4u);
}

// ---------------------------------------------------- PerfectDirectory ---

TEST(PerfectDirectory, LookupSetErase) {
  PerfectDirectory d;
  EXPECT_EQ(d.lookup(BlockId{1, 0}), kInvalidNode);
  EXPECT_FALSE(d.has_master(BlockId{1, 0}));
  d.set_master(BlockId{1, 0}, 3);
  EXPECT_EQ(d.lookup(BlockId{1, 0}), 3);
  EXPECT_TRUE(d.has_master(BlockId{1, 0}));
  d.set_master(BlockId{1, 0}, 5);  // relocation overwrites
  EXPECT_EQ(d.lookup(BlockId{1, 0}), 5);
  d.erase_master(BlockId{1, 0});
  EXPECT_EQ(d.lookup(BlockId{1, 0}), kInvalidNode);
  EXPECT_EQ(d.size(), 0u);
}

// ----------------------------------------------------- HintedDirectory ---

TEST(HintedDirectory, PlacementInformsPlacerAndHolder) {
  HintedDirectory d(4, /*staleness_lag=*/10);
  d.set_master(BlockId{1, 0}, /*n=*/2, /*observer=*/0);
  EXPECT_EQ(d.lookup(0, BlockId{1, 0}), 2);
  EXPECT_EQ(d.lookup(2, BlockId{1, 0}), 2);
  // Node 3 was not involved and has no hint.
  EXPECT_EQ(d.lookup(3, BlockId{1, 0}), kInvalidNode);
  EXPECT_EQ(d.truth(BlockId{1, 0}), 2);
}

TEST(HintedDirectory, StaleHintAfterRelocation) {
  HintedDirectory d(4, /*staleness_lag=*/10);
  d.set_master(BlockId{1, 0}, 2, 0);
  d.refresh(3, BlockId{1, 0});  // node 3 learns the truth
  d.set_master(BlockId{1, 0}, 1, 2);  // master moves 2 -> 1
  EXPECT_EQ(d.lookup(3, BlockId{1, 0}), 2);  // stale
  EXPECT_EQ(d.truth(BlockId{1, 0}), 1);
  d.refresh(3, BlockId{1, 0});
  EXPECT_EQ(d.lookup(3, BlockId{1, 0}), 1);
}

TEST(HintedDirectory, BroadcastAfterLagExceeded) {
  HintedDirectory d(3, /*staleness_lag=*/1);
  d.set_master(BlockId{1, 0}, 0, 0);  // version 1
  d.set_master(BlockId{1, 0}, 1, 0);  // version 2: lag 2 > 1 -> broadcast
  EXPECT_EQ(d.lookup(2, BlockId{1, 0}), 1);  // bystander was refreshed
}

TEST(HintedDirectory, AccuracyTracksCorrectLookups) {
  HintedDirectory d(2, /*staleness_lag=*/100);
  d.set_master(BlockId{1, 0}, 0, 0);
  (void)d.lookup(0, BlockId{1, 0});  // correct
  (void)d.lookup(1, BlockId{1, 0});  // no hint: incorrect
  EXPECT_NEAR(d.accuracy(), 0.5, 1e-12);
  EXPECT_EQ(d.lookups(), 2u);
}

TEST(HintedDirectory, EraseLeavesDanglingHintsForOthers) {
  HintedDirectory d(3, /*staleness_lag=*/100);
  d.set_master(BlockId{1, 0}, 1, 0);
  d.erase_master(BlockId{1, 0}, 1);
  EXPECT_EQ(d.truth(BlockId{1, 0}), kInvalidNode);
  EXPECT_EQ(d.lookup(0, BlockId{1, 0}), 1);  // node 0 still believes node 1
  d.refresh(0, BlockId{1, 0});
  EXPECT_EQ(d.lookup(0, BlockId{1, 0}), kInvalidNode);
}

}  // namespace
}  // namespace coop::cache
