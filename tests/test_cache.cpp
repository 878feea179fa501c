// Tests for the caching building blocks: types, BlockTable, the age order
// (LruList) and NodeCache that holds it, and the two directory
// implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/block_table.hpp"
#include "cache/directory.hpp"
#include "cache/node_cache.hpp"
#include "cache/types.hpp"
#include "sim/random.hpp"

namespace coop::cache {

struct BlockTableTestPeer {
  template <class V>
  static std::size_t slot_count(const BlockTable<V>& t) {
    return t.slots_.size();
  }
  template <class V>
  static std::size_t home(const BlockTable<V>& t, const BlockId& b) {
    return t.home(block_key(b));
  }
  /// Slot holding `b`. Precondition: present.
  template <class V>
  static std::size_t slot_of(const BlockTable<V>& t, const BlockId& b) {
    return t.locate(block_key(b));
  }
};

struct NodeCacheTestPeer {
  static std::size_t pool_size(const NodeCache& c) { return c.pool_.size(); }
};

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

TEST(Types, BlockKeyPacksFileAboveIndex) {
  EXPECT_EQ(block_key(BlockId{1, 0}), 1ull << 32);
  EXPECT_EQ(block_key(BlockId{0, 1}), 1ull);
  EXPECT_NE(block_key(BlockId{1, 2}), block_key(BlockId{2, 1}));
}

TEST(Types, LogicalClockMonotone) {
  LogicalClock c;
  const auto a = c.next();
  const auto b = c.next();
  EXPECT_LT(a, b);
  EXPECT_EQ(c.now(), b);
}

// ------------------------------------------------------------- LruList ---
//
// The age order as NodeCache keeps it: these tests insert masters only and
// read the order back through masters().

/// A cache with room for `slots` single-slot entries.
NodeCache cache_of(std::uint64_t slots) { return {slots * 8192, 8192}; }

/// Removes and returns the oldest entry.
NodeCache::Entry pop_oldest(NodeCache& c) {
  const NodeCache::Entry e = *c.oldest();
  c.erase(e.block);
  return e;
}

/// Master block indices oldest to youngest (every block here is file 1).
std::vector<std::uint32_t> order(const NodeCache& c) {
  std::vector<std::uint32_t> out;
  for (const auto& e : c.masters()) out.push_back(e.block.index);
  return out;
}

using Order = std::vector<std::uint32_t>;

TEST(LruList, InsertAndOldest) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 20);
  EXPECT_EQ(c.master_count(), 2u);
  EXPECT_EQ(c.oldest_age(), 10u);
  EXPECT_EQ(c.oldest()->block, (BlockId{1, 0}));
}

TEST(LruList, InsertWithOldAgeKeepsOrder) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 30);
  c.insert(BlockId{1, 2}, true, 20);  // forwarded block, intermediate age
  EXPECT_EQ(pop_oldest(c).age, 10u);
  EXPECT_EQ(pop_oldest(c).age, 20u);
  EXPECT_EQ(pop_oldest(c).age, 30u);
}

TEST(LruList, InsertOlderThanEverything) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 1}, true, 50);
  c.insert(BlockId{1, 0}, true, 5);
  EXPECT_EQ(c.oldest_age(), 5u);
}

TEST(LruList, TouchMovesToYoungest) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 20);
  c.touch(BlockId{1, 0}, 30);
  EXPECT_EQ(c.oldest()->block, (BlockId{1, 1}));
  EXPECT_EQ(c.age_of(BlockId{1, 0}), 30u);
}

TEST(LruList, EraseAndContains) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  EXPECT_TRUE(c.contains(BlockId{1, 0}));
  EXPECT_TRUE(c.erase(BlockId{1, 0}));
  EXPECT_FALSE(c.contains(BlockId{1, 0}));
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.masters().begin(), c.masters().end());
}

TEST(LruList, PopOldestRemoves) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 20);
  const auto e = pop_oldest(c);
  EXPECT_EQ(e.block, (BlockId{1, 0}));
  EXPECT_EQ(c.master_count(), 1u);
  EXPECT_FALSE(c.contains(BlockId{1, 0}));
}

TEST(LruList, IterationIsAgeOrdered) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{0, 3}, true, 3);
  c.insert(BlockId{0, 1}, true, 1);
  c.insert(BlockId{0, 2}, true, 2);
  std::vector<std::uint64_t> ages;
  for (const auto& e : c.masters()) ages.push_back(e.age);
  EXPECT_EQ(ages, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(LruList, InsertTiesGoAfterEqualAges) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 10);  // newest age, equal to the youngest
  c.insert(BlockId{1, 2}, true, 20);
  c.insert(BlockId{1, 3}, true, 10);  // older than the youngest: by age
  c.insert(BlockId{1, 4}, true, 10);
  c.insert(BlockId{1, 5}, true, 20);
  EXPECT_EQ(order(c), (Order{0, 1, 3, 4, 2, 5}));
}

TEST(LruList, TouchTiesGoAfterEqualAges) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 20);
  c.insert(BlockId{1, 2}, true, 20);
  c.touch(BlockId{1, 0}, 20);
  EXPECT_EQ(order(c), (Order{1, 2, 0}));
  c.touch(BlockId{1, 1}, 20);  // same age again: still after its equals
  EXPECT_EQ(order(c), (Order{2, 0, 1}));
}

TEST(LruList, TouchOlderThanYoungestPlacesByAge) {
  // Under one clock every touch carries the newest age. An older one is
  // placed by age, not appended: the list stays age-ordered.
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 20);
  c.insert(BlockId{1, 2}, true, 30);
  c.touch(BlockId{1, 0}, 25);
  EXPECT_EQ(order(c), (Order{1, 0, 2}));
  EXPECT_EQ(c.age_of(BlockId{1, 0}), 25u);
  c.touch(BlockId{1, 1}, 25);  // a tie with the entry just placed
  EXPECT_EQ(order(c), (Order{0, 1, 2}));
  c.touch(BlockId{1, 0}, 40);  // newest again
  EXPECT_EQ(order(c), (Order{1, 2, 0}));
}

TEST(LruList, AgedEntriesEraseAndPopAcrossStructures) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 50);
  c.insert(BlockId{1, 2}, true, 30);  // aged
  c.insert(BlockId{1, 3}, true, 5);   // aged, oldest of all
  c.insert(BlockId{1, 4}, true, 40);  // aged
  EXPECT_EQ(c.master_count(), 5u);
  EXPECT_EQ(c.age_of(BlockId{1, 2}), 30u);
  EXPECT_EQ(c.age_of(BlockId{1, 3}), 5u);
  EXPECT_EQ(order(c), (Order{3, 0, 2, 4, 1}));
  EXPECT_EQ(c.oldest()->block, (BlockId{1, 3}));

  EXPECT_TRUE(c.erase(BlockId{1, 2}));  // from the aged entries
  EXPECT_TRUE(c.erase(BlockId{1, 1}));  // the youngest
  EXPECT_FALSE(c.contains(BlockId{1, 2}));
  EXPECT_EQ(order(c), (Order{3, 0, 4}));

  const auto a = pop_oldest(c);
  EXPECT_EQ(a.block, (BlockId{1, 3}));
  EXPECT_EQ(a.age, 5u);
  const auto b = pop_oldest(c);
  EXPECT_EQ(b.block, (BlockId{1, 0}));
  EXPECT_EQ(c.oldest_age(), 40u);
  EXPECT_EQ(pop_oldest(c).block, (BlockId{1, 4}));
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.masters().begin(), c.masters().end());
}

TEST(LruList, MovesBetweenStructuresKeepAgeOrder) {
  NodeCache c = cache_of(64);
  c.insert(BlockId{1, 0}, true, 10);
  c.insert(BlockId{1, 1}, true, 20);
  c.insert(BlockId{1, 2}, true, 30);
  c.insert(BlockId{1, 3}, true, 15);  // aged
  c.touch(BlockId{1, 3}, 31);         // aged -> newest
  EXPECT_EQ(order(c), (Order{0, 1, 2, 3}));
  c.touch(BlockId{1, 0}, 25);  // newest -> aged
  EXPECT_EQ(order(c), (Order{1, 0, 2, 3}));
  c.touch(BlockId{1, 0}, 26);  // aged -> aged
  EXPECT_EQ(order(c), (Order{1, 0, 2, 3}));
  EXPECT_EQ(c.age_of(BlockId{1, 0}), 26u);
  // Drain the newest entries: the aged ones now hold the youngest ages,
  // and a newest-age insert still lands after them.
  EXPECT_TRUE(c.erase(BlockId{1, 2}));
  EXPECT_TRUE(c.erase(BlockId{1, 3}));
  EXPECT_TRUE(c.erase(BlockId{1, 1}));
  c.insert(BlockId{1, 4}, true, 27);
  c.insert(BlockId{1, 5}, true, 3);
  EXPECT_EQ(order(c), (Order{5, 0, 4}));
  c.touch(BlockId{1, 5}, 26);  // a tie with an aged entry
  EXPECT_EQ(order(c), (Order{0, 5, 4}));
  std::vector<std::uint64_t> ages;
  for (const auto& e : c.masters()) ages.push_back(e.age);
  EXPECT_EQ(ages, (std::vector<std::uint64_t>{26, 26, 27}));
}

/// Brute-force reference for one age order: entries in a vector sorted by
/// (age, placement order), placed after every entry of equal age.
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
  [[nodiscard]] bool contains(const BlockId& b) const {
    return find(b) != items_.end();
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

/// Checks that `range` lists exactly `want`'s entries, in order, with the
/// master flag `master` and the widths in `widths`.
void expect_order(const NodeCache& c, const NodeCache::Order::Range& range,
                  const SortedReference& want, bool master,
                  const std::map<BlockId, std::uint32_t>& widths, int op) {
  std::size_t i = 0;
  for (const auto& e : range) {
    ASSERT_LT(i, want.items().size()) << "op " << op;
    const auto& w = want.items()[i++];
    ASSERT_EQ(e.block, w.block) << "op " << op << " pos " << i;
    ASSERT_EQ(e.age, w.age) << "op " << op << " pos " << i;
    ASSERT_EQ(e.master, master) << "op " << op << " pos " << i;
    ASSERT_EQ(e.slots, widths.at(e.block)) << "op " << op;
    ASSERT_EQ(c.age_of(e.block), w.age) << "op " << op;
    ASSERT_EQ(c.is_master(e.block), master) << "op " << op;
    ASSERT_EQ(c.slots_of(e.block), widths.at(e.block)) << "op " << op;
  }
  ASSERT_EQ(i, want.items().size()) << "op " << op;
}

/// Fills a NodeCache and a reference pair (masters, copies) to `cap`
/// entries, then runs `ops` seeded mixed operations on both. Sizes, slot
/// books and the oldest entry overall and among copies are compared after
/// every step, both whole orders every `full_check_every` steps. Ages come
/// from one clock but are not always its newest: forwarded-style inserts
/// draw an older age, and some touches an age between the entry's own and
/// the newest, so entries move between the list and the set and ties are
/// common. Promotions and demotions move entries between the two orders at
/// their age, and some entries span two or three slots.
void run_against_reference(std::uint64_t seed, std::size_t cap, int ops,
                           int full_check_every) {
  sim::Rng rng(seed);
  const auto draw = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng.uniform_int(hi - lo + 1);
  };
  NodeCache c = cache_of(3 * cap);
  SortedReference masters, copies;
  std::map<BlockId, std::uint32_t> widths;
  std::uint64_t used = 0;  // sum of `widths`
  std::uint64_t clock = 0;
  std::uint32_t next_block = 0;
  const auto oldest_age = [&]() -> std::uint64_t {
    const auto& m = masters.items();
    const auto& cp = copies.items();
    if (m.empty()) return cp.front().age;
    if (cp.empty()) return m.front().age;
    return std::min(m.front().age, cp.front().age);
  };
  const auto insert_new = [&] {
    const BlockId b{1, next_block++};
    const std::uint64_t age = widths.empty() || draw(0, 9) < 7
                                  ? ++clock
                                  : draw(oldest_age(), clock);
    const bool master = draw(0, 1) == 0;
    const auto slots =
        static_cast<std::uint32_t>(draw(0, 9) < 8 ? 1 : draw(2, 3));
    c.insert(b, master, age, slots);
    (master ? masters : copies).insert(b, age);
    widths[b] = slots;
    used += slots;
  };
  // A present block, uniformly over both orders.
  const auto pick = [&]() -> BlockId {
    const std::size_t m = masters.items().size();
    const std::size_t i = draw(0, widths.size() - 1);
    return i < m ? masters.items()[i].block : copies.items()[i - m].block;
  };
  while (widths.size() < cap) insert_new();
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t roll = draw(0, 99);
    if (widths.empty() || (widths.size() < cap && roll < 35)) {
      insert_new();
    } else if (roll < 60) {
      const BlockId b = pick();
      SortedReference& ref = masters.contains(b) ? masters : copies;
      const std::uint64_t age =
          draw(0, 9) < 8 ? ++clock : draw(ref.age_of(b), clock);
      c.touch(b, age);
      ref.touch(b, age);
    } else if (roll < 72) {
      const BlockId b = pick();
      const bool was_master = masters.contains(b);
      ASSERT_EQ(c.erase(b), was_master) << "op " << op;
      (was_master ? masters : copies).erase(b);
      used -= widths.at(b);
      widths.erase(b);
      ASSERT_FALSE(c.contains(b)) << "op " << op;
      ASSERT_FALSE(c.contains(BlockId{2, 0})) << "op " << op;
    } else if (roll < 85) {
      // Evict the oldest entry overall; a master wins an age tie.
      const auto got = c.oldest();
      ASSERT_TRUE(got.has_value()) << "op " << op;
      const auto& m = masters.items();
      const auto& cp = copies.items();
      const bool from_masters =
          !m.empty() && (cp.empty() || m.front().age <= cp.front().age);
      const auto& want = from_masters ? m.front() : cp.front();
      ASSERT_EQ(got->block, want.block) << "op " << op;
      ASSERT_EQ(got->age, want.age) << "op " << op;
      ASSERT_EQ(got->master, from_masters) << "op " << op;
      ASSERT_EQ(c.erase(got->block), from_masters) << "op " << op;
      (from_masters ? masters : copies).erase(got->block);
      used -= widths.at(got->block);
      widths.erase(got->block);
    } else {
      // A move between the orders at the entry's age.
      const BlockId b = pick();
      const bool was_master = masters.contains(b);
      SortedReference& from = was_master ? masters : copies;
      SortedReference& to = was_master ? copies : masters;
      const std::uint64_t age = from.age_of(b);
      if (was_master) {
        c.demote_to_copy(b);
      } else {
        c.promote_to_master(b);
      }
      from.erase(b);
      to.insert(b, age);
    }

    ASSERT_EQ(c.master_count(), masters.items().size()) << "op " << op;
    ASSERT_EQ(c.copy_count(), copies.items().size()) << "op " << op;
    ASSERT_EQ(c.entry_count(), widths.size()) << "op " << op;
    ASSERT_EQ(c.used_blocks(), used) << "op " << op;
    if (widths.empty()) {
      ASSERT_FALSE(c.oldest().has_value()) << "op " << op;
      continue;
    }
    ASSERT_EQ(c.oldest_age(), oldest_age()) << "op " << op;
    const auto copy = c.oldest_copy();
    ASSERT_EQ(copy.has_value(), !copies.items().empty()) << "op " << op;
    if (copy) {
      ASSERT_EQ(copy->block, copies.items().front().block) << "op " << op;
    }
    if (op % full_check_every != 0) continue;
    expect_order(c, c.masters(), masters, true, widths, op);
    expect_order(c, c.copies(), copies, false, widths, op);
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
  EXPECT_FALSE(c.oldest()->master);
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
  EXPECT_EQ(c.age_of(BlockId{1, 0}), 7u);
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

TEST(NodeCache, ChurnAtCapacityNeverGrowsThePool) {
  // Insert/erase churn in a full cache reuses freed entries: the pool never
  // holds more entries than the cache has slots.
  constexpr std::uint64_t kSlots = 64;
  NodeCache c = cache_of(kSlots);
  sim::Rng rng(9);
  std::uint64_t clock = 0;
  std::uint32_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto slots = static_cast<std::uint32_t>(
        rng.uniform_int(10) == 0 ? 2 + rng.uniform_int(2) : 1);
    while (c.lacks_room_for(slots)) c.erase(c.oldest()->block);
    const BlockId b{1, next++};
    c.insert(b, rng.uniform_int(2) == 0, ++clock, slots);
    if (rng.uniform_int(8) == 0) {
      if (c.is_master(b)) {
        c.demote_to_copy(b);
      } else {
        c.promote_to_master(b);
      }
    }
    ASSERT_LE(NodeCacheTestPeer::pool_size(c), kSlots) << "step " << step;
  }
  EXPECT_GE(NodeCacheTestPeer::pool_size(c), c.entry_count());
}

// ---------------------------------------------------------- BlockTable ---

/// Every key `t` holds, with its value, read back by iteration.
std::map<BlockId, int> contents(const BlockTable<int>& t) {
  std::map<BlockId, int> out;
  for (const auto& [b, v] : t) {  // ccm-lint: allow(unordered-iter)
    EXPECT_TRUE(out.emplace(b, v).second) << "key visited twice";
  }
  return out;
}

/// Checks `t` against `ref`: size, every find, and the iterated contents.
void expect_same(const BlockTable<int>& t,
                 const std::unordered_map<std::uint64_t, int>& ref,
                 const std::vector<BlockId>& keys) {
  ASSERT_EQ(t.size(), ref.size());
  ASSERT_EQ(t.empty(), ref.empty());
  for (const BlockId& b : keys) {
    const auto it = ref.find(block_key(b));
    const int* got = t.find(b);
    if (it == ref.end()) {
      ASSERT_EQ(got, nullptr) << b.file << "/" << b.index;
    } else {
      ASSERT_NE(got, nullptr) << b.file << "/" << b.index;
      ASSERT_EQ(*got, it->second) << b.file << "/" << b.index;
    }
  }
  const auto seen = contents(t);
  ASSERT_EQ(seen.size(), ref.size());
  for (const auto& [b, v] : seen) ASSERT_EQ(ref.at(block_key(b)), v);
}

TEST(BlockTable, MatchesUnorderedMap) {
  // Keys from a small universe, so inserts, overwrites and erases hit each
  // other; the extreme file and index values are included.
  std::vector<BlockId> keys;
  for (std::uint32_t f = 0; f < 48; ++f) {
    for (std::uint32_t i = 0; i < 48; ++i) keys.push_back({f, i});
  }
  keys.push_back({0xFFFFFFFFu, 0});
  keys.push_back({0, 0xFFFFFFFFu});
  keys.push_back({0xFFFFFFFEu, 0xFFFFFFFFu});
  keys.push_back({0xFFFFFFFFu, 0xFFFFFFFEu});
  sim::Rng rng(11);
  BlockTable<int> t;
  std::unordered_map<std::uint64_t, int> ref;
  // Phases bias toward inserting, then erasing: the table grows from 16
  // slots to thousands and drains back.
  for (int phase = 0; phase < 6; ++phase) {
    const bool growing = phase % 2 == 0;
    for (int op = 0; op < 6000; ++op) {
      const BlockId b = keys[rng.uniform_int(keys.size())];
      const std::uint64_t k = block_key(b);
      const int value = static_cast<int>(rng.uniform_int(1000000));
      const std::uint64_t roll = rng.uniform_int(100);
      if (roll < (growing ? 45 : 15)) {
        const auto [v, inserted] = t.try_emplace(b, value);
        const auto [it, want] = ref.try_emplace(k, value);
        ASSERT_EQ(inserted, want);
        ASSERT_EQ(*v, it->second);
      } else if (roll < (growing ? 60 : 30)) {
        t[b] = value;  // overwrite or insert
        ref[k] = value;
      } else if (roll < 80) {
        ASSERT_EQ(t.erase(b), ref.erase(k) > 0);
      } else if (roll < 90) {
        const auto got = t.take(b);
        const auto it = ref.find(k);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
          ref.erase(it);
        }
      } else {
        const int* got = t.find(b);
        const auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
      }
      ASSERT_EQ(t.size(), ref.size());
      if (op % 500 == 0) expect_same(t, ref, keys);
    }
    expect_same(t, ref, keys);
  }
  EXPECT_GE(BlockTableTestPeer::slot_count(t), 4096u);
  // The empty-slot marker is never found.
  EXPECT_EQ(t.find(BlockId{0xFFFFFFFFu, 0xFFFFFFFFu}), nullptr);
  EXPECT_FALSE(t.erase(BlockId{0xFFFFFFFFu, 0xFFFFFFFFu}));
}

TEST(BlockTable, ProbeRunsWrapPastTheEnd) {
  // Keys whose home is one of the last two slots of a 16-slot array: their
  // probe runs continue at slot 0. Erasing them in any order must shift the
  // wrapped entries back across the end.
  BlockTable<int> t;
  t[BlockId{0, 0}] = 0;
  ASSERT_TRUE(t.erase(BlockId{0, 0}));
  ASSERT_EQ(BlockTableTestPeer::slot_count(t), 16u);
  std::vector<BlockId> keys;
  for (std::uint32_t f = 1; keys.size() < 7; ++f) {
    const BlockId b{f, 7};
    if (BlockTableTestPeer::home(t, b) >= 14) keys.push_back(b);
  }
  sim::Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    std::unordered_map<std::uint64_t, int> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      t[keys[i]] = static_cast<int>(i);
      ref[block_key(keys[i])] = static_cast<int>(i);
    }
    ASSERT_EQ(BlockTableTestPeer::slot_count(t), 16u);  // 7 of 16: no growth
    bool wrapped = false;
    for (const BlockId& b : keys) {
      wrapped |= BlockTableTestPeer::slot_of(t, b) <
                 BlockTableTestPeer::home(t, b);
    }
    ASSERT_TRUE(wrapped);
    std::vector<BlockId> order = keys;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(i)]);
    }
    for (const BlockId& b : order) {
      ASSERT_TRUE(t.erase(b));
      ref.erase(block_key(b));
      expect_same(t, ref, keys);
    }
  }
}

TEST(BlockTable, ErasingEveryEntryLeavesItEmpty) {
  BlockTable<int> t;
  std::vector<BlockId> keys;
  for (std::uint32_t f = 0; f < 100; ++f) {
    for (std::uint32_t i = 0; i < 30; ++i) {
      keys.push_back({f, i});
      t[keys.back()] = static_cast<int>(f * 30 + i);
    }
  }
  ASSERT_EQ(t.size(), keys.size());
  sim::Rng rng(3);
  std::vector<BlockId> order = keys;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  }
  for (const BlockId& b : order) {
    ASSERT_EQ(t.take(b), static_cast<int>(b.file * 30 + b.index));
  }
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(contents(t).empty());
  for (const BlockId& b : keys) EXPECT_EQ(t.find(b), nullptr);
  t[BlockId{3, 3}] = 7;  // still usable
  EXPECT_EQ(*t.find(BlockId{3, 3}), 7);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(BlockId{3, 3}), nullptr);
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
