// Tests for the caching building blocks: types, LruList, NodeCache, and the
// two directory implementations.
#include <gtest/gtest.h>

#include "cache/directory.hpp"
#include "cache/lru.hpp"
#include "cache/node_cache.hpp"
#include "cache/types.hpp"

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
