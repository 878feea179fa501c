// Behavioral tests for ClusterCache: each rule from §3/§5 of the paper gets a
// deterministic micro-scenario, and parameterized random sweeps check the
// cross-node invariants after every access.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "cache/coop_cache.hpp"
#include "sim/random.hpp"

namespace coop::cache {
namespace {

constexpr std::uint32_t kBlock = 8 * 1024;

CoopCacheConfig small_config(std::size_t nodes, std::uint64_t blocks_per_node,
                             Policy policy) {
  CoopCacheConfig c;
  c.nodes = nodes;
  c.capacity_bytes = blocks_per_node * kBlock;
  c.block_bytes = kBlock;
  c.policy = policy;
  return c;
}

/// Shorthand: access one whole file of `blocks` blocks.
AccessResult touch_file(ClusterCache& cc, NodeId node, FileId file,
                        std::uint32_t blocks = 1) {
  return cc.access(node, file, static_cast<std::uint64_t>(blocks) * kBlock);
}

// ------------------------------------------------------- basic protocol ---

TEST(CoopCache, FirstAccessIsDiskReadAtHome) {
  ClusterCache cc(small_config(4, 8, Policy::kBasic));
  const auto r = touch_file(cc, /*node=*/2, /*file=*/5);
  ASSERT_EQ(r.fetches.size(), 1u);
  EXPECT_EQ(r.fetches[0].source, Source::kDiskRead);
  EXPECT_EQ(r.fetches[0].provider, cc.home_of(5));
  EXPECT_EQ(cc.home_of(5), 1);  // 5 % 4
  EXPECT_TRUE(cc.node(2).is_master(BlockId{5, 0}));
  EXPECT_EQ(cc.directory().lookup(BlockId{5, 0}), 2);
}

TEST(CoopCache, SecondAccessSameNodeIsLocalHit) {
  ClusterCache cc(small_config(4, 8, Policy::kBasic));
  touch_file(cc, 2, 5);
  const auto r = touch_file(cc, 2, 5);
  ASSERT_EQ(r.fetches.size(), 1u);
  EXPECT_EQ(r.fetches[0].source, Source::kLocalHit);
  EXPECT_EQ(r.fetches[0].provider, 2);
}

TEST(CoopCache, OtherNodeGetsRemoteHitAndKeepsCopy) {
  ClusterCache cc(small_config(4, 8, Policy::kBasic));
  touch_file(cc, 2, 5);
  const auto r = touch_file(cc, 0, 5);
  ASSERT_EQ(r.fetches.size(), 1u);
  EXPECT_EQ(r.fetches[0].source, Source::kRemoteHit);
  EXPECT_EQ(r.fetches[0].provider, 2);
  // Requester keeps a non-master copy; master stays where it was.
  EXPECT_TRUE(cc.node(0).contains(BlockId{5, 0}));
  EXPECT_FALSE(cc.node(0).is_master(BlockId{5, 0}));
  EXPECT_TRUE(cc.node(2).is_master(BlockId{5, 0}));
}

TEST(CoopCache, MultiBlockFileFetchesEveryBlock) {
  ClusterCache cc(small_config(4, 16, Policy::kBasic));
  const auto r = touch_file(cc, 0, 8, /*blocks=*/5);
  EXPECT_EQ(r.fetches.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(cc.node(0).is_master(BlockId{8, i}));
  }
  EXPECT_EQ(cc.stats().disk_reads, 5u);
}

TEST(CoopCache, ZeroByteFileOccupiesOneBlock) {
  ClusterCache cc(small_config(2, 4, Policy::kBasic));
  const auto r = cc.access(0, 9, 0);
  EXPECT_EQ(r.fetches.size(), 1u);
  EXPECT_EQ(cc.node(0).used_blocks(), 1u);
}

TEST(CoopCache, MasterReadRefreshesItsAge) {
  // Remote hits touch the master, protecting hot masters from eviction.
  ClusterCache cc(small_config(2, 2, Policy::kBasic));
  touch_file(cc, 0, 0);  // master f0 at node 0
  touch_file(cc, 0, 2);  // master f2 at node 0 (home 0); node 0 full
  touch_file(cc, 1, 0);  // remote hit: touches f0's master
  // Node 0 must now evict when caching something new; the oldest is f2.
  touch_file(cc, 0, 4);
  EXPECT_TRUE(cc.node(0).contains(BlockId{0, 0}));
  EXPECT_FALSE(cc.node(0).contains(BlockId{2, 0}));
}

// ------------------------------------------------------------ eviction ---

TEST(CoopCache, NonMasterEvictedSilently) {
  ClusterCache cc(small_config(2, 2, Policy::kBasic));
  touch_file(cc, 1, 0);  // f0 master @1, age 1
  touch_file(cc, 0, 0);  // remote hit (master age 2), copy @0 age 3
  touch_file(cc, 0, 1);  // f1 master @0, age 4; node 0 full
  // Node 0's oldest is the f0 copy (age 3): dropped, never forwarded.
  const auto r = touch_file(cc, 0, 3);
  ASSERT_GE(r.drops.size(), 1u);
  EXPECT_EQ(r.drops[0].block, (BlockId{0, 0}));
  EXPECT_EQ(r.drops[0].node, 0);
  EXPECT_FALSE(r.drops[0].was_master);
  EXPECT_TRUE(r.forwards.empty());
  EXPECT_TRUE(cc.node(1).is_master(BlockId{0, 0}));  // master untouched
}

TEST(CoopCache, MasterForwardedWhenNotGloballyOldest) {
  ClusterCache cc(small_config(2, 2, Policy::kBasic));
  touch_file(cc, 1, 0);  // f0 master @1, age 1 (the globally oldest)
  touch_file(cc, 0, 1);  // f1 master @0, age 2
  touch_file(cc, 0, 3);  // f3 master @0, age 3; node 0 full
  // Node 0 evicts f1 (age 2): node 1 holds age 1, so f1 is not globally
  // oldest -> forwarded to node 1 (which even has a free slot).
  const auto r = touch_file(cc, 0, 5);
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_EQ(r.forwards[0].block, (BlockId{1, 0}));
  EXPECT_EQ(r.forwards[0].from, 0);
  EXPECT_EQ(r.forwards[0].to, 1);
  EXPECT_TRUE(r.forwards[0].accepted);
  EXPECT_TRUE(cc.node(1).is_master(BlockId{1, 0}));
  EXPECT_EQ(cc.directory().lookup(BlockId{1, 0}), 1);
}

TEST(CoopCache, GloballyOldestMasterIsDropped) {
  ClusterCache cc(small_config(2, 2, Policy::kBasic));
  touch_file(cc, 0, 0);  // f0 master @0, age 1 (globally oldest)
  touch_file(cc, 0, 2);  // f2 master @0, age 2; node 0 full
  touch_file(cc, 1, 1);  // f1 master @1, age 3
  const auto r = touch_file(cc, 0, 4);  // node 0 must evict f0
  ASSERT_GE(r.drops.size(), 1u);
  EXPECT_EQ(r.drops[0].block, (BlockId{0, 0}));
  EXPECT_TRUE(r.drops[0].was_master);
  EXPECT_TRUE(r.forwards.empty());
  EXPECT_EQ(cc.directory().lookup(BlockId{0, 0}), kInvalidNode);
}

TEST(CoopCache, ForwardedMasterKeepsItsAge) {
  ClusterCache cc(small_config(2, 2, Policy::kBasic));
  touch_file(cc, 1, 1);  // age 1 @1
  touch_file(cc, 1, 3);  // age 2 @1; node 1 full
  touch_file(cc, 0, 0);  // age 3 @0
  touch_file(cc, 0, 2);  // age 4 @0; node 0 full
  // Node 0 evicts f0 (age 3): node 1 has older blocks -> forward to node 1.
  // Node 1 drops its oldest (f1, age 1); f3 (age 2) remains, which is older
  // than the forwarded block (age 3)... so the forwarded block is youngest at
  // dest? No: remaining f3 age 2 < 3, so forward IS accepted and the list at
  // node 1 is [f3(2), f0(3)].
  const auto r = touch_file(cc, 0, 4);
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_TRUE(r.forwards[0].accepted);
  EXPECT_TRUE(cc.node(1).is_master(BlockId{0, 0}));
  EXPECT_EQ(cc.node(1).age_of(BlockId{0, 0}), 3u);
}

TEST(CoopCache, ForwardedBlockDroppedIfYoungestAtDestination) {
  ClusterCache cc(small_config(2, 1, Policy::kBasic));
  touch_file(cc, 0, 0);  // f0 master @0 age 1
  touch_file(cc, 1, 1);  // f1 master @1 age 2
  // Node 1 accesses f3: must evict f1 (master, age 2). Node 0 holds age 1,
  // so f1 is not globally oldest -> forward to node 0. Node 0 drops f0
  // (age 1) to make room; now node 0 is empty, so the forwarded block is
  // accepted (no younger blocks remain). Then node 1 caches f3.
  auto r = touch_file(cc, 1, 3);
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_TRUE(r.forwards[0].accepted);
  EXPECT_TRUE(cc.node(0).is_master(BlockId{1, 0}));

  // Now construct the rejected case: node 0 holds f1 (age 2). Node 1 holds
  // f3 (age 3). Access f5 at node 0: evict f1 (not globally oldest? node 1
  // has age 3 > 2, so f1 IS globally oldest -> dropped, no forward).
  r = touch_file(cc, 0, 5);
  EXPECT_TRUE(r.forwards.empty());
  EXPECT_EQ(cc.directory().lookup(BlockId{1, 0}), kInvalidNode);
}

TEST(CoopCache, RejectedForwardWhenAllDestBlocksYounger) {
  // 3 nodes, capacity 2. Arrange: node 0 evicts a master of age A; the peer
  // with the oldest block ends up holding only blocks younger than A after
  // its make-room drop.
  ClusterCache cc(small_config(3, 2, Policy::kBasic));
  touch_file(cc, 1, 1);   // f1@1 age 1
  touch_file(cc, 0, 0);   // f0@0 age 2
  touch_file(cc, 1, 4);   // f4@1 age 3 (node 1 full: ages 1,3)
  touch_file(cc, 0, 3);   // f3@0 age 4 (node 0 full: ages 2,4)
  touch_file(cc, 2, 2);   // f2@2 age 5 (node 2 has one free slot)
  touch_file(cc, 2, 5);   // f5@2 age 6 (node 2 full: ages 5,6)
  // Node 0 accesses f6 -> evicts f0 (age 2, master, not globally oldest since
  // node 1 holds age 1) -> forward to node 1 (oldest peer, all full).
  // Node 1 drops f1 (age 1); remaining f4 (age 3) is younger than 2 -> the
  // forwarded master is dropped too.
  const auto r = touch_file(cc, 0, 6);
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_FALSE(r.forwards[0].accepted);
  EXPECT_EQ(cc.directory().lookup(BlockId{0, 0}), kInvalidNode);
  // And the destination did NOT cascade: exactly its one oldest was dropped.
  EXPECT_TRUE(cc.node(1).contains(BlockId{4, 0}));
  EXPECT_FALSE(cc.node(1).contains(BlockId{1, 0}));
}

TEST(CoopCache, ForwardToNodeHoldingCopyPromotesIt) {
  ClusterCache cc(small_config(2, 2, Policy::kBasic));
  touch_file(cc, 1, 1);  // f1 master @1, age 1
  touch_file(cc, 0, 0);  // f0 master @0, age 2
  touch_file(cc, 1, 0);  // remote hit: master touched (age 3), copy @1 age 4
  touch_file(cc, 0, 2);  // f2 master @0, age 5; node 0 full (f0:3, f2:5)
  // Node 0 evicts f0's master (age 3; node 1 holds age 1, so not globally
  // oldest) -> forwarded to node 1, which holds a non-master copy of the
  // same block: the copy is promoted in place, nothing is dropped.
  const auto r = touch_file(cc, 0, 4);
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_EQ(r.forwards[0].block, (BlockId{0, 0}));
  EXPECT_EQ(r.forwards[0].to, 1);
  EXPECT_TRUE(r.forwards[0].accepted);
  EXPECT_TRUE(cc.node(1).is_master(BlockId{0, 0}));
  EXPECT_EQ(cc.directory().lookup(BlockId{0, 0}), 1);
  for (const auto& d : r.drops) EXPECT_NE(d.node, 1);
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCache, SingleNodeClusterDropsInsteadOfForwarding) {
  // With one node, the local oldest is always the globally oldest, so
  // masters are dropped outright and no forward is ever attempted.
  ClusterCache cc(small_config(1, 2, Policy::kBasic));
  touch_file(cc, 0, 0);
  touch_file(cc, 0, 1);
  const auto r = touch_file(cc, 0, 2);
  EXPECT_TRUE(r.forwards.empty());
  ASSERT_EQ(r.drops.size(), 1u);
  EXPECT_EQ(r.drops[0].block, (BlockId{0, 0}));
  EXPECT_TRUE(r.drops[0].was_master);
  EXPECT_TRUE(cc.node(0).contains(BlockId{2, 0}));
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCache, ForwardPrefersPeerWithFreeSpace) {
  ClusterCache cc(small_config(3, 2, Policy::kBasic));
  touch_file(cc, 1, 1);  // node 1: one block, one free slot
  touch_file(cc, 0, 0);
  touch_file(cc, 0, 3);  // node 0 full
  const auto r = touch_file(cc, 0, 6);
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_TRUE(r.forwards[0].accepted);
  // No drop should have occurred at the destination (it had space).
  for (const auto& d : r.drops) EXPECT_NE(d.node, r.forwards[0].to);
}

// --------------------------------------------------------------- CC-NEM ---

TEST(CoopCacheNem, EvictsOldestCopyBeforeAnyMaster) {
  ClusterCache cc(small_config(2, 3, Policy::kNeverEvictMaster));
  touch_file(cc, 1, 1);  // master f1@1
  touch_file(cc, 0, 1);  // copy f1@0 (oldest thing at node 0 afterwards)
  touch_file(cc, 0, 0);  // master f0@0
  touch_file(cc, 0, 2);  // master f2@0; node 0 full: copy f1, masters f0,f2
  const auto r = touch_file(cc, 0, 4);
  // The copy of f1 must be the victim even though it is NOT the oldest
  // (master f0 has an older age? no: copy inserted before f0, so the copy is
  // oldest anyway). The discriminating case: make a master the oldest.
  ASSERT_GE(r.drops.size(), 1u);
  EXPECT_EQ(r.drops[0].block, (BlockId{1, 0}));
  EXPECT_FALSE(r.drops[0].was_master);

  // Discriminating case: copy younger than a master.
  ClusterCache cc2(small_config(2, 3, Policy::kNeverEvictMaster));
  touch_file(cc2, 0, 0);  // master f0@0 age 1 (oldest)
  touch_file(cc2, 1, 1);  // master f1@1
  touch_file(cc2, 0, 1);  // copy f1@0 (younger than master f0)
  touch_file(cc2, 0, 2);  // master f2@0; node 0 full
  const auto r2 = touch_file(cc2, 0, 4);
  ASSERT_GE(r2.drops.size(), 1u);
  EXPECT_EQ(r2.drops[0].block, (BlockId{1, 0}));
  EXPECT_FALSE(r2.drops[0].was_master);
  EXPECT_TRUE(cc2.node(0).is_master(BlockId{0, 0}));  // old master survives
}

TEST(CoopCacheNem, FallsBackToGlobalLruWhenOnlyMasters) {
  // Node 0 holds only masters and its oldest is the globally oldest block:
  // the Basic rule applies and the master is dropped outright.
  ClusterCache cc(small_config(2, 2, Policy::kNeverEvictMaster));
  touch_file(cc, 0, 0);  // age 1 (globally oldest)
  touch_file(cc, 0, 2);  // age 2; node 0 full of masters
  touch_file(cc, 1, 1);  // age 3
  const auto r = touch_file(cc, 0, 4);
  EXPECT_TRUE(r.forwards.empty());
  ASSERT_GE(r.drops.size(), 1u);
  EXPECT_EQ(r.drops[0].block, (BlockId{0, 0}));
  EXPECT_TRUE(r.drops[0].was_master);

  // And when the oldest master is NOT globally oldest, it is forwarded.
  ClusterCache cc2(small_config(2, 2, Policy::kNeverEvictMaster));
  touch_file(cc2, 1, 1);  // age 1 @1 (globally oldest)
  touch_file(cc2, 0, 0);  // age 2 @0
  touch_file(cc2, 0, 2);  // age 3 @0; node 0 full of masters
  const auto r2 = touch_file(cc2, 0, 4);
  ASSERT_EQ(r2.forwards.size(), 1u);
  EXPECT_EQ(r2.forwards[0].block, (BlockId{0, 0}));
  EXPECT_TRUE(r2.forwards[0].accepted);
}

TEST(CoopCacheNem, MemoryFillsWithMastersUnderPressure) {
  // The paper: CC-NEM "leads to all memories holding only master copies"
  // when the working set exceeds cluster memory.
  ClusterCache cc(small_config(4, 8, Policy::kNeverEvictMaster));
  sim::Rng rng(7);
  const sim::ZipfSampler zipf(64, 0.8);  // 64 one-block files >> 32 blocks
  for (int i = 0; i < 4000; ++i) {
    const auto node = static_cast<NodeId>(i % 4);
    touch_file(cc, node, static_cast<FileId>(zipf.sample(rng)));
  }
  std::size_t copies = 0, masters = 0;
  for (NodeId n = 0; n < 4; ++n) {
    copies += cc.node(n).copy_count();
    masters += cc.node(n).master_count();
  }
  EXPECT_GT(masters, 25u);
  // Only a handful of freshly-fetched replicas survive at any instant.
  EXPECT_LE(copies, 6u);
  EXPECT_GT(masters, copies * 4);
  EXPECT_TRUE(cc.check_invariants());
}

// --------------------------------------------------------------- stats ---

TEST(CoopCache, StatsAreConsistent) {
  ClusterCache cc(small_config(4, 16, Policy::kNeverEvictMaster));
  sim::Rng rng(11);
  const sim::ZipfSampler zipf(200, 0.9);
  std::uint64_t fetches = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto r = touch_file(cc, static_cast<NodeId>(rng.uniform_int(4)),
                              static_cast<FileId>(zipf.sample(rng)),
                              1 + static_cast<std::uint32_t>(rng.uniform_int(3)));
    fetches += r.fetches.size();
  }
  const auto& s = cc.stats();
  EXPECT_EQ(s.block_accesses(), fetches);
  EXPECT_LE(s.forwards_accepted, s.forwards_attempted);
  EXPECT_NEAR(s.local_hit_rate() + s.remote_hit_rate(), s.global_hit_rate(),
              1e-12);
  EXPECT_GT(s.global_hit_rate(), 0.0);
  EXPECT_LE(s.global_hit_rate(), 1.0);
}

TEST(CoopCache, ResetStatsClearsCounters) {
  ClusterCache cc(small_config(2, 4, Policy::kBasic));
  touch_file(cc, 0, 0);
  EXPECT_GT(cc.stats().disk_reads, 0u);
  cc.reset_stats();
  EXPECT_EQ(cc.stats().disk_reads, 0u);
  EXPECT_EQ(cc.stats().block_accesses(), 0u);
}

TEST(CoopCache, CustomHomeMapping) {
  CoopCacheConfig cfg = small_config(4, 8, Policy::kBasic);
  ClusterCache cc(cfg, [](FileId) { return NodeId{3}; });
  const auto r = touch_file(cc, 0, 17);
  EXPECT_EQ(r.fetches[0].provider, 3);
  EXPECT_EQ(cc.home_of(0), 3);
}

// -------------------------------------------------------- hinted mode -----

TEST(CoopCacheHinted, MissingHintChainsViaHome) {
  CoopCacheConfig cfg = small_config(3, 8, Policy::kNeverEvictMaster);
  cfg.directory = DirectoryMode::kHinted;
  cfg.hint_staleness = 100;  // hints only refresh on use
  ClusterCache cc(cfg);
  touch_file(cc, 0, 0);  // master f0@0; nodes 1,2 have no hints
  const auto r = touch_file(cc, 1, 0);
  // Node 1 had no hint: the request chains via the home node to the real
  // master — a remote hit with an extra (misdirected) hop, not a disk read.
  ASSERT_EQ(r.fetches.size(), 1u);
  EXPECT_EQ(r.fetches[0].source, Source::kRemoteHit);
  EXPECT_TRUE(r.fetches[0].misdirected);
  EXPECT_EQ(r.fetches[0].provider, 0);
  EXPECT_EQ(cc.stats().hint_misdirects, 1u);
  // Node 1 learned the location: the next access pays no extra hop.
  touch_file(cc, 2, 0);  // another cold node
  const auto r2 = touch_file(cc, 1, 1);  // different file, fresh
  (void)r2;
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheHinted, StaleHintCostsExtraHopButHits) {
  CoopCacheConfig cfg = small_config(3, 8, Policy::kNeverEvictMaster);
  cfg.directory = DirectoryMode::kHinted;
  cfg.hint_staleness = 100;
  ClusterCache cc(cfg);
  touch_file(cc, 0, 0);   // master f0@0
  touch_file(cc, 1, 0);   // node 1: no hint -> chained remote hit, copy @1
  const auto r = touch_file(cc, 0, 0);  // owner: plain local hit
  EXPECT_EQ(r.fetches[0].source, Source::kLocalHit);
  EXPECT_GE(cc.hint_accuracy(), 0.0);
  EXPECT_TRUE(cc.check_invariants());
}

// ------------------------------------------- whole-file adaptation (§6) ---

CoopCacheConfig whole_file_config(std::size_t nodes,
                                  std::uint64_t blocks_per_node) {
  auto c = small_config(nodes, blocks_per_node, Policy::kNeverEvictMaster);
  c.whole_file = true;
  return c;
}

TEST(CoopCacheWholeFile, FileIsOneEntrySpanningItsBlocks) {
  ClusterCache cc(whole_file_config(2, 16));
  const auto r = cc.access(0, 5, 3 * kBlock + 10);  // 4 blocks
  ASSERT_EQ(r.fetches.size(), 1u);  // a single fetch covers the file
  EXPECT_EQ(r.fetches[0].source, Source::kDiskRead);
  EXPECT_EQ(cc.node(0).used_blocks(), 4u);   // but it occupies 4 slots
  EXPECT_EQ(cc.node(0).entry_count(), 1u);
  EXPECT_TRUE(cc.node(0).is_master(BlockId{5, 0}));
}

TEST(CoopCacheWholeFile, EvictionFreesWholeFiles) {
  ClusterCache cc(whole_file_config(1, 8));
  cc.access(0, 1, 4 * kBlock);  // 4 slots
  cc.access(0, 2, 4 * kBlock);  // 8 slots: full
  const auto r = cc.access(0, 3, 2 * kBlock);  // needs 2 -> evict file 1
  ASSERT_GE(r.drops.size(), 1u);
  EXPECT_EQ(r.drops[0].block, (BlockId{1, 0}));
  EXPECT_FALSE(cc.node(0).contains(BlockId{1, 0}));
  EXPECT_EQ(cc.node(0).used_blocks(), 6u);  // 4 (file 2) + 2 (file 3)
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWholeFile, RemoteHitCopiesWholeFile) {
  ClusterCache cc(whole_file_config(2, 16));
  cc.access(0, 5, 4 * kBlock);
  const auto r = cc.access(1, 5, 4 * kBlock);
  ASSERT_EQ(r.fetches.size(), 1u);
  EXPECT_EQ(r.fetches[0].source, Source::kRemoteHit);
  EXPECT_EQ(cc.node(1).used_blocks(), 4u);  // the copy is also 4 slots
  EXPECT_FALSE(cc.node(1).is_master(BlockId{5, 0}));
}

TEST(CoopCacheWholeFile, ForwardCarriesFullFootprint) {
  ClusterCache cc(whole_file_config(2, 8));
  cc.access(1, 1, 2 * kBlock);  // node 1: 2 slots, age 1
  cc.access(0, 2, 4 * kBlock);  // node 0: 4 slots, age 2
  cc.access(0, 4, 4 * kBlock);  // node 0 full (8 slots), age 3
  // Node 0 accesses another file: evicts file 2 (oldest master, not
  // globally oldest because node 1 holds age 1) -> forward to node 1.
  const auto r = cc.access(0, 6, 2 * kBlock);
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_EQ(r.forwards[0].block, (BlockId{2, 0}));
  EXPECT_TRUE(r.forwards[0].accepted);
  EXPECT_TRUE(cc.node(1).is_master(BlockId{2, 0}));
  EXPECT_EQ(cc.node(1).used_blocks(), 6u);  // 2 (file 1) + 4 (file 2)
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWholeFile, OversizedFileAdmittedDegenerately) {
  ClusterCache cc(whole_file_config(2, 4));
  cc.access(0, 1, kBlock);
  const auto r = cc.access(0, 2, 10 * kBlock);  // wider than capacity
  (void)r;
  EXPECT_TRUE(cc.node(0).contains(BlockId{2, 0}));
  EXPECT_FALSE(cc.node(0).contains(BlockId{1, 0}));  // evicted for room
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWholeFile, InvariantsUnderRandomWorkload) {
  ClusterCache cc(whole_file_config(4, 32));
  sim::Rng rng(0xF00D);
  const sim::ZipfSampler zipf(80, 0.8);
  for (int i = 0; i < 3000; ++i) {
    const auto node = static_cast<NodeId>(rng.uniform_int(4));
    const auto file = static_cast<FileId>(zipf.sample(rng));
    const auto bytes = (1 + rng.uniform_int(6)) * kBlock;
    cc.access(node, file, bytes);
    if (i % 250 == 0) {
      ASSERT_TRUE(cc.check_invariants()) << i;
    }
  }
  ASSERT_TRUE(cc.check_invariants());
}

// ----------------------------------------------- write protocol (§6 ext) ---

TEST(CoopCacheWrite, WriteAllocateCreatesMaster) {
  ClusterCache cc(small_config(4, 8, Policy::kNeverEvictMaster));
  AccessResult r;
  cc.write_block(1, BlockId{7, 0}, r);
  EXPECT_TRUE(cc.node(1).is_master(BlockId{7, 0}));
  EXPECT_EQ(cc.directory().lookup(BlockId{7, 0}), 1);
  EXPECT_EQ(cc.stats().writes, 1u);
  EXPECT_EQ(cc.stats().invalidations, 0u);
  EXPECT_EQ(cc.stats().disk_reads, 0u);  // no disk read for write-allocate
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWrite, InvalidatesAllPeerCopies) {
  ClusterCache cc(small_config(4, 8, Policy::kNeverEvictMaster));
  touch_file(cc, 0, 5);  // master @0
  touch_file(cc, 1, 5);  // copy @1
  touch_file(cc, 2, 5);  // copy @2
  AccessResult r;
  cc.write_block(0, BlockId{5, 0}, r);  // owner writes
  EXPECT_EQ(cc.stats().invalidations, 2u);
  EXPECT_FALSE(cc.node(1).contains(BlockId{5, 0}));
  EXPECT_FALSE(cc.node(2).contains(BlockId{5, 0}));
  EXPECT_TRUE(cc.node(0).is_master(BlockId{5, 0}));
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWrite, OwnershipMigratesToWriter) {
  ClusterCache cc(small_config(4, 8, Policy::kNeverEvictMaster));
  touch_file(cc, 0, 5);  // master @0
  AccessResult r;
  cc.write_block(3, BlockId{5, 0}, r);
  EXPECT_EQ(cc.stats().ownership_migrations, 1u);
  EXPECT_FALSE(cc.node(0).contains(BlockId{5, 0}));
  EXPECT_TRUE(cc.node(3).is_master(BlockId{5, 0}));
  EXPECT_EQ(cc.directory().lookup(BlockId{5, 0}), 3);
  // The migration is reported as an accepted forward (data moves with it).
  ASSERT_EQ(r.forwards.size(), 1u);
  EXPECT_EQ(r.forwards[0].from, 0);
  EXPECT_EQ(r.forwards[0].to, 3);
  EXPECT_TRUE(r.forwards[0].accepted);
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWrite, WriterCopyPromotedInPlace) {
  ClusterCache cc(small_config(4, 8, Policy::kNeverEvictMaster));
  touch_file(cc, 0, 5);  // master @0
  touch_file(cc, 1, 5);  // copy @1
  AccessResult r;
  cc.write_block(1, BlockId{5, 0}, r);  // writer held a copy
  EXPECT_TRUE(cc.node(1).is_master(BlockId{5, 0}));
  EXPECT_FALSE(cc.node(0).contains(BlockId{5, 0}));
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWrite, RepeatedOwnerWriteIsCheap) {
  ClusterCache cc(small_config(2, 8, Policy::kNeverEvictMaster));
  AccessResult r;
  cc.write_block(0, BlockId{9, 0}, r);
  const auto migrations = cc.stats().ownership_migrations;
  cc.write_block(0, BlockId{9, 0}, r);
  cc.write_block(0, BlockId{9, 0}, r);
  EXPECT_EQ(cc.stats().ownership_migrations, migrations);
  EXPECT_EQ(cc.stats().writes, 3u);
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWrite, MultiBlockWriteOwnsEveryBlock) {
  ClusterCache cc(small_config(2, 16, Policy::kNeverEvictMaster));
  touch_file(cc, 1, 4, /*blocks=*/3);  // masters @1
  const auto r = cc.write(0, 4, 3 * kBlock);
  (void)r;
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(cc.node(0).is_master(BlockId{4, i}));
    EXPECT_FALSE(cc.node(1).contains(BlockId{4, i}));
  }
  EXPECT_EQ(cc.stats().ownership_migrations, 3u);
  EXPECT_TRUE(cc.check_invariants());
}

TEST(CoopCacheWrite, WritesUnderPressureKeepInvariants) {
  ClusterCache cc(small_config(4, 4, Policy::kNeverEvictMaster));
  sim::Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const auto node = static_cast<NodeId>(rng.uniform_int(4));
    const auto file = static_cast<FileId>(rng.uniform_int(40));
    if (rng.uniform() < 0.3) {
      AccessResult r;
      cc.write_block(node, BlockId{file, 0}, r);
    } else {
      touch_file(cc, node, file);
    }
    if (i % 200 == 0) {
      ASSERT_TRUE(cc.check_invariants()) << i;
    }
  }
  EXPECT_TRUE(cc.check_invariants());
  EXPECT_GT(cc.stats().writes, 0u);
  EXPECT_GT(cc.stats().invalidations, 0u);
}

TEST(CoopCacheWrite, InvalidateFileDropsEverywhere) {
  ClusterCache cc(small_config(3, 8, Policy::kNeverEvictMaster));
  touch_file(cc, 0, 5, /*blocks=*/2);
  touch_file(cc, 1, 5, /*blocks=*/2);  // copies at node 1
  const auto r = cc.invalidate_file(5, 2 * kBlock);
  EXPECT_EQ(r.drops.size(), 4u);  // 2 masters + 2 copies
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_FALSE(cc.node(n).contains(BlockId{5, 0}));
    EXPECT_FALSE(cc.node(n).contains(BlockId{5, 1}));
  }
  EXPECT_EQ(cc.directory().lookup(BlockId{5, 0}), kInvalidNode);
  EXPECT_EQ(cc.stats().invalidations, 4u);
  EXPECT_TRUE(cc.check_invariants());
  // Idempotent.
  const auto r2 = cc.invalidate_file(5, 2 * kBlock);
  EXPECT_TRUE(r2.drops.empty());
}

// -------------------------------------------- randomized property sweep ---

struct SweepParam {
  std::size_t nodes;
  std::uint64_t blocks;
  Policy policy;
  DirectoryMode dir;
};

// ctest names each case after this text instead of a raw byte dump.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << p.nodes << "nodes-" << p.blocks << "blocks/"
      << (p.policy == Policy::kBasic ? "CC-Basic" : "CC-NEM") << '/'
      << (p.dir == DirectoryMode::kPerfect ? "perfect" : "hinted");
}

class CoopCacheSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(CoopCacheSweep, InvariantsHoldUnderRandomWorkload) {
  const auto p = GetParam();
  CoopCacheConfig cfg = small_config(p.nodes, p.blocks, p.policy);
  cfg.directory = p.dir;
  ClusterCache cc(cfg);
  sim::Rng rng(0xC0FFEE ^ (p.nodes * 131) ^ p.blocks);
  const sim::ZipfSampler zipf(100, 0.8);
  for (int i = 0; i < 3000; ++i) {
    const auto node = static_cast<NodeId>(rng.uniform_int(p.nodes));
    const auto file = static_cast<FileId>(zipf.sample(rng));
    const auto blocks = 1 + static_cast<std::uint32_t>(rng.uniform_int(4));
    const auto r = touch_file(cc, node, file, blocks);
    // Per-access sanity: every fetch names a valid provider; accepted
    // forwards landed as masters.
    for (const auto& f : r.fetches) {
      if (f.source == Source::kLocalHit) {
        EXPECT_EQ(f.provider, node);
      }
      EXPECT_LT(f.provider, p.nodes);
    }
    for (const auto& fw : r.forwards) {
      if (fw.accepted) {
        EXPECT_TRUE(cc.directory().lookup(fw.block) == fw.to ||
                    !cc.node(fw.to).contains(fw.block))
            << "accepted forward must land at destination (unless later "
               "evicted within the same access)";
      }
    }
    if (i % 100 == 0) {
      ASSERT_TRUE(cc.check_invariants()) << "iteration " << i;
    }
  }
  ASSERT_TRUE(cc.check_invariants());
  // The requested blocks of the final access must be present locally.
  const auto& s = cc.stats();
  EXPECT_EQ(s.block_accesses(), s.local_hits + s.remote_hits + s.disk_reads);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoopCacheSweep,
    testing::Values(SweepParam{1, 4, Policy::kBasic, DirectoryMode::kPerfect},
                    SweepParam{2, 2, Policy::kBasic, DirectoryMode::kPerfect},
                    SweepParam{2, 2, Policy::kNeverEvictMaster,
                               DirectoryMode::kPerfect},
                    SweepParam{4, 8, Policy::kBasic, DirectoryMode::kPerfect},
                    SweepParam{4, 8, Policy::kNeverEvictMaster,
                               DirectoryMode::kPerfect},
                    SweepParam{8, 16, Policy::kBasic, DirectoryMode::kPerfect},
                    SweepParam{8, 16, Policy::kNeverEvictMaster,
                               DirectoryMode::kPerfect},
                    SweepParam{4, 8, Policy::kBasic, DirectoryMode::kHinted},
                    SweepParam{4, 8, Policy::kNeverEvictMaster,
                               DirectoryMode::kHinted},
                    SweepParam{3, 1, Policy::kNeverEvictMaster,
                               DirectoryMode::kPerfect}));

TEST(CoopCachePolicy, NemBeatsBasicOnOverflowingWorkingSet) {
  // The paper's headline: protecting masters raises the global hit rate when
  // the working set exceeds cluster memory.
  const auto run = [](Policy policy) {
    ClusterCache cc(small_config(8, 32, policy));
    sim::Rng rng(42);
    const sim::ZipfSampler zipf(2000, 0.75);  // 2000 blocks >> 256 blocks
    for (int i = 0; i < 30000; ++i) {
      const auto node = static_cast<NodeId>(i % 8);
      cc.access(node, static_cast<FileId>(zipf.sample(rng)), kBlock);
    }
    return cc.stats().global_hit_rate();
  };
  const double basic = run(Policy::kBasic);
  const double nem = run(Policy::kNeverEvictMaster);
  EXPECT_GT(nem, basic);
}

}  // namespace
}  // namespace coop::cache
