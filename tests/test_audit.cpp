// CCM_AUDIT invariant tests: deliberately corrupt each layer's private state
// through test-peer friends and prove the matching audit invariant trips —
// and that healthy states audit clean. The corruptions simulate the bug
// classes the audits exist to catch (duplicate masters, directory drift,
// accounting leaks, time travel); several violate documented preconditions
// on purpose, which is safe here because the mutated objects are only
// audited, never run further. In asserts-enabled builds some precondition
// asserts would fire first — the tier-1/audit/TSan builds all use NDEBUG.
#include <gtest/gtest.h>

#include <memory>

#include "cache/coop_cache.hpp"
#include "cache/whole_file_cache.hpp"
#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "server/l2s_server.hpp"
#include "sim/engine.hpp"
#include "util/audit.hpp"

namespace coop::proto {

struct DirectoryServiceTestPeer {
  static cache::HintedDirectory& hints(DirectoryService& d) { return d.hints_; }
};

struct NodeStateTestPeer {
  static cache::NodeCache& cache(NodeState& s) { return s.cache_; }
};

}  // namespace coop::proto

namespace coop::cache {

struct ClusterCacheTestPeer {
  static proto::NodeState& node(ClusterCache& cc, NodeId n) {
    return *cc.nodes_[n];
  }
  static proto::DirectoryService& directory(ClusterCache& cc) {
    return cc.dir_;
  }
};

struct NodeCacheTestPeer {
  static std::uint64_t& used_slots(NodeCache& c) { return c.used_slots_; }
};

struct HintedDirectoryTestPeer {
  static auto& truth(HintedDirectory& d) { return d.truth_; }
  static auto& last_broadcast(HintedDirectory& d) { return d.last_broadcast_; }
};

struct WholeFileCacheTestPeer {
  static auto& node_state(WholeFileCache& wc, NodeId n) {
    return wc.nodes_[n];
  }
  static auto& copy_counts(WholeFileCache& wc) { return wc.copy_counts_; }
};

}  // namespace coop::cache

namespace coop::sim {

struct EngineTestPeer {
  static void set_now(Engine& e, SimTime t) { e.now_ = t; }
  static void set_live(Engine& e, std::size_t v) { e.live_ = v; }
  static std::size_t live(const Engine& e) { return e.live_; }
};

}  // namespace coop::sim

namespace coop::ccm {

struct CcmClusterTestPeer {
  static auto& store(CcmCluster& c, std::size_t n) {
    return c.shards_[n]->store;
  }
};

}  // namespace coop::ccm

namespace coop::cache {
namespace {

using audit_ns = coop::audit::Recorder;

constexpr std::uint32_t kBlock = 8 * 1024;

CoopCacheConfig cc_config(std::size_t nodes, std::uint64_t blocks_per_node,
                          DirectoryMode dir = DirectoryMode::kPerfect) {
  CoopCacheConfig c;
  c.nodes = nodes;
  c.capacity_bytes = blocks_per_node * kBlock;
  c.block_bytes = kBlock;
  c.directory = dir;
  return c;
}

// ------------------------------------------------------ handler plumbing ---

TEST(AuditRuntime, RecorderCollectsAndRestores) {
  {
    coop::audit::Recorder rec;
    coop::audit::report("test-invariant", "detail");
    ASSERT_EQ(rec.count(), 1u);
    EXPECT_TRUE(rec.saw("test-invariant"));
    EXPECT_FALSE(rec.saw("other"));
    EXPECT_EQ(rec.violations()[0].detail, "detail");
    rec.clear();
    EXPECT_EQ(rec.count(), 0u);
  }
  // Nested recorders: inner collects, outer untouched until inner dies.
  coop::audit::Recorder outer;
  {
    coop::audit::Recorder inner;
    coop::audit::report("inner-only", "");
    EXPECT_EQ(inner.count(), 1u);
    EXPECT_EQ(outer.count(), 0u);
  }
  coop::audit::report("outer-now", "");
  EXPECT_TRUE(outer.saw("outer-now"));
}

// --------------------------------------------------- ClusterCache audits ---

TEST(ClusterCacheAudit, HealthyWorkloadAuditsClean) {
  for (const auto dir : {DirectoryMode::kPerfect, DirectoryMode::kHinted}) {
    ClusterCache cc(cc_config(4, 8, dir));
    for (FileId f = 0; f < 12; ++f) {
      cc.access(static_cast<NodeId>(f % 4), f, 3 * kBlock);
    }
    coop::audit::Recorder rec;
    EXPECT_EQ(cc.audit("healthy"), 0u);
    EXPECT_EQ(rec.count(), 0u);
    EXPECT_TRUE(cc.check_invariants());
  }
}

TEST(ClusterCacheAudit, DuplicateMasterTrips) {
  ClusterCache cc(cc_config(2, 8));
  cc.access(0, 1, kBlock);  // node 0 becomes master holder of {1, 0}
  ASSERT_TRUE(cc.node(0).is_master(BlockId{1, 0}));
  // A second master copy of the same block appears at node 1 — the protocol
  // must never allow this (at most one master per block cluster-wide).
  ClusterCacheTestPeer::node(cc, 1).insert_master(BlockId{1, 0}, /*age=*/99);
  coop::audit::Recorder rec;
  EXPECT_GT(cc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("cache-master-registered"));  // node 1 not registered
  EXPECT_TRUE(rec.saw("cache-single-master"));      // 2 masters, 1 entry
  EXPECT_FALSE(cc.check_invariants());
}

TEST(ClusterCacheAudit, DanglingDirectoryEntryTrips) {
  ClusterCache cc(cc_config(2, 8));
  cc.access(0, 1, kBlock);
  // Directory claims a master that no node caches.
  ASSERT_TRUE(ClusterCacheTestPeer::directory(cc).try_claim(BlockId{7, 3}, 1));
  coop::audit::Recorder rec;
  EXPECT_EQ(cc.audit("corrupt"), 1u);
  EXPECT_TRUE(rec.saw("cache-single-master"));
  EXPECT_FALSE(rec.saw("cache-master-registered"));
}

TEST(ClusterCacheAudit, OverOccupancyTrips) {
  ClusterCache cc(cc_config(2, 2));
  cc.access(0, 1, kBlock);
  cc.access(0, 2, kBlock);  // node 0 now full (2 of 2 blocks)
  // Two more copies leak in without eviction — an accounting overflow.
  ClusterCacheTestPeer::node(cc, 0).insert_copy(BlockId{8, 0}, /*age=*/50);
  ClusterCacheTestPeer::node(cc, 0).insert_copy(BlockId{9, 0}, /*age=*/51);
  coop::audit::Recorder rec;
  EXPECT_GT(cc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("cache-occupancy"));
}

TEST(ClusterCacheAudit, SlotAccountingDriftTrips) {
  ClusterCache cc(cc_config(2, 8));
  cc.access(0, 1, 2 * kBlock);
  // The used-slot book loses a slot that an entry still covers — the books
  // no longer match the entries.
  NodeCache& cache =
      proto::NodeStateTestPeer::cache(ClusterCacheTestPeer::node(cc, 0));
  ASSERT_EQ(cache.used_blocks(), 2u);
  NodeCacheTestPeer::used_slots(cache) -= 1;
  coop::audit::Recorder rec;
  EXPECT_GT(cc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("cache-slot-accounting"));
}

TEST(ClusterCacheAudit, HintTruthDivergenceTrips) {
  ClusterCache cc(cc_config(2, 8, DirectoryMode::kHinted));
  cc.access(0, 1, kBlock);
  ASSERT_TRUE(cc.node(0).is_master(BlockId{1, 0}));
  // The hint layer's authoritative record drifts to the wrong (valid) node.
  HintedDirectoryTestPeer::truth(
      proto::DirectoryServiceTestPeer::hints(
          ClusterCacheTestPeer::directory(cc)))[BlockId{1, 0}]
      .node = 1;
  coop::audit::Recorder rec;
  EXPECT_GT(cc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("cache-hint-truth"));
  EXPECT_FALSE(rec.saw("dir-truth-node-valid"));  // node 1 is a valid node
}

// ------------------------------------------------- HintedDirectory audits ---

TEST(HintedDirectoryAudit, InvalidTruthNodeTrips) {
  HintedDirectory dir(2);
  dir.set_master(BlockId{1, 0}, 0, 0);
  HintedDirectoryTestPeer::truth(dir)[BlockId{1, 0}].node = kInvalidNode;
  coop::audit::Recorder rec;
  EXPECT_GT(dir.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("dir-truth-node-valid"));
}

TEST(HintedDirectoryAudit, BroadcastBookkeepingTrips) {
  HintedDirectory dir(2);
  dir.set_master(BlockId{1, 0}, 0, 0);
  // Broadcast record for a block with no authoritative entry...
  HintedDirectoryTestPeer::last_broadcast(dir)[BlockId{9, 9}] = 1;
  // ...and a broadcast version from the future for a live one.
  HintedDirectoryTestPeer::last_broadcast(dir)[BlockId{1, 0}] = 1000;
  coop::audit::Recorder rec;
  EXPECT_EQ(dir.audit("corrupt"), 2u);
  EXPECT_TRUE(rec.saw("dir-broadcast-live"));
  EXPECT_TRUE(rec.saw("dir-broadcast-version"));
}

// ------------------------------------------------- WholeFileCache audits ---

WholeFileCacheConfig wfc_config(std::size_t nodes, std::uint64_t blocks) {
  WholeFileCacheConfig c;
  c.nodes = nodes;
  c.capacity_bytes = blocks * kBlock;
  c.block_bytes = kBlock;
  return c;
}

TEST(WholeFileCacheAudit, HealthyStateAuditsClean) {
  WholeFileCache wc(wfc_config(2, 8));
  wc.insert(0, 1, 2 * kBlock);
  wc.insert(1, 1, 2 * kBlock);
  wc.insert(0, 2, kBlock);
  coop::audit::Recorder rec;
  EXPECT_EQ(wc.audit("healthy"), 0u);
  EXPECT_EQ(rec.count(), 0u);
}

TEST(WholeFileCacheAudit, UsedBlocksDriftTrips) {
  WholeFileCache wc(wfc_config(2, 8));
  wc.insert(0, 1, 2 * kBlock);
  WholeFileCacheTestPeer::node_state(wc, 0).used_blocks += 5;
  coop::audit::Recorder rec;
  EXPECT_GT(wc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("wfc-used-blocks"));
}

TEST(WholeFileCacheAudit, IndexLruMismatchTrips) {
  WholeFileCache wc(wfc_config(2, 8));
  wc.insert(0, 1, kBlock);
  WholeFileCacheTestPeer::node_state(wc, 0).index.clear();
  coop::audit::Recorder rec;
  EXPECT_GT(wc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("wfc-index-lru"));
}

TEST(WholeFileCacheAudit, OccupancyOverflowTrips) {
  WholeFileCache wc(wfc_config(2, 4));
  wc.insert(0, 1, kBlock);
  wc.insert(0, 2, kBlock);
  // Forge the books: claim far more used blocks than the capacity with
  // multiple entries resident (the lone-oversized-file exemption must not
  // apply).
  auto& ns = WholeFileCacheTestPeer::node_state(wc, 0);
  ns.lru.front().blocks += 10;
  ns.used_blocks += 10;
  coop::audit::Recorder rec;
  EXPECT_GT(wc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("wfc-occupancy"));
  EXPECT_FALSE(rec.saw("wfc-used-blocks"));  // books agree with entries
}

TEST(WholeFileCacheAudit, CopyCountDriftTrips) {
  WholeFileCache wc(wfc_config(2, 8));
  wc.insert(0, 1, kBlock);
  WholeFileCacheTestPeer::copy_counts(wc)[1] = 3;
  coop::audit::Recorder rec;
  EXPECT_GT(wc.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("wfc-copy-counts"));
}

}  // namespace
}  // namespace coop::cache

namespace coop::sim {
namespace {

TEST(EngineAudit, HealthyQueueAuditsClean) {
  Engine e;
  e.schedule_in(1.0, [] {});
  e.schedule_in(2.0, [] {});
  coop::audit::Recorder rec;
  EXPECT_EQ(e.audit_state(), 0u);
  e.run();
  EXPECT_EQ(e.audit_state(), 0u);
  EXPECT_EQ(rec.count(), 0u);
}

TEST(EngineAudit, TimeTravelTrips) {
  Engine e;
  e.schedule_at(5.0, [] {});
  EngineTestPeer::set_now(e, 10.0);  // clock jumped past a pending event
  coop::audit::Recorder rec;
  EXPECT_EQ(e.audit_state(), 1u);
  EXPECT_TRUE(rec.saw("engine-monotonic-time"));
  EngineTestPeer::set_now(e, 0.0);  // restore: event is in the future again
  EXPECT_EQ(e.audit_state(), 0u);
}

TEST(EngineAudit, LiveCountLeakTrips) {
  Engine e;
  e.schedule_in(1.0, [] {});
  const std::size_t real_live = EngineTestPeer::live(e);
  EngineTestPeer::set_live(e, real_live + 7);
  coop::audit::Recorder rec;
  EXPECT_EQ(e.audit_state(), 1u);
  EXPECT_TRUE(rec.saw("engine-live-count"));
  EngineTestPeer::set_live(e, real_live);  // restore before the dtor runs
  EXPECT_EQ(e.audit_state(), 0u);
}

}  // namespace
}  // namespace coop::sim

namespace coop::ccm {
namespace {

constexpr std::uint32_t kBlock = 8 * 1024;

CcmConfig ccm_config(std::size_t nodes, std::uint64_t blocks_per_node) {
  CcmConfig c;
  c.nodes = nodes;
  c.capacity_bytes = blocks_per_node * kBlock;
  c.block_bytes = kBlock;
  c.workers_per_node = 1;
  return c;
}

std::shared_ptr<MemStorage> tiny_storage() {
  return std::make_shared<MemStorage>(
      std::vector<std::uint32_t>{3 * kBlock, 2 * kBlock, kBlock});
}

TEST(CcmClusterAudit, HealthyClusterAuditsClean) {
  CcmCluster cluster(ccm_config(2, 16), tiny_storage());
  (void)cluster.read(0, 0);
  (void)cluster.read(1, 1);
  coop::audit::Recorder rec;
  EXPECT_EQ(cluster.audit("healthy"), 0u);
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(CcmClusterAudit, MissingStoreEntryTrips) {
  CcmCluster cluster(ccm_config(2, 16), tiny_storage());
  (void)cluster.read(0, 0);
  // Drop one cached block's bytes while the policy still lists it.
  auto& store = CcmClusterTestPeer::store(cluster, 0);
  ASSERT_FALSE(store.empty());
  store.erase(store.begin()->block);  // ccm-lint: allow(unordered-iter)
  coop::audit::Recorder rec;
  EXPECT_GT(cluster.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("ccm-store-policy-size"));
}

TEST(CcmClusterAudit, OrphanedBytesTrip) {
  CcmCluster cluster(ccm_config(2, 16), tiny_storage());
  (void)cluster.read(0, 0);
  // Bytes appear for a block the policy has never heard of.
  auto& store = CcmClusterTestPeer::store(cluster, 0);
  const auto ghost = cache::BlockId{2, 0};
  store[ghost] = store.begin()->value;  // ccm-lint: allow(unordered-iter)
  coop::audit::Recorder rec;
  EXPECT_GT(cluster.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("ccm-store-orphan"));
}

TEST(CcmClusterAudit, NullBlockPointerTrips) {
  CcmCluster cluster(ccm_config(2, 16), tiny_storage());
  (void)cluster.read(0, 0);
  auto& store = CcmClusterTestPeer::store(cluster, 0);
  ASSERT_FALSE(store.empty());
  *store.find(store.begin()->block) = nullptr;  // ccm-lint: allow(unordered-iter)
  coop::audit::Recorder rec;
  EXPECT_GT(cluster.audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("ccm-store-null"));
}

// In audited builds (-DCOOPCACHE_AUDIT=ON) every protocol event re-audits
// the shard it ran on; a corrupt shard is then caught by the very next event
// touching that shard without anyone calling audit() explicitly.
TEST(CcmClusterAudit, AutoHooksCatchCorruptionOnNextEvent) {
  if (!coop::audit::hooks_compiled_in()) {
    GTEST_SKIP() << "CCM_AUDIT hooks not compiled in this build";
  }
  CcmCluster cluster(ccm_config(2, 16), tiny_storage());
  (void)cluster.read(0, 0);
  auto& store = CcmClusterTestPeer::store(cluster, 0);
  ASSERT_FALSE(store.empty());
  *store.find(store.begin()->block) = nullptr;  // ccm-lint: allow(unordered-iter)
  coop::audit::Recorder rec;
  (void)cluster.read(0, 1);  // unrelated event on the same shard
  EXPECT_TRUE(rec.saw("ccm-store-null"));
}

}  // namespace
}  // namespace coop::ccm

namespace coop::server {

struct L2sServerTestPeer {
  static std::uint64_t& serves(L2sServer& s) { return s.serves_; }
  static std::uint64_t& handoffs(L2sServer& s) { return s.handoffs_; }
  static std::uint64_t& requests(L2sServer& s) { return s.requests_; }
};

namespace {

struct L2sAuditFixture {
  sim::Engine engine;
  hw::ModelParams params;
  hw::Network network{engine, params};
  std::vector<std::unique_ptr<hw::Node>> nodes;
  trace::FileSet files{{16 * 1024, 16 * 1024, 16 * 1024}};
  std::unique_ptr<L2sServer> server;

  explicit L2sAuditFixture(std::size_t n = 4) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<hw::Node>(
          engine, params, hw::DiskSched::kSeekAware,
          static_cast<std::uint16_t>(i)));
    }
    L2sConfig config;
    config.cache.nodes = n;
    config.cache.capacity_bytes = 8ull << 20;
    server = std::make_unique<L2sServer>(engine, network, nodes, files,
                                         config, params);
  }

  void request(NodeId node, trace::FileId file) {
    bool done = false;
    server->handle(node, file, [&] { done = true; });
    engine.run();
    ASSERT_TRUE(done);
  }
};

TEST(L2sServerAudit, HealthyWorkloadAuditsClean) {
  L2sAuditFixture f;
  f.request(0, 0);
  f.request(1, 0);  // hand-off to the holder
  f.request(2, 1);
  coop::audit::Recorder rec;
  EXPECT_EQ(f.server->audit("healthy"), 0u);
  EXPECT_EQ(rec.count(), 0u);
}

TEST(L2sServerAudit, ServeAccountingDriftTrips) {
  L2sAuditFixture f;
  f.request(0, 0);
  f.request(2, 1);
  // Forge the books: a serve that never recorded its hit-or-miss outcome.
  L2sServerTestPeer::serves(*f.server) += 1;
  coop::audit::Recorder rec;
  EXPECT_GT(f.server->audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("l2s-serve-accounting"));
}

TEST(L2sServerAudit, HandoffAccountingDriftTrips) {
  L2sAuditFixture f;
  f.request(0, 0);
  // More hand-offs than requests is impossible (at most one per request).
  L2sServerTestPeer::handoffs(*f.server) =
      L2sServerTestPeer::requests(*f.server) + 1;
  coop::audit::Recorder rec;
  EXPECT_GT(f.server->audit("corrupt"), 0u);
  EXPECT_TRUE(rec.saw("l2s-handoff-accounting"));
}

// In audited builds every L2S request re-audits automatically; corrupted
// accounting is caught by the next handle() without an explicit audit call.
TEST(L2sServerAudit, AutoHooksCatchCorruptionOnNextRequest) {
  if (!coop::audit::hooks_compiled_in()) {
    GTEST_SKIP() << "CCM_AUDIT hooks not compiled in this build";
  }
  L2sAuditFixture f;
  f.request(0, 0);
  L2sServerTestPeer::serves(*f.server) += 1;
  coop::audit::Recorder rec;
  f.request(1, 1);
  EXPECT_TRUE(rec.saw("l2s-serve-accounting"));
}

}  // namespace
}  // namespace coop::server
