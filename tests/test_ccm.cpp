// Tests for the threaded middleware runtime: byte-exact reads, policy/store
// consistency, concurrency stress, caller-thread execution and its
// per-node admission bound, and the storage backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <cstring>
#include <mutex>
#include <thread>
#include <tuple>

#include "cache/coop_cache.hpp"
#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "net/fault.hpp"
#include "sim/random.hpp"

namespace coop::ccm {
namespace {

constexpr std::uint32_t kBlock = 8 * 1024;

std::vector<std::uint32_t> make_sizes(std::size_t n, std::uint64_t seed = 11) {
  sim::Rng rng(seed);
  std::vector<std::uint32_t> sizes(n);
  for (auto& s : sizes) {
    s = static_cast<std::uint32_t>(512 + rng.uniform_int(4 * kBlock));
  }
  return sizes;
}

CcmConfig small_config(std::size_t nodes, std::uint64_t blocks_per_node) {
  CcmConfig c;
  c.nodes = nodes;
  c.capacity_bytes = blocks_per_node * kBlock;
  c.block_bytes = kBlock;
  return c;
}

bool matches_storage(const std::vector<std::byte>& got, cache::FileId file,
                     std::uint64_t offset = 0) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != MemStorage::content_at(file, offset + i)) return false;
  }
  return true;
}

// -------------------------------------------------------------- Storage ---

TEST(MemStorage, DeterministicContent) {
  const MemStorage s({1000, 2000});
  EXPECT_EQ(s.file_count(), 2u);
  EXPECT_EQ(s.file_size(1), 2000u);
  std::vector<std::byte> a(100), b(100);
  s.read(1, 50, a);
  s.read(1, 50, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], MemStorage::content_at(1, 50));
}

TEST(MemStorage, DifferentFilesDiffer) {
  const MemStorage s({1000, 1000});
  std::vector<std::byte> a(64), b(64);
  s.read(0, 0, a);
  s.read(1, 0, b);
  EXPECT_NE(a, b);
}

TEST(FileStorage, ServesRealFiles) {
  namespace fs = std::filesystem;
  const auto dir = fs::path(testing::TempDir()) / "coop_fs_test";
  fs::create_directories(dir / "sub");
  {
    std::ofstream(dir / "a.txt") << "hello world";
    std::ofstream(dir / "sub" / "b.txt") << "cooperative caching";
  }
  const FileStorage s(dir.string());
  ASSERT_EQ(s.file_count(), 2u);
  // Sorted order: a.txt before sub/b.txt.
  EXPECT_EQ(s.file_size(0), 11u);
  std::vector<std::byte> buf(5);
  s.read(0, 6, buf);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(buf.data()), 5),
            "world");
  fs::remove_all(dir);
}

TEST(FileStorage, RejectsMissingDirectory) {
  EXPECT_THROW(FileStorage("/nonexistent/nowhere"), std::runtime_error);
}

// -------------------------------------------------------------- Cluster ---

TEST(CcmCluster, ReadsAreByteExact) {
  auto storage = std::make_shared<MemStorage>(make_sizes(20));
  CcmCluster cluster(small_config(4, 64), storage);
  for (cache::FileId f = 0; f < 20; ++f) {
    const auto data = cluster.read(static_cast<cache::NodeId>(f % 4), f);
    EXPECT_EQ(data.size(), storage->file_size(f));
    EXPECT_TRUE(matches_storage(data, f)) << "file " << f;
  }
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(CcmCluster, RemoteHitsReturnSameBytes) {
  auto storage = std::make_shared<MemStorage>(make_sizes(5));
  CcmCluster cluster(small_config(4, 64), storage);
  const auto first = cluster.read(0, 3);
  const auto second = cluster.read(2, 3);  // remote hit from node 0
  EXPECT_EQ(first, second);
  const auto s = cluster.stats();
  EXPECT_GT(s.remote_hits, 0u);
}

TEST(CcmCluster, RangeReads) {
  auto storage = std::make_shared<MemStorage>(
      std::vector<std::uint32_t>{3 * kBlock + 100});
  CcmCluster cluster(small_config(2, 16), storage);
  // Span a block boundary.
  const auto range = cluster.read_range(0, 0, kBlock - 10, 50);
  EXPECT_EQ(range.size(), 50u);
  EXPECT_TRUE(matches_storage(range, 0, kBlock - 10));
  // Zero-length read.
  EXPECT_TRUE(cluster.read_range(0, 0, 0, 0).empty());
  // Tail of the file.
  const auto tail = cluster.read_range(1, 0, 3 * kBlock, 100);
  EXPECT_TRUE(matches_storage(tail, 0, 3 * kBlock));
}

TEST(CcmCluster, RejectsBadArguments) {
  auto storage = std::make_shared<MemStorage>(make_sizes(3));
  CcmCluster cluster(small_config(2, 16), storage);
  EXPECT_THROW(cluster.read(5, 0), std::out_of_range);
  EXPECT_THROW(cluster.read(0, 99), std::out_of_range);
  EXPECT_THROW(cluster.read_range(0, 0, storage->file_size(0), 1),
               std::out_of_range);
  EXPECT_THROW(CcmCluster(small_config(0, 16), storage),
               std::invalid_argument);
  EXPECT_THROW(CcmCluster(small_config(2, 16), nullptr),
               std::invalid_argument);
}

TEST(CcmCluster, EvictionKeepsDataConsistent) {
  // Capacity far below the file set: constant eviction + forwarding churn.
  auto storage = std::make_shared<MemStorage>(make_sizes(100, /*seed=*/3));
  CcmCluster cluster(small_config(3, 8), storage);
  sim::Rng rng(17);
  const sim::ZipfSampler zipf(100, 0.8);
  for (int i = 0; i < 2000; ++i) {
    const auto f = static_cast<cache::FileId>(zipf.sample(rng));
    const auto via = static_cast<cache::NodeId>(rng.uniform_int(3));
    const auto data = cluster.read(via, f);
    ASSERT_TRUE(matches_storage(data, f)) << "iteration " << i;
    if (i % 250 == 0) {
      ASSERT_TRUE(cluster.check_consistency()) << i;
    }
  }
  EXPECT_TRUE(cluster.check_consistency());
  const auto s = cluster.stats();
  EXPECT_GT(s.master_drops + s.copy_drops, 0u);
}

class CcmPolicyParam
    : public testing::TestWithParam<std::tuple<cache::Policy, std::size_t>> {};

TEST_P(CcmPolicyParam, ConcurrentStressIsByteExactAndConsistent) {
  const auto [policy, nodes] = GetParam();
  auto storage = std::make_shared<MemStorage>(make_sizes(60, /*seed=*/5));
  CcmConfig cfg = small_config(nodes, 16);
  cfg.policy = policy;
  cfg.workers_per_node = 3;
  CcmCluster cluster(cfg, storage);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      sim::Rng rng(100 + c);
      const sim::ZipfSampler zipf(60, 0.9);
      for (int i = 0; i < 300; ++i) {
        const auto f = static_cast<cache::FileId>(zipf.sample(rng));
        const auto via = static_cast<cache::NodeId>(rng.uniform_int(nodes));
        const auto data = cluster.read(via, f);
        if (data.size() != storage->file_size(f) ||
            !matches_storage(data, f)) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(cluster.check_consistency());
  const auto s = cluster.stats();
  EXPECT_EQ(s.block_accesses(), s.local_hits + s.remote_hits + s.disk_reads);
}

INSTANTIATE_TEST_SUITE_P(
    Stress, CcmPolicyParam,
    testing::Combine(testing::Values(cache::Policy::kBasic,
                                     cache::Policy::kNeverEvictMaster),
                     testing::Values(std::size_t{1}, std::size_t{2},
                                     std::size_t{4})));

TEST(CcmCluster, RandomRangeReadsAreByteExact) {
  auto storage = std::make_shared<MemStorage>(
      std::vector<std::uint32_t>{5 * kBlock + 123, 3 * kBlock, 700});
  CcmCluster cluster(small_config(3, 8), storage);
  sim::Rng rng(0x7A46E);
  for (int i = 0; i < 400; ++i) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(3));
    const std::uint64_t size = storage->file_size(f);
    const std::uint64_t off = rng.uniform_int(size);
    const std::uint64_t len = rng.uniform_int(size - off + 1);
    const auto via = static_cast<cache::NodeId>(rng.uniform_int(3));
    const auto got = cluster.read_range(via, f, off, len);
    ASSERT_EQ(got.size(), len);
    ASSERT_TRUE(matches_storage(got, f, off)) << "iter " << i;
  }
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(CcmCluster, AsyncReadsResolve) {
  auto storage = std::make_shared<MemStorage>(make_sizes(10));
  CcmCluster cluster(small_config(2, 32), storage);
  std::vector<std::future<std::vector<std::byte>>> futures;
  for (cache::FileId f = 0; f < 10; ++f) {
    futures.push_back(cluster.read_async(static_cast<cache::NodeId>(f % 2), f));
  }
  for (cache::FileId f = 0; f < 10; ++f) {
    const auto data = futures[f].get();
    EXPECT_TRUE(matches_storage(data, f));
  }
}

TEST(CcmCluster, StatsAndReset) {
  auto storage = std::make_shared<MemStorage>(make_sizes(5));
  CcmCluster cluster(small_config(2, 32), storage);
  cluster.read(0, 0);
  EXPECT_GT(cluster.stats().disk_reads, 0u);
  cluster.reset_stats();
  EXPECT_EQ(cluster.stats().disk_reads, 0u);
  cluster.read(1, 0);  // remote hit now
  EXPECT_GT(cluster.stats().remote_hits, 0u);
  EXPECT_GT(cluster.cached_bytes(0), 0u);
}

TEST(CcmCluster, ResetStatsRestartsTransportCounters) {
  // Seeding writes send invalidate-block RPCs; reset_stats() must forget
  // them like every other stats() field.
  const std::vector<std::uint32_t> sizes(6, 2 * kBlock);
  auto storage = std::make_shared<BufferStorage>(sizes);
  CcmCluster cluster(small_config(3, 16), storage);
  for (cache::FileId f = 0; f < sizes.size(); ++f) {
    cluster.write(static_cast<cache::NodeId>(f % 3), f, 0,
                  std::vector<std::byte>(sizes[f], std::byte{0x5A}));
  }
  ASSERT_GT(cluster.stats().transport.rpcs, 0u);
  cluster.reset_stats();
  EXPECT_EQ(cluster.stats().transport.rpcs, 0u);

  for (cache::FileId f = 0; f < sizes.size(); ++f) {
    cluster.read(static_cast<cache::NodeId>((f + 1) % 3), f);
  }
  std::uint64_t calls = 0;
  for (const auto& k : cluster.metrics().snapshot().rpc) calls += k.calls;
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(cluster.stats().transport.rpcs, calls);
}

TEST(CcmCluster, HintedDirectoryModeWorks) {
  auto storage = std::make_shared<MemStorage>(make_sizes(30, /*seed=*/7));
  CcmConfig cfg = small_config(3, 16);
  cfg.directory = cache::DirectoryMode::kHinted;
  CcmCluster cluster(cfg, storage);
  sim::Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(30));
    const auto via = static_cast<cache::NodeId>(rng.uniform_int(3));
    ASSERT_TRUE(matches_storage(cluster.read(via, f), f)) << i;
  }
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(CcmCluster, PolicyParityWithBareClusterCache) {
  // Cross-layer validation: a sequential workload must drive the middleware
  // through exactly the policy transitions the simulator's serial driver
  // performs, in every directory mode and policy — the simulator-validated
  // behaviors carry over to the runtime verbatim. The serial driver walks a
  // file block by block, so the runtime reads each file with one read_range
  // per block: the one read path (acquire_run) then runs over one-block
  // runs, which keeps its LRU trace step-identical to the simulator's.
  const auto sizes = make_sizes(40, /*seed=*/21);
  for (const auto dir :
       {cache::DirectoryMode::kPerfect, cache::DirectoryMode::kHinted}) {
    for (const auto policy :
         {cache::Policy::kBasic, cache::Policy::kNeverEvictMaster}) {
      const bool hinted = dir == cache::DirectoryMode::kHinted;
      SCOPED_TRACE(std::string(hinted ? "hinted" : "perfect") + " / " +
                   (policy == cache::Policy::kBasic ? "CC-Basic" : "CC-NEM"));
      CcmConfig mc = small_config(3, 16);
      mc.policy = policy;
      mc.directory = dir;
      mc.workers_per_node = 1;
      CcmCluster cluster(mc, std::make_shared<MemStorage>(sizes));

      cache::CoopCacheConfig cc;
      cc.nodes = 3;
      cc.capacity_bytes = 16 * kBlock;
      cc.block_bytes = kBlock;
      cc.policy = policy;
      cc.directory = dir;
      cache::ClusterCache bare(cc);

      sim::Rng rng(33);
      const sim::ZipfSampler zipf(40, 0.8);
      for (int i = 0; i < 1500; ++i) {
        const auto f = static_cast<cache::FileId>(zipf.sample(rng));
        const auto via = static_cast<cache::NodeId>(rng.uniform_int(3));
        for (std::uint64_t at = 0; at < sizes[f]; at += kBlock) {
          cluster.read_range(via, f, at,
                             std::min<std::uint64_t>(kBlock, sizes[f] - at));
        }
        bare.access(via, f, sizes[f]);
      }
      const auto a = cluster.stats();
      const auto b = bare.stats();
      EXPECT_EQ(a.local_hits, b.local_hits);
      EXPECT_EQ(a.remote_hits, b.remote_hits);
      EXPECT_EQ(a.disk_reads, b.disk_reads);
      EXPECT_EQ(a.forwards_attempted, b.forwards_attempted);
      EXPECT_EQ(a.forwards_accepted, b.forwards_accepted);
      EXPECT_EQ(a.master_drops, b.master_drops);
      EXPECT_EQ(a.copy_drops, b.copy_drops);
      EXPECT_EQ(a.directory.hint_misdirects, b.hint_misdirects);
      if (hinted) {
        EXPECT_GT(b.hint_misdirects, 0u);
      }
      for (cache::NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(cluster.cached_bytes(n), bare.node(n).used_blocks() * kBlock);
      }
    }
  }
}

// ------------------------------------------------------ liveness floor ---

/// A directory no read can settle against: every lookup answers "no master"
/// and every claim is denied, so each block spends the whole attempt budget
/// and is served by the uncached read. Everything else reaches a real
/// LocalDirectory.
class RefusingDirectory final : public DirectoryClient {
 public:
  explicit RefusingDirectory(std::size_t nodes)
      : inner_(nodes, cache::DirectoryMode::kPerfect,
               cache::CoopCacheConfig{}.hint_staleness) {}

  proto::DirectoryService::Ops ops() override { return inner_.ops(); }
  void reset_ops() override { inner_.reset_ops(); }
  double hint_accuracy() override { return inner_.hint_accuracy(); }
  cache::NodeId hint_truth(const cache::BlockId& b) override {
    return inner_.hint_truth(b);
  }
  std::size_t master_count() override { return inner_.master_count(); }
  std::size_t audit(const char* context) override {
    return inner_.audit(context);
  }
  proto::DirectoryService* service() override { return inner_.service(); }

 protected:
  proto::DirectoryService::ReadLookup lookup_for_read_impl(
      cache::NodeId, const cache::BlockId&) override {
    return {};
  }
  cache::NodeId lookup_impl(const cache::BlockId& b) override {
    return inner_.lookup(b);
  }
  bool try_claim_impl(const cache::BlockId&, cache::NodeId) override {
    return false;
  }
  std::optional<std::uint64_t> begin_forward_impl(const cache::BlockId& b,
                                                  cache::NodeId from) override {
    return inner_.begin_forward(b, from);
  }
  bool claim_forwarded_impl(const cache::BlockId& b, cache::NodeId to,
                            cache::NodeId from, std::uint64_t epoch) override {
    return inner_.claim_forwarded(b, to, from, epoch);
  }
  void forward_rejected_impl(const cache::BlockId& b,
                             cache::NodeId from) override {
    inner_.forward_rejected(b, from);
  }
  void master_dropped_impl(const cache::BlockId& b,
                           cache::NodeId node) override {
    inner_.master_dropped(b, node);
  }
  cache::NodeId write_claim_impl(const cache::BlockId& b,
                                 cache::NodeId writer) override {
    return inner_.write_claim(b, writer);
  }
  void invalidate_file_impl(cache::FileId file) override {
    inner_.invalidate_file(file);
  }
  void write_begin_impl(cache::FileId file) override {
    inner_.write_begin(file);
  }
  void write_end_impl(cache::FileId file) override { inner_.write_end(file); }
  bool read_cacheable_impl(cache::FileId file, std::uint64_t epoch) override {
    return inner_.read_cacheable(file, epoch);
  }
  std::size_t purge_node_impl(cache::NodeId node) override {
    return inner_.purge_node(node);
  }
  std::vector<proto::DirBatchResult> batch_impl(
      cache::NodeId node,
      std::span<const proto::DirBatchItem> items) override {
    std::vector<proto::DirBatchResult> out;
    for (const proto::DirBatchItem& it : items) {
      if (it.op == proto::DirBatchOp::kLookupRead ||
          it.op == proto::DirBatchOp::kTryClaim) {
        out.push_back({});  // no master; claim not granted
      } else {
        out.push_back(inner_.batch(node, std::span(&it, 1)).front());
      }
    }
    return out;
  }

 private:
  LocalDirectory inner_;
};

TEST(CcmCluster, UnsettledBlocksFallBackToUncachedReads) {
  const auto sizes = make_sizes(6, /*seed=*/13);
  CcmHosting hosting;
  hosting.directory = std::make_shared<RefusingDirectory>(3);
  CcmCluster cluster(small_config(3, 16), std::make_shared<MemStorage>(sizes),
                     hosting);
  std::uint64_t blocks = 0;
  for (cache::FileId f = 0; f < sizes.size(); ++f) {
    const auto got = cluster.read(static_cast<cache::NodeId>(f % 3), f);
    EXPECT_EQ(got.size(), sizes[f]);
    EXPECT_TRUE(matches_storage(got, f)) << "file " << f;
    blocks += cache::blocks_for(sizes[f], kBlock);
  }
  const auto counters = cluster.metrics().snapshot().counters;
  EXPECT_EQ(
      counters[static_cast<std::size_t>(obs::RtCounter::kUncachedFallback)],
      blocks);
  EXPECT_EQ(cluster.stats().disk_reads, blocks);
  for (cache::NodeId n = 0; n < 3; ++n) EXPECT_EQ(cluster.cached_bytes(n), 0u);
  EXPECT_TRUE(cluster.check_consistency());
}

// ----------------------------------------------------- RemoteDirectory ---

TEST(RemoteDirectory, BatchOfOneAnswersLikeLocalDirectory) {
  for (const auto mode :
       {cache::DirectoryMode::kPerfect, cache::DirectoryMode::kHinted}) {
    SCOPED_TRACE(mode == cache::DirectoryMode::kHinted ? "hinted" : "perfect");
    // Node 0's cluster is the home; node 1 exists only as the remote
    // client's address on the shared in-process transport.
    auto transport = std::make_shared<net::InProcTransport>(2);
    CcmHosting hosting;
    hosting.transport = transport;
    hosting.local_nodes = {0};
    CcmConfig cfg = small_config(2, 16);
    cfg.directory = mode;
    CcmCluster home(cfg, std::make_shared<MemStorage>(make_sizes(2)),
                    hosting);
    RemoteDirectory remote(transport, /*local=*/1, /*home=*/0);
    LocalDirectory local(2, mode, cache::CoopCacheConfig{}.hint_staleness);

    const cache::BlockId b{1, 2};
    const auto same_lookup = [&](cache::NodeId node) {
      const auto r = remote.lookup_for_read(node, b);
      const auto l = local.lookup_for_read(node, b);
      EXPECT_EQ(r.master, l.master);
      EXPECT_EQ(r.misdirected, l.misdirected);
      EXPECT_EQ(r.epoch, l.epoch);
      return l;
    };
    const auto same_cacheable = [&](std::uint64_t epoch) {
      const bool l = local.read_cacheable(b.file, epoch);
      EXPECT_EQ(remote.read_cacheable(b.file, epoch), l) << "epoch " << epoch;
    };

    same_lookup(1);                                  // cold: no master
    EXPECT_EQ(remote.try_claim(b, 1), local.try_claim(b, 1));
    EXPECT_EQ(remote.try_claim(b, 0), local.try_claim(b, 0));  // rival loses
    const auto lk = same_lookup(0);
    EXPECT_EQ(lk.master, 1u);
    same_cacheable(lk.epoch);
    same_cacheable(lk.epoch + 1);
    remote.write_begin(b.file);  // a write in flight blocks caching
    local.write_begin(b.file);
    same_cacheable(lk.epoch);
    remote.write_end(b.file);
    local.write_end(b.file);
    same_cacheable(lk.epoch);
    remote.master_dropped(b, 0);  // conditional: node 0 is not the master
    local.master_dropped(b, 0);
    same_lookup(0);
    remote.master_dropped(b, 1);
    local.master_dropped(b, 1);
    same_lookup(1);
    remote.invalidate_file(b.file);  // epoch fence
    local.invalidate_file(b.file);
    const auto fenced = same_lookup(1);
    same_cacheable(fenced.epoch - 1);
    same_cacheable(fenced.epoch);

    // Each counted call is one single and one trip, batch of one or not.
    const auto calls = remote.calls();
    EXPECT_EQ(calls.batches, 0u);
    EXPECT_EQ(calls.singles, local.calls().singles);
    EXPECT_EQ(calls.trips(), calls.singles);
  }
}

TEST(RemoteDirectory, MalformedBatchReplyThrows) {
  // A home that answers every batch with `reply_of(request items)`.
  const auto throws_on = [](auto reply_of) {
    auto transport = std::make_shared<net::InProcTransport>(2);
    EXPECT_TRUE(transport->serve_direct(0, [&](net::Envelope& env) {
      const auto req = proto::decode_dir_batch_request(env.payload()->bytes);
      const std::size_t n = req ? req->items.size() : 0;
      std::vector<std::byte> payload = reply_of(n);
      net::Envelope out;
      out.msg = proto::Message::dir_batch_reply(
          0, env.msg.from, static_cast<std::uint32_t>(n), payload.size());
      out.payloads.push_back(net::make_ready_block(std::move(payload)));
      return out;
    }));
    RemoteDirectory remote(transport, /*local=*/1, /*home=*/0);
    const std::vector<proto::DirBatchItem> items = {
        {proto::DirBatchOp::kLookupRead, {0, 0}},
        {proto::DirBatchOp::kTryClaim, {0, 1}}};
    EXPECT_THROW(remote.batch(1, items), net::TransportError);
    EXPECT_THROW(remote.lookup_for_read(1, {0, 0}), net::TransportError);
    transport->close();
  };
  // Truncated: the last result loses its flags byte.
  throws_on([](std::size_t n) {
    auto bytes = proto::encode_dir_batch_reply(
        std::vector<proto::DirBatchResult>(n));
    bytes.pop_back();
    return bytes;
  });
  // Well-formed payload, wrong item count.
  throws_on([](std::size_t n) {
    return proto::encode_dir_batch_reply(
        std::vector<proto::DirBatchResult>(n + 1));
  });
}

// ------------------------------------------------------ write protocol ---

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return out;
}

TEST(CcmWrite, WriteThenReadAnywhereSeesNewData) {
  auto storage =
      std::make_shared<BufferStorage>(std::vector<std::uint32_t>{3 * kBlock});
  CcmCluster cluster(small_config(4, 32), storage);
  cluster.read(0, 0);  // cache it at node 0
  cluster.read(1, 0);  // copy at node 1

  const auto data = pattern(2 * kBlock, 9);
  cluster.write(2, 0, kBlock / 2, data);  // spans three blocks, via node 2

  for (cache::NodeId via = 0; via < 4; ++via) {
    const auto got = cluster.read_range(via, 0, kBlock / 2, data.size());
    EXPECT_EQ(got, data) << "via node " << via;
  }
  const auto s = cluster.stats();
  EXPECT_GT(s.writes, 0u);
  EXPECT_GT(s.invalidations + s.ownership_migrations, 0u);
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(CcmWrite, ReadModifyWritePreservesSurroundings) {
  auto storage =
      std::make_shared<BufferStorage>(std::vector<std::uint32_t>{2 * kBlock});
  CcmCluster cluster(small_config(2, 16), storage);
  const auto before = cluster.read(0, 0);

  const auto patch = pattern(100, 3);
  cluster.write(1, 0, kBlock - 50, patch);  // straddles the block boundary

  auto expected = before;
  std::copy(patch.begin(), patch.end(),
            expected.begin() + (kBlock - 50));
  EXPECT_EQ(cluster.read(0, 0), expected);
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(CcmWrite, WriteThroughReachesStorage) {
  auto storage =
      std::make_shared<BufferStorage>(std::vector<std::uint32_t>{kBlock});
  CcmCluster cluster(small_config(2, 16), storage);
  const auto data = pattern(256, 5);
  cluster.write(0, 0, 128, data);
  std::vector<std::byte> raw(256);
  storage->read(0, 128, raw);
  EXPECT_EQ(raw, data);
}

TEST(CcmWrite, ColdWriteNeedsNoStorageRead) {
  auto storage =
      std::make_shared<BufferStorage>(std::vector<std::uint32_t>{kBlock});
  CcmCluster cluster(small_config(2, 16), storage);
  std::vector<std::byte> whole(kBlock);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    whole[i] = static_cast<std::byte>(i & 0xFF);
  }
  cluster.write(0, 0, 0, whole);  // full-block overwrite, nothing cached
  EXPECT_EQ(cluster.stats().disk_reads, 0u);
  EXPECT_EQ(cluster.read(1, 0), whole);
}

TEST(CcmWrite, RejectsReadOnlyStorageAndBadRanges) {
  auto ro = std::make_shared<MemStorage>(make_sizes(2));
  CcmCluster ro_cluster(small_config(2, 16), ro);
  const auto data = pattern(10, 1);
  EXPECT_THROW(ro_cluster.write(0, 0, 0, data), std::logic_error);

  auto rw = std::make_shared<BufferStorage>(std::vector<std::uint32_t>{100});
  CcmCluster rw_cluster(small_config(2, 16), rw);
  EXPECT_THROW(rw_cluster.write(0, 0, 95, data), std::out_of_range);
  EXPECT_THROW(rw_cluster.write(5, 0, 0, data), std::out_of_range);
}

TEST(CcmWrite, ConcurrentDisjointWritersStayConsistent) {
  const std::size_t files = 8;
  std::vector<std::uint32_t> sizes(files, 4 * kBlock);
  auto storage = std::make_shared<BufferStorage>(sizes);
  CcmConfig cfg = small_config(4, 16);
  cfg.workers_per_node = 2;
  CcmCluster cluster(cfg, storage);

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < files; ++w) {
    writers.emplace_back([&, w] {
      const auto file = static_cast<cache::FileId>(w);
      for (int round = 0; round < 20; ++round) {
        const auto data =
            pattern(kBlock, static_cast<std::uint8_t>(w * 16 + round));
        cluster.write(static_cast<cache::NodeId>(w % 4), file,
                      (round % 3) * kBlock, data);
        const auto got = cluster.read_range(
            static_cast<cache::NodeId>((w + 1) % 4), file,
            (round % 3) * kBlock, kBlock);
        ASSERT_EQ(got, data) << "writer " << w << " round " << round;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(CcmStress, MixedReadersWritersInvalidatorsStayConsistent) {
  // The read-only and disjoint-writer stresses above each cover one verb;
  // this one races all three on shared files. Each file has exactly one
  // owner thread (so a file's writes and invalidations never race each
  // other and its owner always knows the true bytes), but every thread
  // reads every file — so reads cross in flight with writes, invalidations,
  // evictions, and master forwards.
  const std::size_t files = 12;
  const std::size_t nodes = 4;
  std::vector<std::uint32_t> sizes(files, 4 * kBlock);
  auto storage = std::make_shared<BufferStorage>(sizes);
  CcmConfig cfg = small_config(nodes, 8);  // 32 cache blocks for 48 on disk
  cfg.workers_per_node = 2;
  CcmCluster cluster(cfg, storage);

  std::vector<std::vector<std::byte>> mirrors(files);
  std::atomic<int> failures{0};
  std::vector<std::thread> owners;
  for (std::size_t t = 0; t < nodes; ++t) {
    owners.emplace_back([&, t] {
      sim::Rng rng(40 + t);
      // Seed this thread's files (and their owner-side mirrors).
      for (cache::FileId f = static_cast<cache::FileId>(t); f < files;
           f += nodes) {
        auto full = pattern(4 * kBlock, static_cast<std::uint8_t>(0xA0 + f));
        cluster.write(static_cast<cache::NodeId>(t), f, 0, full);
        mirrors[f] = std::move(full);
      }
      for (int i = 0; i < 250; ++i) {
        const auto f = static_cast<cache::FileId>(
            t + nodes * rng.uniform_int(files / nodes));
        const auto via = static_cast<cache::NodeId>(rng.uniform_int(nodes));
        switch (rng.uniform_int(8)) {
          case 0:
          case 1:
          case 2: {  // verified read of an owned file
            if (cluster.read(via, f) != mirrors[f]) ++failures;
            break;
          }
          case 3:
          case 4: {  // write-through, mirrored locally
            const std::uint64_t off =
                rng.uniform_int(3) * kBlock + rng.uniform_int(kBlock / 2);
            const auto data =
                pattern(kBlock, static_cast<std::uint8_t>(f * 8 + i));
            cluster.write(via, f, off, data);
            std::copy(data.begin(), data.end(),
                      mirrors[f].begin() + static_cast<std::ptrdiff_t>(off));
            break;
          }
          case 5:  // drop every cached copy; storage still holds the truth
            cluster.invalidate(f);
            break;
          default: {  // unverified read of somebody else's file (it may be
                      // mid-write: only the size is guaranteed)
            const auto other =
                static_cast<cache::FileId>(rng.uniform_int(files));
            const auto got = cluster.read_range(via, other, kBlock, kBlock);
            if (got.size() != kBlock) ++failures;
            break;
          }
        }
      }
    });
  }
  for (auto& t : owners) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(cluster.check_consistency());
  // Every file's final bytes are exactly its owner's last writes.
  for (cache::FileId f = 0; f < files; ++f) {
    EXPECT_EQ(cluster.read(static_cast<cache::NodeId>(f % nodes), f),
              mirrors[f])
        << "file " << f;
  }
  const auto s = cluster.stats();
  EXPECT_GT(s.writes, 0u);
  EXPECT_GT(s.invalidations, 0u);
}

TEST(CcmCluster, InvalidateDropsEveryCopy) {
  auto storage =
      std::make_shared<BufferStorage>(std::vector<std::uint32_t>{2 * kBlock});
  CcmCluster cluster(small_config(3, 16), storage);
  cluster.read(0, 0);
  cluster.read(1, 0);
  cluster.read(2, 0);
  EXPECT_GT(cluster.cached_bytes(0) + cluster.cached_bytes(1) +
                cluster.cached_bytes(2),
            0u);
  cluster.invalidate(0);
  for (cache::NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.cached_bytes(n), 0u) << "node " << n;
  }
  EXPECT_TRUE(cluster.check_consistency());

  // Out-of-band content change becomes visible after invalidation.
  std::vector<std::byte> fresh(64, std::byte{0x5A});
  storage->write(0, 0, fresh);
  const auto got = cluster.read_range(0, 0, 0, 64);
  EXPECT_EQ(got, fresh);
  EXPECT_THROW(cluster.invalidate(99), std::out_of_range);
}

TEST(CcmCluster, WorksOnRealFiles) {
  namespace fs = std::filesystem;
  const auto dir = fs::path(testing::TempDir()) / "coop_ccm_files";
  fs::create_directories(dir);
  std::string big(20000, 'x');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  {
    std::ofstream(dir / "one.bin") << big;
    std::ofstream(dir / "two.bin") << "tiny";
  }
  auto storage = std::make_shared<FileStorage>(dir.string());
  CcmCluster cluster(small_config(2, 16), storage);
  const auto data = cluster.read(0, 0);
  ASSERT_EQ(data.size(), big.size());
  EXPECT_EQ(std::memcmp(data.data(), big.data(), big.size()), 0);
  const auto tiny = cluster.read(1, 1);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(tiny.data()),
                        tiny.size()),
            "tiny");
  fs::remove_all(dir);
}

// ------------------------------------------- direct vs queued delivery ---

struct SingleDriverRun {
  std::vector<std::byte> storage;
  cache::CacheStats totals;
  bool consistent = false;
};

/// One driver's seeded read/write/invalidate stream on a 4-node cluster
/// small enough to evict, over `transport` (null: the default in-process
/// transport). A single driver issues one op at a time, so every policy
/// decision is a pure function of the stream.
SingleDriverRun run_single_driver(std::shared_ptr<net::Transport> transport) {
  constexpr std::size_t kFiles = 24;
  constexpr std::uint32_t kFileBlocks = 3;
  auto storage = std::make_shared<BufferStorage>(
      std::vector<std::uint32_t>(kFiles, kFileBlocks * kBlock));
  CcmHosting hosting;
  hosting.transport = std::move(transport);
  CcmCluster cluster(small_config(4, 8), storage, hosting);
  sim::Rng rng(2024);
  for (int i = 0; i < 600; ++i) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(kFiles));
    const auto via = static_cast<cache::NodeId>(rng.uniform_int(4));
    const std::uint64_t roll = rng.uniform_int(100);
    if (roll < 20) {
      cluster.write(via, f, rng.uniform_int(kFileBlocks) * kBlock,
                    pattern(kBlock, static_cast<std::uint8_t>(i)));
    } else if (roll < 24) {
      cluster.invalidate(f);
    } else {
      (void)cluster.read(via, f);
    }
  }
  SingleDriverRun run;
  run.totals = cluster.stats();
  run.consistent = cluster.check_consistency();
  for (std::size_t f = 0; f < kFiles; ++f) {
    std::vector<std::byte> buf(kFileBlocks * kBlock);
    storage->read(static_cast<cache::FileId>(f), 0, buf);
    run.storage.insert(run.storage.end(), buf.begin(), buf.end());
  }
  return run;
}

auto totals_of(const cache::CacheStats& s) {
  return std::tuple(s.local_hits, s.remote_hits, s.disk_reads,
                    s.forwards_attempted, s.forwards_accepted,
                    s.master_drops, s.copy_drops, s.hint_misdirects, s.writes,
                    s.invalidations, s.ownership_migrations);
}

// The default cluster serves peer requests on the calling worker's thread;
// behind a fault-free FaultyTransport (which declines direct binding) the
// same requests take the mailbox hop to each node's protocol thread. The
// delivery path must not change a single policy decision.
TEST(CcmCluster, DirectDispatchMatchesQueuedDelivery) {
  const SingleDriverRun direct = run_single_driver(nullptr);
  const SingleDriverRun queued =
      run_single_driver(std::make_shared<net::FaultyTransport>(
          std::make_shared<net::InProcTransport>(4), net::FaultSchedule{}));
  EXPECT_EQ(direct.storage, queued.storage);
  EXPECT_EQ(totals_of(direct.totals), totals_of(queued.totals));
  EXPECT_TRUE(direct.consistent);
  EXPECT_TRUE(queued.consistent);
  // The stream must actually cross nodes, or the comparison is vacuous.
  EXPECT_GT(direct.totals.remote_hits, 0u);
  EXPECT_GT(direct.totals.ownership_migrations, 0u);
}

// ------------------------------------------- caller-thread execution ---

/// Storage decorator that records which thread made each read and the most
/// reads ever in flight at once. Every read first waits, for at most
/// `patience`, until `rendezvous` reads are in flight together: where the
/// cluster allows that much overlap the wait forces it, and where it does
/// not the wait times out.
class ProbeStorage final : public Storage {
 public:
  ProbeStorage(std::shared_ptr<Storage> inner, std::size_t rendezvous,
               std::chrono::milliseconds patience)
      : inner_(std::move(inner)),
        rendezvous_(rendezvous),
        patience_(patience) {}

  [[nodiscard]] std::size_t file_count() const override {
    return inner_->file_count();
  }
  [[nodiscard]] std::uint64_t file_size(cache::FileId file) const override {
    return inner_->file_size(file);
  }
  void read(cache::FileId file, std::uint64_t offset,
            std::span<std::byte> out) const override {
    {
      std::unique_lock lock(mu_);
      readers_.push_back(std::this_thread::get_id());
      peak_ = std::max(peak_, ++in_flight_);
      if (in_flight_ >= rendezvous_) met_ = true;
      cv_.notify_all();
      cv_.wait_for(lock, patience_, [this] { return met_; });
    }
    inner_->read(file, offset, out);
    std::scoped_lock lock(mu_);
    --in_flight_;
  }

  [[nodiscard]] std::vector<std::thread::id> readers() const {
    std::scoped_lock lock(mu_);
    return readers_;
  }
  [[nodiscard]] std::size_t peak_in_flight() const {
    std::scoped_lock lock(mu_);
    return peak_;
  }

 private:
  std::shared_ptr<Storage> inner_;
  const std::size_t rendezvous_;
  const std::chrono::milliseconds patience_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<std::thread::id> readers_;
  mutable std::size_t in_flight_ = 0;
  mutable std::size_t peak_ = 0;
  mutable bool met_ = false;
};

TEST(CcmCluster, OperationsTouchStorageOnTheCallingThread) {
  auto probe = std::make_shared<ProbeStorage>(
      std::make_shared<MemStorage>(make_sizes(4)), 1,
      std::chrono::milliseconds(0));
  CcmCluster cluster(small_config(2, 32), probe);
  EXPECT_TRUE(matches_storage(cluster.read(0, 0), 0));
  EXPECT_TRUE(matches_storage(cluster.read(1, 1), 1));
  EXPECT_TRUE(matches_storage(cluster.read_range(1, 2, 10, 100), 2, 10));
  const auto readers = probe->readers();
  ASSERT_GE(readers.size(), 3u);
  for (const auto& id : readers) EXPECT_EQ(id, std::this_thread::get_id());
}

/// Three threads read one distinct cold one-block file each via node 0 of a
/// cluster admitting `workers_per_node` operations per node; returns the most
/// storage reads that were ever in flight together.
std::size_t peak_storage_overlap(std::size_t workers_per_node,
                                 std::chrono::milliseconds patience) {
  constexpr std::size_t kReaders = 3;
  auto probe = std::make_shared<ProbeStorage>(
      std::make_shared<MemStorage>(
          std::vector<std::uint32_t>(kReaders, kBlock)),
      kReaders, patience);
  CcmConfig cfg = small_config(2, 16);
  cfg.workers_per_node = workers_per_node;
  CcmCluster cluster(cfg, probe);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cluster, r] {
      const auto f = static_cast<cache::FileId>(r);
      EXPECT_TRUE(matches_storage(cluster.read(0, f), f));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(probe->readers().size(), kReaders);
  return probe->peak_in_flight();
}

// workers_per_node bounds the operations in flight via a node: with one slot
// the readers reach storage one at a time (each waits out the rendezvous
// alone); with three they all meet there.
TEST(CcmCluster, WorkersPerNodeBoundsOperationsInFlight) {
  EXPECT_EQ(peak_storage_overlap(1, std::chrono::milliseconds(200)), 1u);
  EXPECT_EQ(peak_storage_overlap(3, std::chrono::milliseconds(20000)), 3u);
}

}  // namespace
}  // namespace coop::ccm
