// Deterministic fault injection and the recovery paths it exercises.
//
// Three layers, bottom up: FaultSchedule parsing/generation, FaultyTransport
// perturbations against a live InProcTransport (drop / reply-drop /
// duplicate / reorder / crash / timeout, plus event-log determinism), and
// the epoch fences in DirectoryService (purge_node, rebuild_masters,
// idempotent claims). The closing tests run a whole in-process CcmCluster
// under generated schedules and through a crash/rejoin, asserting the
// paper-level invariant the CI fault sweep re-checks end to end: storage
// bytes converge to the fault-free run and CCM_AUDIT stays green.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/types.hpp"
#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "proto/directory_service.hpp"
#include "proto/message.hpp"
#include "sim/random.hpp"

namespace coop {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------- schedule grammar ------

TEST(FaultSchedule, ParseRoundTripsThroughToString) {
  const std::string spec =
      "drop:kind=peer-fetch,every=7;"
      "delay:kind=dir-reply,start=2,count=9,every=3,ms=5;"
      "duplicate:kind=invalidate-block,from=1,to=2;"
      "drop:kind=barrier,reply=1,every=5";
  const net::FaultSchedule schedule = net::FaultSchedule::parse(spec, 17);
  EXPECT_EQ(schedule.seed, 17u);
  ASSERT_EQ(schedule.rules.size(), 4u);

  EXPECT_EQ(schedule.rules[0].action, net::FaultAction::kDrop);
  EXPECT_EQ(schedule.rules[0].kind, proto::MsgKind::kPeerFetch);
  EXPECT_EQ(schedule.rules[0].every, 7u);
  EXPECT_FALSE(schedule.rules[0].on_reply);

  EXPECT_EQ(schedule.rules[1].action, net::FaultAction::kDelay);
  EXPECT_EQ(schedule.rules[1].start, 2u);
  EXPECT_EQ(schedule.rules[1].count, 9u);
  EXPECT_EQ(schedule.rules[1].delay, 5ms);

  EXPECT_EQ(schedule.rules[2].action, net::FaultAction::kDuplicate);
  ASSERT_TRUE(schedule.rules[2].from.has_value());
  EXPECT_EQ(*schedule.rules[2].from, 1u);
  ASSERT_TRUE(schedule.rules[2].to.has_value());
  EXPECT_EQ(*schedule.rules[2].to, 2u);

  EXPECT_TRUE(schedule.rules[3].on_reply);

  // to_string() is parse()'s inverse: one more round trip is a fixpoint.
  const std::string rendered = schedule.to_string();
  EXPECT_EQ(net::FaultSchedule::parse(rendered).to_string(), rendered);
}

TEST(FaultSchedule, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)net::FaultSchedule::parse("explode:kind=barrier"),
               std::invalid_argument);
  EXPECT_THROW((void)net::FaultSchedule::parse("drop:kind=no-such-kind"),
               std::invalid_argument);
  EXPECT_THROW((void)net::FaultSchedule::parse("drop:frobnicate=1"),
               std::invalid_argument);
  EXPECT_THROW((void)net::FaultSchedule::parse("drop:kind"),
               std::invalid_argument);
  EXPECT_THROW((void)net::FaultSchedule::parse("drop:every=0"),
               std::invalid_argument);
}

TEST(FaultSchedule, GeneratedIsDeterministicAndRetrySafe) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    const net::FaultSchedule a = net::FaultSchedule::generated(seed);
    const net::FaultSchedule b = net::FaultSchedule::generated(seed);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
    ASSERT_GE(a.rules.size(), 3u);
    ASSERT_LE(a.rules.size(), 6u);
    for (const net::FaultRule& rule : a.rules) {
      // every >= 3 guarantees two consecutive retry attempts of one call
      // can never both be consumed by the same rule.
      EXPECT_GE(rule.every, 3u);
      EXPECT_NE(rule.action, net::FaultAction::kReorder);
    }
  }
}

// ------------------------------------------- transport perturbations -----

/// Serves node 1: echoes every request as a barrier-reply, counting them.
class CountingEchoServer {
 public:
  explicit CountingEchoServer(net::Transport& transport)
      : thread_([this, &transport] {
          while (auto env = transport.receive(1)) {
            handled_.fetch_add(1, std::memory_order_relaxed);
            net::Envelope out;
            out.msg = proto::Message::barrier_reply(1, env->msg.from,
                                                    env->msg.count, true);
            out.seq = env->seq;
            transport.post(std::move(out));
          }
        }) {}
  ~CountingEchoServer() { thread_.join(); }

  [[nodiscard]] std::uint64_t handled() const {
    return handled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> handled_{0};
  std::thread thread_;
};

net::Envelope barrier_to_1(std::uint32_t phase) {
  net::Envelope env;
  env.msg = proto::Message::barrier(0, 1, phase);
  return env;
}

/// call_with_retry's re-attempts of kBarrier, as the registry installed on
/// the transport counts them.
std::uint64_t barrier_retries(const obs::MetricsRegistry& metrics) {
  return metrics.snapshot()
      .rpc[static_cast<std::size_t>(proto::MsgKind::kBarrier)]
      .retries;
}

/// Retry budgets call_with_retry exhausted, from the same registry.
std::uint64_t rpc_failures(const obs::MetricsRegistry& metrics) {
  return metrics.snapshot()
      .counters[static_cast<std::size_t>(obs::RtCounter::kRpcFailure)];
}

TEST(FaultyTransport, DroppedRequestFailsCallAndRetryHeals) {
  obs::MetricsRegistry metrics;
  net::FaultyTransport t(std::make_shared<net::InProcTransport>(2),
                         net::FaultSchedule::parse("drop:kind=barrier,count=1"));
  t.set_metrics(&metrics);
  {
    CountingEchoServer server(t);
    const net::Envelope reply = net::call_with_retry(t, barrier_to_1(7));
    EXPECT_EQ(reply.msg.kind, proto::MsgKind::kBarrierReply);
    EXPECT_EQ(reply.msg.count, 7u);
    // First attempt consumed by the rule pre-send, second went through.
    EXPECT_EQ(barrier_retries(metrics), 1u);
    EXPECT_EQ(rpc_failures(metrics), 0u);
    // The dropped attempt never reached the server; only the retry did.
    EXPECT_EQ(server.handled(), 1u);
    t.close();
  }
  EXPECT_EQ(t.stats().injected_drops, 1u);
  const std::vector<net::FaultEvent> events = t.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].action, net::FaultAction::kDrop);
  EXPECT_EQ(events[0].kind, proto::MsgKind::kBarrier);
  EXPECT_FALSE(events[0].on_reply);
  EXPECT_EQ(events[0].rule, 0u);
}

TEST(FaultyTransport, ReplyDropModelsAtLeastOnceExecution) {
  obs::MetricsRegistry metrics;
  net::FaultyTransport t(
      std::make_shared<net::InProcTransport>(2),
      net::FaultSchedule::parse("drop:kind=barrier,reply=1,count=1"));
  t.set_metrics(&metrics);
  std::uint64_t handled = 0;
  {
    CountingEchoServer server(t);
    const net::Envelope reply = net::call_with_retry(t, barrier_to_1(3));
    EXPECT_EQ(reply.msg.count, 3u);
    EXPECT_EQ(barrier_retries(metrics), 1u);
    t.close();
    handled = server.handled();
  }
  // The server executed the request twice for one successful call: exactly
  // the at-least-once case every retried kind must be idempotent against.
  EXPECT_EQ(handled, 2u);
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_TRUE(t.events()[0].on_reply);
}

TEST(FaultyTransport, DuplicateDeliversRequestTwice) {
  net::FaultyTransport t(
      std::make_shared<net::InProcTransport>(2),
      net::FaultSchedule::parse("duplicate:kind=barrier,count=1"));
  std::uint64_t handled = 0;
  {
    CountingEchoServer server(t);
    const net::Envelope reply = t.call(barrier_to_1(9));
    EXPECT_EQ(reply.msg.count, 9u);
    t.close();
    handled = server.handled();
  }
  EXPECT_EQ(handled, 2u);
  EXPECT_EQ(t.stats().injected_duplicates, 1u);
}

TEST(FaultyTransport, ReorderReleasesParkedPostBehindTheNext) {
  net::FaultyTransport t(
      std::make_shared<net::InProcTransport>(2),
      net::FaultSchedule::parse("reorder:kind=barrier,count=1"));
  ASSERT_TRUE(t.post(barrier_to_1(1)));  // parked by the rule
  ASSERT_TRUE(t.post(barrier_to_1(2)));  // ships first, releases #1 behind it
  const auto first = t.receive(1);
  const auto second = t.receive(1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->msg.count, 2u);
  EXPECT_EQ(second->msg.count, 1u);
  EXPECT_EQ(t.stats().injected_reorders, 1u);
  t.close();
}

TEST(FaultyTransport, CrashedNodeFailsFastAndRevives) {
  net::FaultyTransport t(std::make_shared<net::InProcTransport>(2),
                         net::FaultSchedule{});
  std::uint64_t handled = 0;
  {
    CountingEchoServer server(t);
    t.crash_node(1);
    EXPECT_TRUE(t.crashed(1));
    try {
      (void)t.call(barrier_to_1(1));
      FAIL() << "call into a crashed node must not succeed";
    } catch (const net::TransportError& e) {
      EXPECT_EQ(e.kind(), net::TransportError::Kind::kPeerDown);
      EXPECT_TRUE(e.transient());  // crashed != shut down: a rejoin heals it
    }
    EXPECT_TRUE(t.post(barrier_to_1(2)));  // blackholed, sender can't tell

    t.revive_node(1);
    EXPECT_FALSE(t.crashed(1));
    const net::Envelope reply = t.call(barrier_to_1(3));
    EXPECT_EQ(reply.msg.count, 3u);
    t.close();
    handled = server.handled();
  }
  EXPECT_EQ(handled, 1u);  // only the post-revive call reached the server
  // Crash swallows are logged as events with no rule attached.
  bool saw_crash = false;
  for (const net::FaultEvent& e : t.events()) {
    if (e.action == net::FaultAction::kCrash) {
      saw_crash = true;
      EXPECT_EQ(e.rule, net::FaultEvent::kNoRule);
    }
  }
  EXPECT_TRUE(saw_crash);
}

TEST(FaultyTransport, RetryGivesUpAfterBudgetAndCountsFailure) {
  // Every request dropped: all four attempts are consumed pre-send.
  obs::MetricsRegistry metrics;
  net::FaultyTransport t(std::make_shared<net::InProcTransport>(2),
                         net::FaultSchedule::parse("drop:kind=barrier"));
  t.set_metrics(&metrics);
  try {
    (void)net::call_with_retry(t, barrier_to_1(1));
    FAIL() << "exhausted retry budget must propagate the last error";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kInjected);
  }
  EXPECT_EQ(barrier_retries(metrics), 3u);  // attempts - 1
  EXPECT_EQ(rpc_failures(metrics), 1u);
  EXPECT_EQ(t.stats().injected_drops, 4u);
  t.close();
}

// A round re-sends only the requests that failed, each under its own
// budget: a dropped request costs one retry, and a request dropped on every
// attempt keeps its error and counts one failure while its round-mate is
// answered.
TEST(FaultyTransport, RoundResendsOnlyItsFailedRequests) {
  obs::MetricsRegistry metrics;
  net::FaultyTransport t(
      std::make_shared<net::InProcTransport>(3),
      net::FaultSchedule::parse(
          "drop:kind=barrier,to=1,start=1,count=1;drop:kind=barrier,to=2"));
  t.set_metrics(&metrics);
  CountingEchoServer server(t);

  std::array<net::RoundCall, 3> round;
  for (std::uint32_t i = 0; i < round.size(); ++i) {
    round[i].request = barrier_to_1(i + 1);
  }
  net::call_all_with_retry(t, round);
  for (std::uint32_t i = 0; i < round.size(); ++i) {
    ASSERT_FALSE(round[i].error) << round[i].error->what();
    EXPECT_EQ(round[i].reply.msg.count, i + 1);
  }
  EXPECT_EQ(barrier_retries(metrics), 1u);
  EXPECT_EQ(rpc_failures(metrics), 0u);
  EXPECT_EQ(server.handled(), 3u);

  std::array<net::RoundCall, 2> mixed;
  mixed[0].request = barrier_to_1(4);
  mixed[1].request.msg = proto::Message::barrier(0, 2, 5);
  net::call_all_with_retry(t, mixed);
  ASSERT_FALSE(mixed[0].error) << mixed[0].error->what();
  EXPECT_EQ(mixed[0].reply.msg.count, 4u);
  ASSERT_TRUE(mixed[1].error);
  EXPECT_EQ(mixed[1].error->kind(), net::TransportError::Kind::kInjected);
  EXPECT_EQ(barrier_retries(metrics), 1u + 3u);  // attempts - 1
  EXPECT_EQ(rpc_failures(metrics), 1u);
  EXPECT_EQ(server.handled(), 4u);
  EXPECT_EQ(t.stats().injected_drops, 1u + 4u);
  t.close();
}

TEST(InProcTransport, CallTimesOutInsteadOfHangingForever) {
  // Serve node 1 with a sink that never answers: the call must fail on its
  // deadline, not block — the "no call may hang on a dead peer" guarantee.
  net::InProcTransport t(2, /*call_timeout=*/50ms);
  std::thread sink([&t] {
    while (t.receive(1).has_value()) {
    }
  });
  try {
    (void)t.call(barrier_to_1(1));
    FAIL() << "unanswered call must time out";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kTimeout);
    EXPECT_TRUE(e.transient());
  }
  EXPECT_EQ(t.stats().rpc_timeouts, 1u);
  t.close();
  sink.join();
}

TEST(FaultyTransport, EventLogIsByteIdenticalAcrossRuns) {
  const net::FaultSchedule schedule = net::FaultSchedule::parse(
      "drop:kind=barrier,start=2,every=3,count=2;"
      "duplicate:kind=barrier,start=1,every=4,count=2;"
      "delay:kind=barrier,start=3,every=5,ms=1");
  const auto run = [&schedule] {
    net::FaultyTransport t(std::make_shared<net::InProcTransport>(2),
                           schedule);
    {
      CountingEchoServer server(t);
      for (std::uint32_t i = 0; i < 12; ++i) {
        try {
          (void)t.call(barrier_to_1(i));
        } catch (const net::TransportError&) {
          // dropped by the schedule — expected
        }
      }
      t.close();
    }
    std::string log;
    for (const net::FaultEvent& e : t.events()) {
      log += net::event_line(e);
      log += '\n';
    }
    return log;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --------------------------------------------- directory crash fences ----

cache::BlockId blk(cache::FileId file, std::uint32_t index) {
  return cache::BlockId{file, index};
}

TEST(DirectoryFence, PurgeNodeUnregistersFencesAndIsIdempotent) {
  proto::DirectoryService dir(3, cache::DirectoryMode::kPerfect, 0);
  ASSERT_TRUE(dir.try_claim(blk(1, 0), 1));
  ASSERT_TRUE(dir.try_claim(blk(2, 0), 1));
  ASSERT_TRUE(dir.try_claim(blk(3, 0), 2));
  const std::uint64_t epoch1 = dir.file_epoch(1);
  const std::uint64_t epoch3 = dir.file_epoch(3);

  EXPECT_EQ(dir.purge_node(1), 2u);
  EXPECT_EQ(dir.lookup(blk(1, 0)), cache::kInvalidNode);
  EXPECT_EQ(dir.lookup(blk(2, 0)), cache::kInvalidNode);
  EXPECT_EQ(dir.lookup(blk(3, 0)), 2u);      // survivor untouched
  EXPECT_GT(dir.file_epoch(1), epoch1);      // fenced
  EXPECT_EQ(dir.file_epoch(3), epoch3);      // not fenced
  EXPECT_EQ(dir.ops().masters_purged, 2u);

  // Re-asking (a retried purge whose reply was lost) purges nothing more.
  EXPECT_EQ(dir.purge_node(1), 0u);
  EXPECT_EQ(dir.ops().masters_purged, 2u);
}

TEST(DirectoryFence, PurgeRejectsTheDeadNodesInFlightForward) {
  proto::DirectoryService dir(3, cache::DirectoryMode::kPerfect, 0);
  const cache::BlockId b = blk(5, 1);
  ASSERT_TRUE(dir.try_claim(b, 1));
  // Node 1 starts forwarding the master away, then dies mid-flight; its
  // destination's claim carries the pre-crash epoch and must lose.
  const auto epoch = dir.begin_forward(b, 1);
  ASSERT_TRUE(epoch.has_value());
  ASSERT_TRUE(dir.try_claim(b, 1));  // re-register so the purge fences file 5
  (void)dir.purge_node(1);
  EXPECT_FALSE(dir.claim_forwarded(b, /*to=*/2, /*from=*/1, *epoch));
  EXPECT_EQ(dir.lookup(b), cache::kInvalidNode);
}

TEST(DirectoryFence, RebuildMastersReplacesMapAndFencesBothSides) {
  proto::DirectoryService dir(3, cache::DirectoryMode::kPerfect, 0);
  ASSERT_TRUE(dir.try_claim(blk(1, 0), 1));
  ASSERT_TRUE(dir.try_claim(blk(2, 0), 2));
  const std::uint64_t old1 = dir.file_epoch(1);
  const std::uint64_t old2 = dir.file_epoch(2);
  const std::uint64_t old7 = dir.file_epoch(7);

  dir.rebuild_masters({{blk(7, 0), 2}, {blk(1, 0), 2}});
  EXPECT_EQ(dir.lookup(blk(1, 0)), 2u);                  // re-homed
  EXPECT_EQ(dir.lookup(blk(2, 0)), cache::kInvalidNode);  // not re-reported
  EXPECT_EQ(dir.lookup(blk(7, 0)), 2u);
  EXPECT_EQ(dir.master_count(), 2u);
  // Every file on either side of the rebuild is epoch-fenced.
  EXPECT_GT(dir.file_epoch(1), old1);
  EXPECT_GT(dir.file_epoch(2), old2);
  EXPECT_GT(dir.file_epoch(7), old7);
}

TEST(DirectoryFence, ClaimsAreIdempotentForTheRetryingClaimant) {
  proto::DirectoryService dir(3, cache::DirectoryMode::kPerfect, 0);
  const cache::BlockId b = blk(4, 0);
  EXPECT_TRUE(dir.try_claim(b, 1));
  EXPECT_TRUE(dir.try_claim(b, 1));   // retried claim, first reply lost
  EXPECT_FALSE(dir.try_claim(b, 2));  // a rival still loses

  const auto epoch = dir.begin_forward(b, 1);
  ASSERT_TRUE(epoch.has_value());
  EXPECT_TRUE(dir.claim_forwarded(b, 2, 1, *epoch));
  EXPECT_TRUE(dir.claim_forwarded(b, 2, 1, *epoch));  // retried: still ours
  EXPECT_EQ(dir.lookup(b), 2u);
}

// ------------------------------------- whole-cluster fault tolerance -----
// The helpers below mirror tests/test_net.cpp's equality harness: write
// targets are partitioned per driver and every write is write-through, so
// final storage bytes depend only on the RNG streams — independently of how
// the fault schedule perturbs the cache traffic in between.

std::vector<std::byte> fill_pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return out;
}

constexpr std::size_t kEqNodes = 3;
constexpr std::size_t kEqFiles = 12;
constexpr std::uint32_t kEqBlockBytes = 1024;
constexpr std::uint32_t kEqFileBlocks = 2;
constexpr std::uint32_t kEqFileBytes = kEqBlockBytes * kEqFileBlocks;
constexpr int kEqIters = 120;

ccm::CcmConfig equality_config() {
  ccm::CcmConfig cfg;
  cfg.nodes = kEqNodes;
  cfg.block_bytes = kEqBlockBytes;
  cfg.capacity_bytes = 8 * kEqBlockBytes;
  cfg.workers_per_node = 2;
  return cfg;
}

void equality_driver(ccm::CcmCluster& cluster, std::size_t d) {
  sim::Rng rng(7000 + d);
  const auto via = static_cast<cache::NodeId>(d);
  for (int i = 0; i < kEqIters; ++i) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(kEqFiles));
    const auto roll = rng.uniform_int(100);
    if (roll < 30) {
      constexpr std::size_t kPerDriver = kEqFiles / kEqNodes;
      const auto wf =
          static_cast<cache::FileId>((f % kPerDriver) * kEqNodes + d);
      const std::uint64_t off = rng.uniform_int(kEqFileBlocks) * kEqBlockBytes;
      cluster.write(via, wf, off,
                    fill_pattern(kEqBlockBytes,
                                 static_cast<std::uint8_t>(f + i)));
    } else if (roll < 34) {
      cluster.invalidate(f);
    } else {
      cluster.read(via, f);
    }
  }
}

std::vector<std::byte> storage_bytes(const ccm::Storage& storage) {
  std::vector<std::byte> all;
  for (std::size_t f = 0; f < storage.file_count(); ++f) {
    const auto file = static_cast<cache::FileId>(f);
    std::vector<std::byte> buf(storage.file_size(file));
    storage.read(file, 0, buf);
    all.insert(all.end(), buf.begin(), buf.end());
  }
  return all;
}

void seed_all(ccm::CcmCluster& cluster) {
  for (std::size_t f = 0; f < kEqFiles; ++f) {
    cluster.write(0, static_cast<cache::FileId>(f), 0,
                  fill_pattern(kEqFileBytes, static_cast<std::uint8_t>(f)));
  }
}

std::shared_ptr<ccm::BufferStorage> make_eq_storage() {
  return std::make_shared<ccm::BufferStorage>(
      std::vector<std::uint32_t>(kEqFiles, kEqFileBytes));
}

/// seed_all + all three drivers concurrently; returns final storage bytes.
std::vector<std::byte> run_equality_workload(ccm::CcmCluster& cluster,
                                             const ccm::Storage& storage) {
  seed_all(cluster);
  std::vector<std::thread> drivers;
  for (std::size_t d = 0; d < kEqNodes; ++d) {
    drivers.emplace_back([&cluster, d] { equality_driver(cluster, d); });
  }
  for (auto& t : drivers) t.join();
  return storage_bytes(storage);
}

TEST(ClusterUnderFaults, GeneratedSchedulesLeaveStorageConverged) {
  std::vector<std::byte> expected;
  {
    auto storage = make_eq_storage();
    ccm::CcmCluster cluster(equality_config(), storage);
    expected = run_equality_workload(cluster, *storage);
  }
  for (const std::uint64_t seed : {1ull, 2ull, 11ull}) {
    auto storage = make_eq_storage();
    auto faulty = std::make_shared<net::FaultyTransport>(
        std::make_shared<net::InProcTransport>(kEqNodes),
        net::FaultSchedule::generated(seed));
    ccm::CcmHosting hosting;
    hosting.transport = faulty;
    ccm::CcmCluster cluster(equality_config(), storage, hosting);
    const std::vector<std::byte> got = run_equality_workload(cluster, *storage);
    EXPECT_EQ(got, expected) << "fault seed " << seed;
    EXPECT_TRUE(cluster.check_consistency()) << "fault seed " << seed;
  }
}

TEST(ClusterUnderFaults, CrashAndRejoinMidWorkloadConverges) {
  // Reference: same driver sequencing (0 and 2 concurrently, then 1),
  // fault-free. Write partitioning makes the storage outcome identical.
  std::vector<std::byte> expected;
  {
    auto storage = make_eq_storage();
    ccm::CcmCluster cluster(equality_config(), storage);
    seed_all(cluster);
    std::thread d0([&cluster] { equality_driver(cluster, 0); });
    std::thread d2([&cluster] { equality_driver(cluster, 2); });
    d0.join();
    d2.join();
    equality_driver(cluster, 1);
    expected = storage_bytes(*storage);
  }

  auto storage = make_eq_storage();
  auto faulty = std::make_shared<net::FaultyTransport>(
      std::make_shared<net::InProcTransport>(kEqNodes), net::FaultSchedule{});
  ccm::CcmHosting hosting;
  hosting.transport = faulty;
  ccm::CcmCluster cluster(equality_config(), storage, hosting);
  seed_all(cluster);

  // Node 1 dies: the transport blackholes it and the cluster wipes its
  // shard + fences its directory entries. Survivors keep working.
  faulty->crash_node(1);
  (void)cluster.crash_node(1);
  std::thread d0([&cluster] { equality_driver(cluster, 0); });
  std::thread d2([&cluster] { equality_driver(cluster, 2); });
  d0.join();
  d2.join();
  EXPECT_TRUE(cluster.check_consistency()) << "while node 1 is down";

  // Node 1 rejoins cold and serves its share of the workload.
  faulty->revive_node(1);
  cluster.rejoin_node(1);
  equality_driver(cluster, 1);

  EXPECT_EQ(storage_bytes(*storage), expected);
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(ClusterUnderFaults, DirectoryReconstructionKeepsClusterConsistent) {
  auto storage = make_eq_storage();
  ccm::CcmCluster cluster(equality_config(), storage);
  seed_all(cluster);
  equality_driver(cluster, 0);

  // Rebuild the master map from the surviving per-node caches (the
  // directory holder restarting) and keep operating on it.
  cluster.reconstruct_directory();
  EXPECT_TRUE(cluster.check_consistency());
  equality_driver(cluster, 1);
  for (std::size_t f = 0; f < kEqFiles; ++f) {
    const auto file = static_cast<cache::FileId>(f);
    std::vector<std::byte> disk(storage->file_size(file));
    storage->read(file, 0, disk);
    EXPECT_EQ(cluster.read(0, file), disk) << "file " << f;
  }
  EXPECT_TRUE(cluster.check_consistency());
}

}  // namespace
}  // namespace coop
