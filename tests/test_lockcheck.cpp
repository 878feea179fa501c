// Tests for the lock-order watchdog (src/util/lockcheck) and the
// instrumented mutex wrappers (src/util/mutex.hpp): an ABBA inversion must
// be detected the moment the second edge is recorded, a consistently
// ordered workload must stay silent, a contended lock must count exactly
// whether it is won by spinning or by parking, a direct in-process call made
// while holding a lock must be reported, and the real CcmCluster runtime
// must keep its acquisition graph acyclic end to end.
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "net/transport.hpp"
#include "proto/message.hpp"
#include "util/audit.hpp"
#include "util/lockcheck.hpp"
#include "util/mutex.hpp"

namespace coop::util::lockcheck {
namespace {

// Every test starts from an empty acquisition graph with the watchdog on,
// and leaves the process-wide state as the build default found it.
class LockcheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(audit::hooks_compiled_in());
    reset();
  }
};

TEST_F(LockcheckTest, MutexRegistersItsDisplayName) {
  Mutex m("test.named");
  EXPECT_EQ(lock_name(m.lock_id()), "test.named");
  CountingMutex c("test.counting");
  EXPECT_EQ(lock_name(c.lock_id()), "test.counting");
}

TEST_F(LockcheckTest, AbbaInversionIsDetectedAtAcquireTime) {
  audit::Recorder rec;
  Mutex a("test.abba.A");
  Mutex b("test.abba.B");

  // Two threads take the pair in opposite orders, sequenced by joins so the
  // inversion is recorded in the graph without ever really deadlocking —
  // which is the point of the watchdog: the A->B edge from thread 1 plus
  // the B->A edge from thread 2 close a cycle even though this particular
  // interleaving got lucky.
  std::thread t1([&] {
    ScopedLock la(a);
    ScopedLock lb(b);
  });
  t1.join();
  std::thread t2([&] {
    ScopedLock lb(b);
    ScopedLock la(a);
  });
  t2.join();

  EXPECT_TRUE(rec.saw("lock-order-acyclic"));
  EXPECT_GE(cycles_detected(), 1u);
  const std::string cycle = last_cycle();
  EXPECT_NE(cycle.find("test.abba.A"), std::string::npos);
  EXPECT_NE(cycle.find("test.abba.B"), std::string::npos);
  EXPECT_NE(cycle.find("lock-order cycle"), std::string::npos);
}

TEST_F(LockcheckTest, ConsistentOrderAcrossThreadsStaysSilent) {
  audit::Recorder rec;
  Mutex a("test.ordered.A");
  Mutex b("test.ordered.B");

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 100; ++k) {
        ScopedLock la(a);
        ScopedLock lb(b);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(cycles_detected(), 0u);
  EXPECT_EQ(audit("ordered-pair"), 0u);
  EXPECT_EQ(rec.count(), 0u);
}

TEST_F(LockcheckTest, SameThreadRelockIsTheDegenerateCycle) {
  audit::Recorder rec;
  const LockId a = register_lock("test.relock.A");
  note_acquired(a);
  // A second blocking acquire of a lock this thread already holds is a
  // self-edge A -> A: certain deadlock, reported immediately.
  note_acquire(a);
  EXPECT_TRUE(rec.saw("lock-order-acyclic"));
  EXPECT_GE(cycles_detected(), 1u);
  note_release(a);
}

TEST_F(LockcheckTest, AuditFullScanFindsCycleLeftInTheGraph) {
  audit::Recorder rec;
  const LockId a = register_lock("test.scan.A");
  const LockId b = register_lock("test.scan.B");

  // Record A -> B, drop both, then record B -> A. The acquire-time check
  // fires once; audit()'s whole-graph scan must also find the cycle and
  // tag the dump with its context string.
  note_acquired(a);
  note_acquire(b);
  note_acquired(b);
  note_release(b);
  note_release(a);
  note_acquired(b);
  note_acquire(a);
  note_acquired(a);
  note_release(a);
  note_release(b);

  rec.clear();
  EXPECT_EQ(audit("scan-context"), 1u);
  EXPECT_TRUE(rec.saw("lock-order-acyclic"));
  ASSERT_EQ(rec.violations().size(), 1u);
  EXPECT_NE(rec.violations()[0].detail.find("[scan-context]"),
            std::string::npos);
}

TEST_F(LockcheckTest, KnownEdgesAreCheckedOnceAndResetClearsEverything) {
  audit::Recorder rec;
  Mutex a("test.reset.A");
  Mutex b("test.reset.B");
  {
    ScopedLock la(a);
    ScopedLock lb(b);
  }
  {
    ScopedLock lb(b);
    ScopedLock la(a);
  }
  EXPECT_EQ(cycles_detected(), 1u);
  // Re-walking the same inverted pair re-traverses known edges only — the
  // cycle was already reported once and is not re-reported.
  {
    ScopedLock lb(b);
    ScopedLock la(a);
  }
  EXPECT_EQ(cycles_detected(), 1u);
  EXPECT_EQ(rec.count(), 1u);

  reset();
  EXPECT_EQ(cycles_detected(), 0u);
  EXPECT_TRUE(last_cycle().empty());
  EXPECT_EQ(audit("post-reset"), 0u);
}

TEST_F(LockcheckTest, DisabledWatchdogRecordsNothing) {
  audit::Recorder rec;
  set_enabled(false);
  Mutex a("test.off.A");
  Mutex b("test.off.B");
  {
    ScopedLock la(a);
    ScopedLock lb(b);
  }
  {
    ScopedLock lb(b);
    ScopedLock la(a);
  }
  EXPECT_EQ(cycles_detected(), 0u);
  EXPECT_EQ(rec.count(), 0u);
}

TEST_F(LockcheckTest, CountingMutexCountersAreMonotoneAndResettable) {
  CountingMutex m("test.counters");
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    ScopedLock lock(m);
    EXPECT_GE(m.acquired(), last);
    last = m.acquired();
  }
  EXPECT_EQ(m.acquired(), 100u);
  EXPECT_EQ(m.contended(), 0u);  // single thread: never contended
  m.reset_counts();
  EXPECT_EQ(m.acquired(), 0u);
  EXPECT_EQ(m.contended(), 0u);
}

long voluntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

cpu_set_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  return set;
}

/// Pins the calling thread to the `nth` (0-based) CPU of `allowed`.
void pin_to(const cpu_set_t& allowed, int nth) {
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == nth) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  sched_setaffinity(0, sizeof(one), &one);
}

/// Runs `rounds` contended acquisitions of `m` by this thread. In each, a
/// holder thread takes the lock, waits until this thread's lock() has failed
/// its first try_lock (contended() ticks), keeps the lock `hold` longer, and
/// releases. With two CPUs allowed, the holder and this thread run on
/// different ones, so a prompt release really happens while this thread
/// spins. Returns how many of this thread's acquisitions made no voluntary
/// context switch, i.e. completed without parking.
int contend(CountingMutex& m, int rounds, std::chrono::milliseconds hold) {
  const cpu_set_t allowed = allowed_cpus();
  const bool pinned = CPU_COUNT(&allowed) > 1;
  std::atomic<int> go{0};
  std::atomic<int> held{0};
  std::thread holder([&] {
    if (pinned) pin_to(allowed, 1);
    for (int i = 1; i <= rounds; ++i) {
      while (go.load() != i) std::this_thread::yield();
      const std::uint64_t contended0 = m.contended();
      ScopedLock lock(m);
      held.store(i);
      while (m.contended() == contended0) std::this_thread::yield();
      std::this_thread::sleep_for(hold);
      EXPECT_EQ(held_count(), 1u);
    }
    EXPECT_EQ(held_count(), 0u);
  });
  if (pinned) pin_to(allowed, 0);
  int spun = 0;
  for (int i = 1; i <= rounds; ++i) {
    go.store(i);
    while (held.load() != i) std::this_thread::yield();
    const long switches0 = voluntary_switches();
    m.lock();
    if (voluntary_switches() == switches0) ++spun;
    EXPECT_EQ(held_count(), 1u);
    m.unlock();
  }
  holder.join();
  sched_setaffinity(0, sizeof(allowed), &allowed);
  EXPECT_EQ(held_count(), 0u);
  return spun;
}

// A holder that lets go as soon as the contender's first try_lock fails:
// the release lands inside the contender's spin budget, so (given a second
// CPU for the holder) some acquisitions complete without parking. Every
// round counts one contention and two acquisitions either way.
TEST_F(LockcheckTest, CountingMutexSpinAcquisitionCountsExactly) {
  audit::Recorder rec;
  CountingMutex m("test.spin.short");
  constexpr int kRounds = 50;
  const int spun = contend(m, kRounds, std::chrono::milliseconds(0));
  if (const cpu_set_t cpus = allowed_cpus(); CPU_COUNT(&cpus) > 1) {
    EXPECT_GT(spun, 0);
  }
  EXPECT_EQ(m.acquired(), 2u * kRounds);
  EXPECT_EQ(m.contended(), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(rec.count(), 0u);
}

// A holder that keeps the lock far past the spin budget: the bounded spin
// gives up and every contended acquisition parks (a voluntary context
// switch) instead of burning the core, with the same exact counts.
TEST_F(LockcheckTest, CountingMutexParksAfterTheSpinBudget) {
  audit::Recorder rec;
  CountingMutex m("test.spin.long");
  constexpr int kRounds = 3;
  EXPECT_EQ(contend(m, kRounds, std::chrono::milliseconds(20)), 0);
  EXPECT_EQ(m.acquired(), 2u * kRounds);
  EXPECT_EQ(m.contended(), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(rec.count(), 0u);
}

// The in-process transport's direct path runs the target's handler on the
// caller's thread, so a caller holding a lock there could self-deadlock on
// it. The watchdog reports such a call (and lets it proceed).
TEST_F(LockcheckTest, DirectCallWhileHoldingALockIsReported) {
  audit::Recorder rec;
  net::InProcTransport transport(2);
  ASSERT_TRUE(transport.serve_direct(1, [](net::Envelope& env) {
    net::Envelope out;
    out.msg = proto::Message::barrier_reply(1, env.msg.from, env.msg.count,
                                            true);
    return out;
  }));
  auto call = [&transport] {
    net::Envelope req;
    req.msg = proto::Message::barrier(0, 1, 3);
    return transport.call(std::move(req));
  };

  EXPECT_EQ(held_count(), 0u);
  EXPECT_EQ(call().msg.count, 3u);
  EXPECT_FALSE(rec.saw("direct-call-unlocked"));

  Mutex held("test.direct.held");
  {
    ScopedLock lock(held);
    EXPECT_EQ(held_count(), 1u);
    EXPECT_EQ(call().msg.count, 3u);
  }
  EXPECT_EQ(held_count(), 0u);
  ASSERT_TRUE(rec.saw("direct-call-unlocked"));
  EXPECT_EQ(rec.count(), 1u);
  EXPECT_NE(rec.violations()[0].detail.find("barrier"), std::string::npos);
}

// The acceptance test for the runtime's lock discipline: a multi-node
// CcmCluster workload with evictions, forwards, and a write-through, with
// every named lock watched — the acquisition graph must come out acyclic
// and the watchdog must never fire.
TEST_F(LockcheckTest, CcmClusterWorkloadKeepsTheLockGraphAcyclic) {
  audit::Recorder rec;

  ccm::CcmConfig cfg;
  cfg.nodes = 3;
  cfg.capacity_bytes = 8 * 8 * 1024;  // 8 blocks per node -> evictions
  cfg.block_bytes = 8 * 1024;
  cfg.workers_per_node = 2;
  const std::vector<std::uint32_t> sizes(12, 4 * 8 * 1024);
  auto storage = std::make_shared<ccm::BufferStorage>(sizes);
  {
    ccm::CcmCluster cluster(cfg, storage);
    for (int pass = 0; pass < 3; ++pass) {
      for (cache::NodeId via = 0; via < 3; ++via) {
        for (cache::FileId f = 0; f < 12; ++f) {
          (void)cluster.read(via, f);
        }
      }
    }
    std::vector<std::byte> bytes(100, std::byte{0x5a});
    cluster.write(1, 0, 0, bytes);
    cluster.invalidate(3);
    (void)cluster.read(2, 3);

    // Quiesced: the cluster's own audit sweep takes every shard lock in
    // index order (adding only the documented shard[i] -> shard[j] chain
    // edges), then the watchdog sweeps the whole graph.
    EXPECT_EQ(cluster.audit("lockcheck-quiesce"), 0u);
    EXPECT_EQ(audit("ccm-workload"), 0u);
  }
  EXPECT_EQ(cycles_detected(), 0u);
  EXPECT_EQ(rec.count(), 0u);
}

}  // namespace
}  // namespace coop::util::lockcheck
