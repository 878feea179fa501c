// Tests for the discrete-event engine, service centers, RNG, and stats.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/service_center.hpp"
#include "sim/stats.hpp"

namespace coop::sim {
namespace {

// ---------------------------------------------------------------- Engine ---

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_processed(), 0u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SameTimeEventsFireInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleInUsesCurrentTime) {
  Engine e;
  SimTime seen = -1.0;
  e.schedule_at(2.0, [&] { e.schedule_in(1.5, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(Engine, NestedSchedulingDuringRun) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) e.schedule_in(1.0, chain);
  };
  e.schedule_in(1.0, chain);
  e.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(e.now(), 100.0);
}

TEST(Engine, RejectsPastAndNegative) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelInvalidIdReturnsFalse) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventId{}));
  EXPECT_FALSE(e.cancel(EventId{12345}));
}

TEST(Engine, CancelAfterExecutionIsANoOp) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  e.run_until(1.5);  // `a` has fired
  EXPECT_FALSE(e.cancel(a));
  EXPECT_EQ(e.pending(), 1u);  // count not corrupted
  e.run();
  EXPECT_EQ(e.events_processed(), 2u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, PendingTracksLiveEvents) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, StopHaltsTheLoop) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] {
    ++count;
    e.stop();
  });
  e.schedule_at(3.0, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run();  // resumes
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilAdvancesTimeWithoutEvents) {
  Engine e;
  EXPECT_FALSE(e.run_until(42.0));
  EXPECT_DOUBLE_EQ(e.now(), 42.0);
}

TEST(Engine, RunUntilExecutesOnlyDueEvents) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(5.0, [&] { order.push_back(5); });
  EXPECT_TRUE(e.run_until(3.0));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(Engine, EventAtExactBoundaryRuns) {
  Engine e;
  bool ran = false;
  e.schedule_at(3.0, [&] { ran = true; });
  e.run_until(3.0);
  EXPECT_TRUE(ran);
}

// -------------------------------------------------------- ServiceCenter ---

TEST(ServiceCenter, ServesOneJob) {
  Engine e;
  ServiceCenter sc(e, "cpu");
  SimTime done_at = -1.0;
  sc.submit(2.5, [&] { done_at = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(done_at, 2.5);
  EXPECT_EQ(sc.completed(), 1u);
}

TEST(ServiceCenter, FifoQueueing) {
  Engine e;
  ServiceCenter sc(e, "cpu");
  std::vector<std::pair<int, SimTime>> done;
  for (int i = 0; i < 3; ++i) {
    sc.submit(1.0, [&done, i, &e] { done.emplace_back(i, e.now()); });
  }
  EXPECT_EQ(sc.load(), 3u);
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 0);
  EXPECT_DOUBLE_EQ(done[0].second, 1.0);
  EXPECT_DOUBLE_EQ(done[1].second, 2.0);
  EXPECT_DOUBLE_EQ(done[2].second, 3.0);
}

TEST(ServiceCenter, MultipleServersRunInParallel) {
  Engine e;
  ServiceCenter sc(e, "dual", /*servers=*/2);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    sc.submit(1.0, [&] { done.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 1.0);
  EXPECT_DOUBLE_EQ(done[2], 2.0);
  EXPECT_DOUBLE_EQ(done[3], 2.0);
}

TEST(ServiceCenter, FiniteQueueDropsWhenFull) {
  Engine e;
  ServiceCenter sc(e, "bounded", /*servers=*/1, /*queue_capacity=*/1);
  int completions = 0;
  EXPECT_TRUE(sc.submit(1.0, [&] { ++completions; }));   // in service
  EXPECT_TRUE(sc.submit(1.0, [&] { ++completions; }));   // queued
  EXPECT_FALSE(sc.submit(1.0, [&] { ++completions; }));  // dropped
  EXPECT_EQ(sc.dropped(), 1u);
  e.run();
  EXPECT_EQ(completions, 2);
}

TEST(ServiceCenter, UtilizationOfSaturatedServerIsOne) {
  Engine e;
  ServiceCenter sc(e, "cpu");
  for (int i = 0; i < 10; ++i) sc.submit(1.0, nullptr);
  e.run();
  EXPECT_NEAR(sc.utilization(e.now()), 1.0, 1e-12);
}

TEST(ServiceCenter, UtilizationOfHalfIdleServer) {
  Engine e;
  ServiceCenter sc(e, "cpu");
  sc.submit(1.0, nullptr);
  e.schedule_at(3.0, [&] { sc.submit(1.0, nullptr); });
  e.run();
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
  EXPECT_NEAR(sc.utilization(e.now()), 0.5, 1e-12);
}

TEST(ServiceCenter, MeanWaitExcludesService) {
  Engine e;
  ServiceCenter sc(e, "cpu");
  sc.submit(2.0, nullptr);  // waits 0
  sc.submit(2.0, nullptr);  // waits 2
  e.run();
  EXPECT_DOUBLE_EQ(sc.mean_wait(), 1.0);
  EXPECT_DOUBLE_EQ(sc.mean_service(), 2.0);
}

TEST(ServiceCenter, ResetStatsClearsWindow) {
  Engine e;
  ServiceCenter sc(e, "cpu");
  sc.submit(1.0, nullptr);
  e.run();
  sc.reset_stats();
  EXPECT_EQ(sc.completed(), 0u);
  e.schedule_in(1.0, [&] { sc.submit(1.0, nullptr); });
  e.run();
  EXPECT_EQ(sc.completed(), 1u);
  EXPECT_NEAR(sc.utilization(e.now()), 0.5, 1e-12);
}

TEST(ServiceCenter, ZeroServiceTimeCompletesImmediately) {
  Engine e;
  ServiceCenter sc(e, "cpu");
  bool done = false;
  sc.submit(0.0, [&] { done = true; });
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

// ------------------------------------------------------------------ Rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(7);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(r.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[r.uniform_int(10)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalMeanMatchesFormula) {
  Rng r(13);
  const double mu = 2.0, sigma = 0.5;
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.lognormal(mu, sigma));
  EXPECT_NEAR(acc.mean(), std::exp(mu + sigma * sigma / 2.0), 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.exponential(4.0));
  EXPECT_NEAR(acc.mean(), 0.25, 0.01);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng r(19);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.bounded_pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 1000.0);
  }
}

// --------------------------------------------------------------- Zipf -----

TEST(Zipf, PmfSumsToOne) {
  const ZipfSampler z(100, 0.8);
  double sum = 0.0;
  for (std::size_t k = 0; k < 100; ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsMostPopular) {
  const ZipfSampler z(1000, 0.8);
  for (std::size_t k = 1; k < 1000; ++k) EXPECT_GT(z.pmf(0), z.pmf(k));
}

TEST(Zipf, EmpiricalMatchesPmf) {
  const ZipfSampler z(50, 1.0);
  Rng r(23);
  std::vector<int> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (std::size_t k = 0; k < 50; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.pmf(k), 0.005)
        << "rank " << k;
  }
}

TEST(Zipf, AlphaZeroIsUniform) {
  const ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-9);
}

TEST(Zipf, SingleElementAlwaysSampled) {
  const ZipfSampler z(1, 0.8);
  Rng r(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(r), 0u);
}

// ----------------------------------------------------------- fuzz/prop ---

TEST(EngineFuzz, RandomScheduleAndCancelIsDeterministic) {
  // Two identical random schedules must execute the same event multiset in
  // the same order; time must be monotone throughout.
  const auto run = [](std::uint64_t seed) {
    Engine e;
    Rng rng(seed);
    std::vector<int> order;
    std::vector<EventId> ids;
    SimTime last = 0.0;
    for (int i = 0; i < 500; ++i) {
      const auto t = rng.uniform(0.0, 100.0);
      ids.push_back(e.schedule_at(t, [&order, &e, &last, i] {
        EXPECT_GE(e.now(), last);
        last = e.now();
        order.push_back(i);
      }));
    }
    for (int i = 0; i < 100; ++i) {
      e.cancel(ids[rng.uniform_int(ids.size())]);
    }
    e.run();
    return order;
  };
  const auto a = run(1234);
  const auto b = run(1234);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 350u);  // at most 100 distinct cancellations
}

TEST(EngineFuzz, NestedChainsInterleaveStably) {
  Engine e;
  std::vector<int> order;
  // Each chain re-schedules itself through its slot here, which outlives
  // the run: a closure holding a shared_ptr to itself would never be freed.
  std::vector<std::function<void()>> steps(4);
  for (int chain = 0; chain < 4; ++chain) {
    std::function<void()>* step = &steps[static_cast<std::size_t>(chain)];
    *step = [&e, &order, chain, step, n = std::make_shared<int>(0)]() {
      order.push_back(chain);
      if (++*n < 25) e.schedule_in(1.0, *step);
    };
    e.schedule_in(1.0, *step);
  }
  e.run();
  ASSERT_EQ(order.size(), 100u);
  // At every tick, chains fire in their scheduling order 0,1,2,3.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i % 4));
  }
}

TEST(ServiceCenterProp, WorkConservation) {
  // Total busy time equals total submitted service demand when nothing is
  // dropped (single server).
  Engine e;
  ServiceCenter sc(e, "cpu");
  Rng rng(7);
  double total = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double s = rng.uniform(0.01, 1.0);
    total += s;
    const double at = rng.uniform(0.0, 50.0);
    e.schedule_at(at, [&sc, s] { sc.submit(s, nullptr); });
  }
  e.run();
  EXPECT_EQ(sc.completed(), 200u);
  EXPECT_NEAR(sc.busy_ms(e.now()), total, 1e-6);
  EXPECT_GE(e.now(), total);  // one server cannot finish faster than the work
}

TEST(ServiceCenterProp, LoadCountsQueueAndService) {
  Engine e;
  ServiceCenter sc(e, "cpu", /*servers=*/2);
  for (int i = 0; i < 5; ++i) sc.submit(1.0, nullptr);
  EXPECT_EQ(sc.in_service(), 2u);
  EXPECT_EQ(sc.queue_length(), 3u);
  EXPECT_EQ(sc.load(), 5u);
  e.run();
  EXPECT_EQ(sc.load(), 0u);
}

TEST(ServiceCenterProp, MM1QueueMatchesAnalyticWait) {
  // Validation against queueing theory: Poisson arrivals (lambda = 0.5/ms),
  // exponential service (mu = 1/ms) => M/M/1 with rho = 0.5; the analytic
  // mean queueing delay is Wq = rho / (mu - lambda) = 1 ms.
  Engine e;
  ServiceCenter sc(e, "mm1");
  Rng rng(99);
  SimTime t = 0.0;
  for (int i = 0; i < 200000; ++i) {
    t += rng.exponential(0.5);
    const double service = rng.exponential(1.0);
    e.schedule_at(t, [&sc, service] { sc.submit(service, nullptr); });
  }
  e.run();
  EXPECT_EQ(sc.completed(), 200000u);
  EXPECT_NEAR(sc.mean_wait(), 1.0, 0.1);
  EXPECT_NEAR(sc.utilization(e.now()), 0.5, 0.02);
}

// -------------------------------------------------------------- Stats -----

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_NEAR(a.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  const Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(BusyTracker, AccumulatesBusyTime) {
  BusyTracker b;
  b.reset(0.0);
  b.set_busy(true, 1.0);
  b.set_busy(false, 3.0);
  b.set_busy(true, 5.0);
  b.set_busy(false, 6.0);
  EXPECT_NEAR(b.utilization(10.0), 0.3, 1e-12);
}

TEST(BusyTracker, RedundantTransitionsIgnored) {
  BusyTracker b;
  b.reset(0.0);
  b.set_busy(true, 1.0);
  b.set_busy(true, 2.0);  // no-op
  b.set_busy(false, 3.0);
  EXPECT_NEAR(b.busy_time(3.0), 2.0, 1e-12);
}

TEST(BusyTracker, OpenIntervalCountsUpToNow) {
  BusyTracker b;
  b.reset(0.0);
  b.set_busy(true, 2.0);
  EXPECT_NEAR(b.utilization(4.0), 0.5, 1e-12);
}

TEST(LatencyHistogram, PercentilesBracketData) {
  LatencyHistogram h(0.01, 100.0, 256);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) / 100.0);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 5.005, 0.01);
  EXPECT_NEAR(h.percentile(50), 5.0, 0.5);
  EXPECT_NEAR(h.percentile(95), 9.5, 0.7);
  EXPECT_GE(h.percentile(100), 9.9);
}

TEST(LatencyHistogram, EmptyPercentileIsZero) {
  const LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

}  // namespace
}  // namespace coop::sim
