// Microbenchmarks (google-benchmark) for the core data structures and the
// end-to-end simulator: event queue throughput, LRU operations, directory
// lookups, Zipf sampling, policy transitions, and simulated requests/sec.
#include <benchmark/benchmark.h>

#include "cache/coop_cache.hpp"
#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "cache/directory.hpp"
#include "cache/node_cache.hpp"
#include "server/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/service_center.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace coop;

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      e.schedule_at(static_cast<double>(i % 17), [&sink] { ++sink; });
    }
    e.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_EngineNestedChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) e.schedule_in(1.0, chain);
    };
    e.schedule_in(1.0, chain);
    e.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineNestedChain);

void BM_ServiceCenterThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::ServiceCenter sc(e, "cpu");
    for (int i = 0; i < 1000; ++i) sc.submit(0.1, nullptr);
    e.run();
    benchmark::DoNotOptimize(sc.completed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ServiceCenterThroughput);

void BM_LruTouch(benchmark::State& state) {
  // A touch with the newest age: one index probe and a relink to the back.
  cache::NodeCache c(4096ull * 8192, 8192);
  cache::LogicalClock clock;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    c.insert(cache::BlockId{i, 0}, /*master=*/true, clock.next());
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    c.touch(cache::BlockId{i++ & 4095, 0}, clock.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruTouch);

void BM_LruAgedInsert(benchmark::State& state) {
  // Each step evicts the oldest entry and admits one whose age lands in the
  // oldest eighth, as a forwarded master's does in sim-rutgers. The youngest
  // 7/8 of the slots hold fixed young ages; the oldest eighth churns under a
  // clock that advances one tick per step, so the shape stays put.
  const auto slots = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t band = slots / 8;
  constexpr std::uint64_t kYoung = 1ull << 40;
  cache::NodeCache c(std::uint64_t{slots} * 8192, 8192);
  for (std::uint32_t i = band; i < slots; ++i) {
    c.insert(cache::BlockId{i, 0}, /*master=*/true, kYoung + i);
  }
  std::uint64_t clock = 0;
  for (std::uint32_t i = 0; i < band; ++i) {
    c.insert(cache::BlockId{i, 0}, /*master=*/true, ++clock);
  }
  sim::Rng rng(4);
  for (auto _ : state) {
    const auto victim = *c.oldest();
    c.erase(victim.block);
    c.insert(victim.block, /*master=*/true, ++clock + rng.uniform_int(band));
    benchmark::DoNotOptimize(victim);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruAgedInsert)->Arg(64)->Arg(1024)->Arg(4096);

void BM_DirectoryLookup(benchmark::State& state) {
  cache::PerfectDirectory dir;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    dir.set_master(cache::BlockId{i, i % 8}, static_cast<cache::NodeId>(i % 8));
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.lookup(cache::BlockId{i++ % 100000, i % 8}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryLookup);

void BM_ZipfSample(benchmark::State& state) {
  const sim::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.75);
  sim::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(30000);

void BM_ClusterCacheAccess(benchmark::State& state) {
  cache::CoopCacheConfig cfg;
  cfg.nodes = 8;
  cfg.capacity_bytes = 8ull * 1024 * 1024;
  cfg.policy = state.range(0) ? cache::Policy::kNeverEvictMaster
                              : cache::Policy::kBasic;
  cache::ClusterCache cc(cfg);
  sim::Rng rng(2);
  const sim::ZipfSampler zipf(20000, 0.75);
  for (auto _ : state) {
    const auto node = static_cast<cache::NodeId>(rng.uniform_int(8));
    const auto file = static_cast<cache::FileId>(zipf.sample(rng));
    benchmark::DoNotOptimize(cc.access(node, file, 16 * 1024));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterCacheAccess)->Arg(0)->Arg(1)->ArgNames({"nem"});

void BM_MiddlewareRead(benchmark::State& state) {
  // End-to-end read latency through the threaded runtime (warm cache:
  // policy transition + byte copy under the shard lock, on this thread).
  std::vector<std::uint32_t> sizes(64, 16 * 1024);
  auto storage = std::make_shared<ccm::MemStorage>(std::move(sizes));
  ccm::CcmConfig cfg;
  cfg.nodes = 4;
  cfg.capacity_bytes = 8ull << 20;
  ccm::CcmCluster cluster(cfg, storage);
  for (cache::FileId f = 0; f < 64; ++f) cluster.read(0, f);  // warm
  sim::Rng rng(3);
  for (auto _ : state) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(64));
    const auto via = static_cast<cache::NodeId>(rng.uniform_int(4));
    benchmark::DoNotOptimize(cluster.read(via, f));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 16 * 1024);
}
BENCHMARK(BM_MiddlewareRead);

void BM_SimulatedRequests(benchmark::State& state) {
  trace::SyntheticSpec spec;
  spec.num_files = 2000;
  spec.num_requests = 10000;
  spec.zipf_alpha = 0.75;
  spec.seed = 5;
  const auto tr = trace::generate(spec);
  server::ClusterConfig cfg;
  cfg.system = state.range(0) ? server::SystemKind::kCcNem
                              : server::SystemKind::kL2S;
  cfg.nodes = 8;
  cfg.memory_per_node = 16ull * 1024 * 1024;
  cfg.clients.clients = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server::run_simulation(cfg, tr));
  }
  state.SetItemsProcessed(state.iterations() * spec.num_requests);
  state.SetLabel("simulated requests/sec");
}
BENCHMARK(BM_SimulatedRequests)->Arg(0)->Arg(1)->ArgNames({"ccm"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
