// Integration tests: the full simulated cluster (clients -> router -> server
// -> caches/disks -> response) for both architectures.
#include <gtest/gtest.h>

#include "server/cluster.hpp"
#include "trace/presets.hpp"
#include "trace/synthetic.hpp"

namespace coop::server {
namespace {

trace::Trace tiny_trace(std::size_t files, std::size_t requests,
                        std::uint64_t seed = 3,
                        double mean_bytes = 16.0 * 1024) {
  trace::SyntheticSpec s;
  s.name = "tiny";
  s.num_files = files;
  s.num_requests = requests;
  s.zipf_alpha = 0.8;
  s.mean_file_bytes = mean_bytes;
  s.seed = seed;
  return trace::generate(s);
}

ClusterConfig base_config(SystemKind system, std::size_t nodes,
                          std::uint64_t mem_mb) {
  ClusterConfig c;
  c.system = system;
  c.nodes = nodes;
  c.memory_per_node = mem_mb * 1024 * 1024;
  c.clients.clients = 16;
  c.clients.warmup_fraction = 0.3;
  return c;
}

// ------------------------------------------------------------ lifecycle ---

TEST(SimCluster, CcmServesEveryRequest) {
  const auto trace = tiny_trace(50, 2000);
  const auto m = run_simulation(base_config(SystemKind::kCcNem, 4, 4), trace);
  EXPECT_EQ(m.requests, 1400u);  // 70% of 2000 measured
  EXPECT_GT(m.throughput_rps, 0.0);
  EXPECT_GT(m.bytes_served, 0u);
  EXPECT_GT(m.duration_ms, 0.0);
}

TEST(SimCluster, L2sServesEveryRequest) {
  const auto trace = tiny_trace(50, 2000);
  const auto m = run_simulation(base_config(SystemKind::kL2S, 4, 4), trace);
  EXPECT_EQ(m.requests, 1400u);
  EXPECT_GT(m.throughput_rps, 0.0);
}

TEST(SimCluster, DeterministicAcrossRuns) {
  const auto trace = tiny_trace(50, 1500);
  const auto cfg = base_config(SystemKind::kCcNem, 4, 8);
  const auto a = run_simulation(cfg, trace);
  const auto b = run_simulation(cfg, trace);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.disk_block_reads, b.disk_block_reads);
  EXPECT_EQ(a.remote_block_fetches, b.remote_block_fetches);
}

TEST(SimCluster, RejectsBadConfig) {
  const auto trace = tiny_trace(10, 100);
  auto cfg = base_config(SystemKind::kCcNem, 0, 4);
  EXPECT_THROW(run_simulation(cfg, trace), std::invalid_argument);
  cfg = base_config(SystemKind::kCcNem, 2, 4);
  cfg.params.disk_per_kb_ms = 0.0;
  EXPECT_THROW(run_simulation(cfg, trace), std::invalid_argument);
}

// -------------------------------------------------------------- behavior ---

TEST(SimCluster, WarmCacheMeansFewDiskReads) {
  // Working set (50 files * ~16 KB = ~1 MB) far below 4 nodes * 32 MB: after
  // warm-up, essentially everything is cached.
  const auto trace = tiny_trace(50, 3000);
  const auto m = run_simulation(base_config(SystemKind::kCcNem, 4, 32), trace);
  EXPECT_GT(m.global_hit_rate(), 0.98);
  // A trickle of disk reads can remain (cold files first touched after
  // warm-up), but well under 1% of requests.
  EXPECT_LT(static_cast<double>(m.disk_block_reads),
            0.02 * static_cast<double>(m.requests));
}

TEST(SimCluster, TinyMemoryMeansDiskBound) {
  // Working set of ~8 MB against 2 nodes * 1 MB: the disks must work.
  const auto trace = tiny_trace(500, 3000, /*seed=*/9);
  const auto m = run_simulation(base_config(SystemKind::kCcNem, 2, 1), trace);
  EXPECT_LT(m.global_hit_rate(), 0.9);
  EXPECT_GT(m.disk_block_reads, 100u);
  EXPECT_GT(m.disk_utilization, 0.3);
}

TEST(SimCluster, CcmHitsAreMostlyRemoteAtModerateMemory) {
  // The paper (§5): CC-NEM local hit rates 12-21%, remote 60-75% when memory
  // is scarce relative to the working set.
  const auto trace = tiny_trace(2000, 8000, /*seed=*/17);
  const auto m = run_simulation(base_config(SystemKind::kCcNem, 8, 2), trace);
  EXPECT_GT(m.remote_hit_rate, m.local_hit_rate);
}

TEST(SimCluster, L2sMigratesRequestsToHolders) {
  const auto trace = tiny_trace(200, 4000);
  const auto m = run_simulation(base_config(SystemKind::kL2S, 4, 32), trace);
  // With RR DNS, ~3/4 of requests land on a non-caching node and hand off.
  EXPECT_GT(m.handoffs, 1000u);
  EXPECT_GT(m.remote_hit_rate, m.local_hit_rate);
  EXPECT_GT(m.global_hit_rate(), 0.9);
}

TEST(SimCluster, L2sKeepsOneCopySoAggregateCacheIsLarge) {
  // L2S with migration should beat naive behavior: its global hit rate must
  // be high even when per-node memory is a quarter of the working set.
  const auto trace = tiny_trace(800, 8000, /*seed=*/23);  // ~12 MB working set
  const auto m = run_simulation(base_config(SystemKind::kL2S, 4, 4), trace);
  EXPECT_GT(m.global_hit_rate(), 0.75);
}

TEST(SimCluster, SchedBeatsBasicOnThroughput) {
  // The paper's first finding: disk scheduling alone improves CC-Basic.
  // Needs a disk-saturated setup (deep disk queues) for reordering to
  // matter: large files, tiny memories, many concurrent clients.
  const auto trace = tiny_trace(2000, 6000, /*seed=*/29, /*mean=*/48.0 * 1024);
  auto cfg_basic = base_config(SystemKind::kCcBasic, 4, 1);
  auto cfg_sched = base_config(SystemKind::kCcSched, 4, 1);
  cfg_basic.clients.clients = 64;
  cfg_sched.clients.clients = 64;
  const auto basic = run_simulation(cfg_basic, trace);
  const auto sched = run_simulation(cfg_sched, trace);
  EXPECT_GT(sched.throughput_rps, basic.throughput_rps);
  // Fewer seeks per disk read is the mechanism.
  EXPECT_LT(static_cast<double>(sched.disk_seeks) /
                static_cast<double>(sched.disk_block_reads),
            static_cast<double>(basic.disk_seeks) /
                static_cast<double>(basic.disk_block_reads));
}

TEST(SimCluster, NemBeatsSchedOnOverflowingWorkingSet) {
  // The paper's second finding: protecting masters buys the big win.
  const auto trace = tiny_trace(1500, 8000, /*seed=*/31);
  const auto sched =
      run_simulation(base_config(SystemKind::kCcSched, 4, 2), trace);
  const auto nem =
      run_simulation(base_config(SystemKind::kCcNem, 4, 2), trace);
  EXPECT_GT(nem.throughput_rps, sched.throughput_rps);
  EXPECT_GT(nem.global_hit_rate(), sched.global_hit_rate());
}

TEST(SimCluster, ResponseTimesArePositiveAndOrdered) {
  const auto trace = tiny_trace(100, 2000);
  const auto m = run_simulation(base_config(SystemKind::kCcNem, 4, 16), trace);
  EXPECT_GT(m.mean_response_ms, 0.0);
  EXPECT_LE(m.p50_response_ms, m.p95_response_ms);
  EXPECT_LE(m.p95_response_ms, m.p99_response_ms);
}

TEST(SimCluster, UtilizationsAreFractions) {
  const auto trace = tiny_trace(300, 3000);
  const auto m = run_simulation(base_config(SystemKind::kCcNem, 4, 2), trace);
  for (const double u : {m.cpu_utilization, m.disk_utilization,
                         m.nic_utilization, m.max_disk_utilization,
                         m.router_utilization}) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  EXPECT_GE(m.max_disk_utilization, m.disk_utilization);
}

TEST(SimCluster, HandoffAblationCostsL2sThroughput) {
  // The hand-off advantage (Bianchini & Carrera measured ~7%) shows when
  // requests actually migrate and the cluster is CPU/NIC-bound. Replication
  // is pinned off so 3/4 of requests hand off, everything is cached (no
  // disk noise), and the no-hand-off relay pays a second serve + transfer.
  const auto trace = tiny_trace(50, 12000, /*seed=*/37, /*mean=*/64.0 * 1024);
  auto with = base_config(SystemKind::kL2S, 4, 32);
  with.clients.clients = 64;
  with.clients.warmup_fraction = 0.5;
  with.overload_threshold = 1u << 30;  // replication off
  auto without = with;
  without.tcp_handoff = false;
  const auto m_with = run_simulation(with, trace);
  const auto m_without = run_simulation(without, trace);
  EXPECT_GT(m_with.throughput_rps, m_without.throughput_rps);
  EXPECT_LT(m_with.mean_response_ms, m_without.mean_response_ms);
  EXPECT_GT(m_with.handoffs, 4000u);
}

TEST(SimCluster, HintedDirectoryCloseToPerfect) {
  const auto trace = tiny_trace(300, 5000, /*seed=*/41);
  auto perfect = base_config(SystemKind::kCcNem, 4, 8);
  auto hinted = perfect;
  hinted.directory = cache::DirectoryMode::kHinted;
  const auto mp = run_simulation(perfect, trace);
  const auto mh = run_simulation(hinted, trace);
  EXPECT_GT(mh.throughput_rps, 0.5 * mp.throughput_rps);
}

TEST(SimCluster, CustomHomePlacementWorks) {
  const auto trace = tiny_trace(100, 2000);
  auto cfg = base_config(SystemKind::kCcNem, 4, 8);
  cfg.home_of = [](trace::FileId) { return std::uint16_t{0}; };
  const auto m = run_simulation(cfg, trace);
  EXPECT_EQ(m.requests, 1400u);
  EXPECT_GT(m.throughput_rps, 0.0);
}

TEST(SimCluster, MoreNodesMoreThroughputWhenDiskBound) {
  const auto trace = tiny_trace(1200, 6000, /*seed=*/43);
  const auto small =
      run_simulation(base_config(SystemKind::kCcNem, 2, 2), trace);
  const auto large =
      run_simulation(base_config(SystemKind::kCcNem, 8, 2), trace);
  EXPECT_GT(large.throughput_rps, small.throughput_rps);
}

// One smoke cell per (preset, system): everything serves, metrics sane.
struct PresetParam {
  const char* preset;
  SystemKind system;
};

// ctest names each case after this text; the default byte dump would carry
// the preset pointer and change with every address-space layout.
void PrintTo(const PresetParam& p, std::ostream* os) {
  *os << p.preset << '/' << to_string(p.system);
}

class PresetSmoke : public testing::TestWithParam<PresetParam> {};

TEST_P(PresetSmoke, ServesTruncatedPreset) {
  const auto p = GetParam();
  trace::SyntheticSpec spec;
  // Miniaturized preset: keep the name-selected popularity/size character
  // but only 4000 requests so the whole matrix stays fast.
  for (const auto& full : trace::all_presets()) {
    if (full.name == p.preset) spec = full;
  }
  spec.num_files = 1500;
  spec.num_requests = 4000;
  const auto tr = trace::generate(spec);
  auto cfg = base_config(p.system, 4, 4);
  const auto m = run_simulation(cfg, tr);
  EXPECT_EQ(m.requests, 2800u) << p.preset;
  EXPECT_GT(m.throughput_rps, 0.0);
  EXPECT_GE(m.global_hit_rate(), 0.0);
  EXPECT_LE(m.global_hit_rate(), 1.0);
  EXPECT_LE(m.local_hit_rate, 1.0);
  EXPECT_GT(m.mean_response_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetSmoke,
    testing::Values(PresetParam{"calgary", SystemKind::kL2S},
                    PresetParam{"calgary", SystemKind::kCcNem},
                    PresetParam{"clarknet", SystemKind::kL2S},
                    PresetParam{"clarknet", SystemKind::kCcNem},
                    PresetParam{"nasa", SystemKind::kCcBasic},
                    PresetParam{"nasa", SystemKind::kCcNem},
                    PresetParam{"rutgers", SystemKind::kCcSched},
                    PresetParam{"rutgers", SystemKind::kCcNem}));

TEST(SimCluster, WholeFileModeServesAndStaysClose) {
  const auto trace = tiny_trace(400, 4000, /*seed=*/51);
  auto block_cfg = base_config(SystemKind::kCcNem, 4, 8);
  auto file_cfg = block_cfg;
  file_cfg.ccm_whole_file = true;
  const auto block_m = run_simulation(block_cfg, trace);
  const auto file_m = run_simulation(file_cfg, trace);
  EXPECT_EQ(file_m.requests, block_m.requests);
  // §6's question: the adaptation should be in the same performance class.
  EXPECT_GT(file_m.throughput_rps, 0.5 * block_m.throughput_rps);
  EXPECT_LT(file_m.throughput_rps, 2.0 * block_m.throughput_rps);
}

TEST(SimCluster, HintedMisdirectsAreCountedButCheap) {
  const auto trace = tiny_trace(300, 5000, /*seed=*/53);
  auto cfg = base_config(SystemKind::kCcNem, 4, 16);
  cfg.directory = cache::DirectoryMode::kHinted;
  const auto m = run_simulation(cfg, trace);
  EXPECT_GT(m.hint_misdirects, 0u);
  auto perfect = base_config(SystemKind::kCcNem, 4, 16);
  const auto mp = run_simulation(perfect, trace);
  EXPECT_GT(m.throughput_rps, 0.85 * mp.throughput_rps);
}

TEST(SimCluster, SystemKindNames) {
  EXPECT_STREQ(to_string(SystemKind::kL2S), "L2S");
  EXPECT_STREQ(to_string(SystemKind::kCcBasic), "CC-Basic");
  EXPECT_STREQ(to_string(SystemKind::kCcSched), "CC-Sched");
  EXPECT_STREQ(to_string(SystemKind::kCcNem), "CC-NEM");
}

}  // namespace
}  // namespace coop::server
