// ccm_node: one cooperative-caching node as its own OS process. Launch N of
// these (node ids 0..N-1) against the same --port-base and they form a
// middleware cluster over 127.0.0.1 TCP sockets, then serve the identical
// mixed read/write/invalidate workload as bench/ccm_stress — the
// multi-process deployment of the exact same CcmCluster runtime, swapped
// onto the socket transport.
//
// The process hosting node 0 ("home") owns the backing BufferStorage, the
// master DirectoryService, and the barrier service; every other process
// mounts RemoteStorage / RemoteDirectory proxies that reach home over kDir*
// and kStorage* RPCs. Driver threads are partitioned by id (driver d runs in
// process d % nodes) and pin their operations to the local node while
// consuming the same RNG streams as ccm_stress, so with
// --deterministic-writes the final storage bytes at home are byte-identical
// to an in-process run — `--dump-storage` emits them for the comparison (see
// docs/MIDDLEWARE.md, "Multi-process loopback cluster").
//
// Flags (workload flags must match across all N processes):
//   --node=I             this process's node id               (required)
//   --nodes=N            cluster size                         (default 4)
//   --port-base=P        node i listens on P+i                (default 37100)
//   --workers=N          max concurrent operations per node   (default 2)
//   --blocks-per-node, --files, --file-blocks, --drivers,
//   --iters, --write-pct, --invalidate-pct, --seed, --policy, --directory,
//   --deterministic-writes   as in ccm_stress
//   --dump-storage=PATH  home only: final storage bytes -> PATH
//   --connect-timeout-ms=N   peer dial/mesh deadline          (default 20000)
//   --json[=PATH]        emit a JSON report (stdout or PATH), including a
//                        "metrics" block with per-RPC-kind latency
//                        percentiles (see docs/OBSERVABILITY.md) and the
//                        number of this node's reads whose bytes failed the
//                        workload's shape check (read_check_failures;
//                        non-zero makes "consistent" false and exits 1)
//   --scrape             hold an extra post-run barrier so the home process
//                        can scrape every process over kStatsPull; pass to
//                        ALL nodes whenever the home gets --scrape-out
//   --scrape-out=PATH    home only (implies --scrape): pull one merged
//                        cluster-wide metrics snapshot over kStatsPull RPCs
//                        and write it as JSON to PATH
//   --runtime-trace-out=PATH  arm wall-clock runtime tracing for the
//                        measured phase and write this process's span log to
//                        PATH; merge the per-process logs with
//                        tools/ccm_metrics --trace-out for a Perfetto view
//   --faults=SPEC        inject faults from an explicit schedule spec (see
//                        net::FaultSchedule::parse / docs/FAULTS.md)
//   --fault-seed=N       inject a generated schedule drawn from seed N
//                        (ignored when --faults gives an explicit spec)
//   --fault-log=PATH     write this process's injected-event log to PATH
//   --lockcheck          arm the lock-order watchdog; violations abort and a
//                        final whole-graph audit gates the exit code
//   --lockcheck-report=PATH  also append watchdog violations to PATH
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccm/cluster.hpp"
#include "ccm/directory_client.hpp"
#include "ccm/remote_storage.hpp"
#include "ccm/storage.hpp"
#include "ccm_workload.hpp"
#include "ccm_report.hpp"
#include "net/fault.hpp"
#include "net/tcp_transport.hpp"
#include "obs/runtime_trace.hpp"
#include "util/audit.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/lockcheck.hpp"

using namespace coop;

namespace {

/// Seed (all files written once) and done (all ops retired) fences.
constexpr std::uint32_t kPhaseSeeded = 0;
constexpr std::uint32_t kPhaseDone = 1;
/// Post-run metrics fence: peers park here (protocol threads still serving)
/// while the home pulls every process's registry over kStatsPull.
constexpr std::uint32_t kPhaseScraped = 2;

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  if (!flags.has("node")) {
    std::cerr << "ccm_node: --node=I is required\n";
    return 2;
  }
  const auto local = static_cast<cache::NodeId>(flags.get_int("node", 0));
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 4));
  const auto port_base =
      static_cast<std::uint16_t>(flags.get_int("port-base", 37100));
  const auto blocks_per_node =
      static_cast<std::uint64_t>(flags.get_int("blocks-per-node", 64));
  const auto files = static_cast<std::size_t>(flags.get_int("files", 48));
  const auto file_blocks =
      static_cast<std::uint32_t>(flags.get_int("file-blocks", 4));
  const auto workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  const auto drivers = static_cast<std::size_t>(
      flags.get_int("drivers", static_cast<std::int64_t>(nodes)));
  if (local >= nodes) {
    std::cerr << "ccm_node: --node must be < --nodes\n";
    return 2;
  }

  ccm::CcmConfig cfg;
  cfg.nodes = nodes;
  cfg.block_bytes = 8 * 1024;
  cfg.capacity_bytes = blocks_per_node * cfg.block_bytes;
  cfg.workers_per_node = workers;
  cfg.policy = flags.get("policy", "nem") == "basic"
                   ? cache::Policy::kBasic
                   : cache::Policy::kNeverEvictMaster;
  cfg.directory = flags.get("directory", "perfect") == "hinted"
                      ? cache::DirectoryMode::kHinted
                      : cache::DirectoryMode::kPerfect;

  ccm_bench::Workload wl;
  wl.nodes = nodes;
  wl.files = files;
  wl.file_blocks = file_blocks;
  wl.block_bytes = cfg.block_bytes;
  wl.drivers = drivers;
  wl.iters = static_cast<int>(flags.get_int("iters", 2000));
  wl.write_pct = flags.get_int("write-pct", 20);
  wl.invalidate_pct = flags.get_int("invalidate-pct", 2);
  wl.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  wl.deterministic_writes = flags.get_bool("deterministic-writes", false);
  wl.validate();

  const bool lockcheck_on = flags.get_bool("lockcheck", false);
  const std::string lockcheck_report = flags.get("lockcheck-report");
  if (lockcheck_on) {
    // Armed before the transport exists so socket-layer locks are watched
    // too. Per process: each ccm_node only sees its own slice of the lock
    // graph, but the cross-process wait-for chains all end at the home
    // process by design (see cluster.hpp, "Concurrency model").
    util::lockcheck::set_enabled(true);
    audit::set_handler([local, lockcheck_report](const audit::Violation& v) {
      if (!lockcheck_report.empty()) {
        std::ofstream out(lockcheck_report, std::ios::app);
        out << "node " << local << ": " << v.invariant << "\n"
            << v.detail << "\n";
      }
      std::cerr << "ccm_node " << local << ": " << v.invariant
                << " violated\n" << v.detail << "\n";
      std::abort();
    });
  }

  const cache::NodeId home = 0;
  const bool is_home = local == home;

  // --- transport: bind, then mesh with every peer over loopback ---
  net::TcpConfig tcfg;
  tcfg.local_node = local;
  tcfg.nodes = nodes;
  tcfg.listen_port = static_cast<std::uint16_t>(port_base + local);
  tcfg.connect_timeout =
      std::chrono::milliseconds(flags.get_int("connect-timeout-ms", 20000));
  auto transport = std::make_shared<net::TcpTransport>(tcfg);
  std::vector<net::TcpPeer> peers;
  for (std::size_t n = 0; n < nodes; ++n) {
    peers.push_back(
        {"127.0.0.1", static_cast<std::uint16_t>(port_base + n)});
  }
  try {
    transport->connect_peers(peers);
  } catch (const std::exception& e) {
    std::cerr << "ccm_node " << local << ": mesh failed: " << e.what()
              << "\n";
    return 1;
  }

  // Fault injection: decorate the socket transport so this process's
  // outbound traffic (runtime RPCs and the home-service proxies alike) is
  // perturbed under a deterministic schedule.
  std::shared_ptr<net::FaultyTransport> faulty;
  std::shared_ptr<net::Transport> fabric = transport;
  const bool faults_on = flags.has("faults") || flags.has("fault-seed");
  if (faults_on) {
    const auto fault_seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
    const std::string spec = flags.get("faults");
    net::FaultSchedule schedule =
        (spec.empty() || spec == "true")
            ? net::FaultSchedule::generated(fault_seed)
            : net::FaultSchedule::parse(spec, fault_seed);
    faulty = std::make_shared<net::FaultyTransport>(transport,
                                                    std::move(schedule));
    fabric = faulty;
    std::cout << "ccm_node " << local << ": fault schedule ["
              << faulty->schedule().seed << "] "
              << faulty->schedule().to_string() << "\n";
  }

  // --- the node: home hosts the real storage + directory, peers proxy ---
  ccm::CcmHosting hosting;
  hosting.transport = fabric;
  hosting.local_nodes = {local};
  hosting.home = home;
  std::shared_ptr<ccm::Storage> storage;
  if (is_home) {
    storage = std::make_shared<ccm::BufferStorage>(
        std::vector<std::uint32_t>(files, wl.file_bytes()));
  } else {
    storage = std::make_shared<ccm::RemoteStorage>(
        fabric, local, home,
        std::vector<std::uint32_t>(files, wl.file_bytes()));
    hosting.directory =
        std::make_shared<ccm::RemoteDirectory>(fabric, local, home);
  }
  ccm::CcmCluster cluster(cfg, storage, hosting);
  transport->set_summary_source(
      [&cluster, local] { return cluster.published_summary(local); });

  // --- seed (home), fence, run this process's driver slice, fence ---
  if (is_home) wl.seed_files(cluster, {home});
  cluster.barrier(local, kPhaseSeeded);
  cluster.reset_stats();

  // Arm wall-clock span recording for the measured phase only (the seed
  // phase would flood the bounded log). Every process must get the flag or
  // remote handler slices are missing from the merged trace.
  const bool trace_on = flags.has("runtime-trace-out");
  if (trace_on) cluster.enable_runtime_trace();

  const ccm_bench::ReadCheck check(wl.block_bytes);
  std::vector<std::uint64_t> failed_reads(drivers, 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::size_t local_drivers = 0;
  for (std::size_t d = 0; d < drivers; ++d) {
    if (d % nodes != local) continue;
    ++local_drivers;
    threads.emplace_back([&, d] {
      failed_reads[d] = wl.run_driver(cluster, d, local, check);
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t read_check_failures = 0;
  for (const std::uint64_t f : failed_reads) read_check_failures += f;
  cluster.barrier(local, kPhaseDone);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Cluster-wide scrape, fenced so no process tears down mid-pull: the home
  // merges its own registry with one kStatsPull per remote node (deduped by
  // process), then everyone releases through the kPhaseScraped barrier.
  const bool scrape_on =
      flags.get_bool("scrape", false) || flags.has("scrape-out");
  if (scrape_on) {
    if (is_home && flags.has("scrape-out")) {
      const obs::MetricsSnapshot cluster_wide = cluster.scrape_cluster();
      util::JsonWriter j;
      j.begin_object();
      j.key("bench").value("ccm_node-scrape");
      j.key("nodes").value(static_cast<std::uint64_t>(nodes));
      ccm_bench::metrics_block(j, "metrics", cluster_wide);
      j.end_object();
      const std::string path = flags.get("scrape-out");
      std::ofstream out(path);
      out << j.str() << "\n";
      if (!out) {
        std::cerr << "ccm_node: cannot write cluster metrics to " << path
                  << "\n";
      } else {
        std::cout << "  cluster metrics (" << cluster_wide.processes
                  << " of " << nodes << " processes) -> " << path << "\n";
      }
    }
    cluster.barrier(local, kPhaseScraped);
  }

  // Everything since the post-seed reset_stats(), proxies' RPCs included.
  const auto s = cluster.stats();
  const auto& ts = s.transport;
  const double batching =
      ts.flushes ? static_cast<double>(ts.sent) /
                       static_cast<double>(ts.flushes)
                 : 0.0;
  const double local_ops =
      static_cast<double>(local_drivers) * static_cast<double>(wl.iters);
  // Each peer fetch asks one master for every block a read needs from it.
  const std::uint64_t fetches =
      cluster.metrics()
          .snapshot()
          .rpc[static_cast<std::size_t>(proto::MsgKind::kPeerFetch)]
          .calls;
  const double blocks_per_fetch =
      fetches ? static_cast<double>(s.remote_hits) /
                    static_cast<double>(fetches)
              : 0.0;
  std::cout << "ccm_node " << local << ": " << local_drivers << " drivers x "
            << wl.iters << " ops, elapsed " << util::fixed(secs, 3) << " s, "
            << util::fixed(secs > 0 ? local_ops / secs : 0.0, 0)
            << " ops/s\n"
            << "  hits: local " << s.local_hits << ", remote "
            << s.remote_hits << ", disk " << s.disk_reads << ", writes "
            << s.writes << "; peer-fetch rpcs " << fetches << " ("
            << util::fixed(blocks_per_fetch, 2) << " blocks per fetch)\n"
            << "  transport: rpcs " << ts.rpcs << ", frames sent " << ts.sent
            << " in " << ts.flushes << " flushes ("
            << util::fixed(batching, 2) << " msgs/flush), bytes tx "
            << ts.bytes_sent << " rx " << ts.bytes_received
            << ", frame errors " << ts.frame_errors << ", payload copies "
            << ts.payload_copies << "\n"
            << "  directory client: " << s.dir_client.trips() << " trips ("
            << s.dir_client.singles << " singles + " << s.dir_client.batches
            << " batches carrying " << s.dir_client.batched_ops
            << " ops), hints: " << s.hint_hits << " hits, " << s.hint_stale
            << " stale\n";
  if (faults_on) {
    std::cout << "  faults: drops " << ts.injected_drops << ", delays "
              << ts.injected_delays << ", duplicates "
              << ts.injected_duplicates << ", reorders " << ts.injected_reorders
              << "; rpc retries " << ts.rpc_retries << ", timeouts "
              << ts.rpc_timeouts << ", failures " << ts.rpc_failures << "\n";
  }

  int rc = 0;
  bool consistent = read_check_failures == 0;
  if (!consistent) {
    std::cerr << "ccm_node " << local << ": " << read_check_failures
              << " read(s) failed the block shape check\n";
    rc = 1;
  }
  if (is_home) {
    // Let the peers finish their final barrier polls and disconnect before
    // tearing the services down under them.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (transport->connected_peers() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (flags.has("dump-storage")) {
      const std::string path = flags.get("dump-storage");
      if (!ccm_bench::dump_storage(*storage, path)) {
        std::cerr << "ccm_node: cannot write storage dump to " << path
                  << "\n";
        rc = 1;
      } else {
        std::cout << "  storage dump -> " << path << "\n";
      }
    }
    if (!cluster.check_consistency()) {
      std::cerr << "ccm_node: home shard consistency BROKEN\n";
      consistent = false;
      rc = 1;
    }
  }

  if (flags.has("json")) {
    util::JsonWriter j;
    j.begin_object();
    j.key("bench").value("ccm_node");
    j.key("node").value(static_cast<std::uint64_t>(local));
    j.key("nodes").value(static_cast<std::uint64_t>(nodes));
    j.key("drivers_local").value(static_cast<std::uint64_t>(local_drivers));
    j.key("iters").value(static_cast<std::int64_t>(wl.iters));
    j.key("elapsed_seconds").value(secs);
    j.key("ops_per_second").value(secs > 0 ? local_ops / secs : 0.0);
    j.key("consistent").value(consistent);
    j.key("read_check_failures").value(read_check_failures);
    j.key("totals").begin_object();
    j.key("local_hits").value(s.local_hits);
    j.key("remote_hits").value(s.remote_hits);
    j.key("disk_reads").value(s.disk_reads);
    j.key("writes").value(s.writes);
    j.key("invalidations").value(s.invalidations);
    j.key("forwards_accepted").value(s.forwards_accepted);
    j.end_object();
    j.key("directory_ops").begin_object();
    j.key("lookups").value(s.directory.lookups);
    j.key("claims").value(s.directory.claims);
    j.key("masters_purged").value(s.directory.masters_purged);
    j.end_object();
    j.key("directory_client").begin_object();
    j.key("singles").value(s.dir_client.singles);
    j.key("batches").value(s.dir_client.batches);
    j.key("batched_ops").value(s.dir_client.batched_ops);
    j.key("trips").value(s.dir_client.trips());
    j.end_object();
    j.key("hints").begin_object();
    j.key("hits").value(s.hint_hits);
    j.key("stale").value(s.hint_stale);
    j.end_object();
    j.key("transport").begin_object();
    j.key("rpcs").value(ts.rpcs);
    j.key("frames_sent").value(ts.sent);
    j.key("flushes").value(ts.flushes);
    j.key("payload_copies").value(ts.payload_copies);
    j.key("bytes_sent").value(ts.bytes_sent);
    j.key("bytes_received").value(ts.bytes_received);
    j.key("frame_errors").value(ts.frame_errors);
    j.key("injected_drops").value(ts.injected_drops);
    j.key("injected_delays").value(ts.injected_delays);
    j.key("injected_duplicates").value(ts.injected_duplicates);
    j.key("injected_reorders").value(ts.injected_reorders);
    j.key("rpc_timeouts").value(ts.rpc_timeouts);
    j.key("rpc_retries").value(ts.rpc_retries);
    j.key("rpc_failures").value(ts.rpc_failures);
    j.end_object();
    // Same schema as ccm_stress's "metrics" block, scoped to this process.
    ccm_bench::metrics_block(j, "metrics", cluster.metrics().snapshot());
    if (faults_on) {
      j.key("fault_schedule").begin_object();
      j.key("seed").value(faulty->schedule().seed);
      j.key("spec").value(faulty->schedule().to_string());
      j.key("injected_events")
          .value(static_cast<std::uint64_t>(faulty->events().size()));
      j.end_object();
    }
    j.end_object();
    const std::string path = flags.get("json");
    if (path.empty() || path == "true") {
      std::cout << j.str() << "\n";
    } else {
      std::ofstream out(path);
      out << j.str() << "\n";
      std::cout << "  json report -> " << path << "\n";
    }
  }

  if (faults_on && flags.has("fault-log")) {
    const std::string path = flags.get("fault-log");
    if (!faulty->dump_events(path)) {
      std::cerr << "ccm_node: cannot write fault log to " << path << "\n";
      rc = 1;
    } else {
      std::cout << "  fault log (" << faulty->events().size()
                << " events) -> " << path << "\n";
    }
  }

  if (trace_on) {
    const std::string path = flags.get("runtime-trace-out");
    const auto spans = cluster.runtime_spans().snapshot();
    std::ofstream out(path);
    out << obs::span_log_lines(spans);
    if (!out) {
      std::cerr << "ccm_node: cannot write span log to " << path << "\n";
      rc = 1;
    } else {
      std::cout << "  runtime trace (" << spans.size() << " spans, "
                << cluster.runtime_spans().dropped() << " dropped) -> "
                << path << "\n";
    }
  }

  if (lockcheck_on) {
    const std::size_t lock_cycles =
        util::lockcheck::audit("ccm_node-final");
    std::cout << "  lockcheck: " << util::lockcheck::cycles_detected()
              << " cycle(s) detected; final graph "
              << (lock_cycles == 0 ? "acyclic" : "CYCLIC") << "\n";
    if (lock_cycles != 0) rc = 1;
  }
  return rc;
}
