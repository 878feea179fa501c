// ccm_stress: drives the threaded middleware runtime (CcmCluster) with a
// mixed read/write/invalidate workload and reports throughput plus the
// per-shard lock-contention counters that motivated sharding the runtime out
// of its old global cluster lock. The interesting number is the contention
// rate per shard: with one lock per node it stays low even with every driver
// hammering a shared file set, where a single global lock saturates.
//
// Flags:
//   --nodes=N            cluster size                     (default 4)
//   --blocks-per-node=N  cache capacity per node, blocks  (default 64)
//   --files=N            file count                       (default 48)
//   --file-blocks=N      blocks per file                  (default 4)
//   --workers=N          max concurrent operations per node (default 2)
//   --drivers=N          client driver threads            (default nodes)
//   --iters=N            operations per driver            (default 2000)
//   --write-pct=P        % of ops that write              (default 20)
//   --invalidate-pct=P   % of ops that invalidate         (default 2)
//   --seed=N             workload RNG seed                (default 1)
//   --policy=nem|basic   eviction policy                  (default nem)
//   --directory=perfect|hinted                            (default perfect)
//   --deterministic-writes  partition write targets per driver so the final
//                           storage bytes are schedule-independent (the
//                           multi-process equality harness; needs
//                           files % drivers == 0)
//   --dump-storage=PATH  write final storage bytes to PATH (file-id order)
//   --json[=PATH]        emit a JSON report (stdout or PATH), including a
//                        "metrics" block with per-RPC-kind latency
//                        percentiles (see docs/OBSERVABILITY.md), the
//                        number of reads whose bytes failed the workload's
//                        shape check (read_check_failures; non-zero makes
//                        "consistent" false), and the process's voluntary
//                        and involuntary context switches over the run
//   --faults=SPEC        inject faults from an explicit schedule spec (see
//                        net::FaultSchedule::parse / docs/FAULTS.md)
//   --fault-seed=N       inject a generated schedule drawn from seed N
//                        (ignored when --faults gives an explicit spec)
//   --fault-log=PATH     write the injected-event log to PATH, one line per
//                        event; byte-identical across two runs of the same
//                        seed+workload with --drivers=1
//   --lockcheck          arm the lock-order watchdog for the whole run; any
//                        acquisition-order cycle is reported and aborts, and
//                        a final whole-graph audit gates the exit code
//   --lockcheck-report=PATH  also append watchdog violations to PATH (a CI
//                            artifact) before aborting
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "ccm_report.hpp"
#include "ccm_workload.hpp"
#include "net/fault.hpp"
#include "util/audit.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/lockcheck.hpp"

using namespace coop;

namespace {

struct ContextSwitches {
  std::uint64_t voluntary = 0;
  std::uint64_t involuntary = 0;
};

/// This process's context switches so far, all threads included.
ContextSwitches context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<std::uint64_t>(ru.ru_nvcsw),
          static_cast<std::uint64_t>(ru.ru_nivcsw)};
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool lockcheck_on = flags.get_bool("lockcheck", false);
  const std::string lockcheck_report = flags.get("lockcheck-report");
  if (lockcheck_on) {
    // Arm the watchdog before any runtime lock exists so every acquisition
    // lands in the order graph; a violation is written out (report file
    // first, for the CI artifact) and then aborts the run — a stress bench
    // must not keep hammering a runtime whose lock discipline just broke.
    util::lockcheck::set_enabled(true);
    audit::set_handler([lockcheck_report](const audit::Violation& v) {
      if (!lockcheck_report.empty()) {
        std::ofstream out(lockcheck_report, std::ios::app);
        out << v.invariant << "\n" << v.detail << "\n";
      }
      std::cerr << "ccm_stress: " << v.invariant << " violated\n"
                << v.detail << "\n";
      std::abort();
    });
  }
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 4));
  const auto blocks_per_node =
      static_cast<std::uint64_t>(flags.get_int("blocks-per-node", 64));
  const auto files = static_cast<std::size_t>(flags.get_int("files", 48));
  const auto file_blocks =
      static_cast<std::uint32_t>(flags.get_int("file-blocks", 4));
  const auto workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  const auto drivers = static_cast<std::size_t>(
      flags.get_int("drivers", static_cast<std::int64_t>(nodes)));
  const auto iters = static_cast<int>(flags.get_int("iters", 2000));
  const auto write_pct = flags.get_int("write-pct", 20);
  const auto invalidate_pct = flags.get_int("invalidate-pct", 2);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

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
  wl.iters = iters;
  wl.write_pct = write_pct;
  wl.invalidate_pct = invalidate_pct;
  wl.seed = seed;
  wl.deterministic_writes = flags.get_bool("deterministic-writes", false);
  wl.validate();

  auto storage = std::make_shared<ccm::BufferStorage>(
      std::vector<std::uint32_t>(files, wl.file_bytes()));

  // Fault injection: wrap the in-process transport in a FaultyTransport
  // driving a parsed or seed-generated schedule.
  std::shared_ptr<net::FaultyTransport> faulty;
  ccm::CcmHosting hosting;
  const bool faults_on = flags.has("faults") || flags.has("fault-seed");
  if (faults_on) {
    const auto fault_seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
    const std::string spec = flags.get("faults");
    net::FaultSchedule schedule =
        (spec.empty() || spec == "true")
            ? net::FaultSchedule::generated(fault_seed)
            : net::FaultSchedule::parse(spec, fault_seed);
    faulty = std::make_shared<net::FaultyTransport>(
        std::make_shared<net::InProcTransport>(nodes), std::move(schedule));
    hosting.transport = faulty;
    std::cout << "ccm_stress: fault schedule [" << faulty->schedule().seed
              << "] " << faulty->schedule().to_string() << "\n";
  }

  ccm::CcmCluster cluster(cfg, storage, hosting);

  // Seed every file so the steady-state workload starts warm.
  std::vector<cache::NodeId> vias;
  for (std::size_t n = 0; n < nodes; ++n) {
    vias.push_back(static_cast<cache::NodeId>(n));
  }
  wl.seed_files(cluster, vias);
  cluster.reset_stats();

  const ccm_bench::ReadCheck check(wl.block_bytes);
  std::vector<std::uint64_t> failed_reads(drivers, 0);
  const ContextSwitches cs0 = context_switches();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      failed_reads[d] = wl.run_driver(cluster, d, std::nullopt, check);
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const ContextSwitches cs1 = context_switches();
  const std::uint64_t voluntary_cs = cs1.voluntary - cs0.voluntary;
  const std::uint64_t involuntary_cs = cs1.involuntary - cs0.involuntary;

  const auto s = cluster.stats();
  const double total_ops = static_cast<double>(drivers) * iters;
  std::uint64_t read_check_failures = 0;
  for (const std::uint64_t f : failed_reads) read_check_failures += f;
  const bool consistent =
      cluster.check_consistency() && read_check_failures == 0;

  std::cout << "ccm_stress: " << drivers << " drivers x " << iters
            << " ops over " << nodes << " nodes (at most " << workers
            << " concurrent ops/node), " << files << " files\n"
            << "  elapsed " << util::fixed(secs, 3) << " s, "
            << util::fixed(total_ops / secs, 0) << " ops/s, consistency "
            << (consistent ? "OK" : "BROKEN") << " (" << read_check_failures
            << " failed read checks)\n"
            << "  context switches: " << voluntary_cs << " voluntary, "
            << involuntary_cs << " involuntary ("
            << util::fixed(static_cast<double>(voluntary_cs) / total_ops, 2)
            << " voluntary per op)\n"
            << "  hits: local " << s.local_hits << ", remote "
            << s.remote_hits << ", disk " << s.disk_reads << ", writes "
            << s.writes << ", invalidations " << s.invalidations << "\n"
            << "  transport: sent " << s.transport.sent << ", received "
            << s.transport.received << ", rpcs " << s.transport.rpcs
            << ", payload copies " << s.transport.payload_copies << "\n"
            << "  directory client: " << s.dir_client.trips() << " trips ("
            << s.dir_client.singles << " singles + " << s.dir_client.batches
            << " batches carrying " << s.dir_client.batched_ops
            << " ops), hints: " << s.hint_hits << " hits, " << s.hint_stale
            << " stale\n";
  if (faults_on) {
    std::cout << "  faults: drops " << s.transport.injected_drops
              << ", delays " << s.transport.injected_delays << ", duplicates "
              << s.transport.injected_duplicates << ", reorders "
              << s.transport.injected_reorders << "; rpc retries "
              << s.transport.rpc_retries << ", timeouts "
              << s.transport.rpc_timeouts << ", failures "
              << s.transport.rpc_failures << "\n";
  }
  for (std::size_t n = 0; n < s.shards.size(); ++n) {
    const auto& sh = s.shards[n];
    const double rate = sh.lock_acquired
                            ? static_cast<double>(sh.lock_contended) /
                                  static_cast<double>(sh.lock_acquired)
                            : 0.0;
    std::cout << "  shard " << n << ": lock acquired " << sh.lock_acquired
              << ", contended " << sh.lock_contended << " ("
              << util::fixed(rate * 100.0, 2) << "%)\n";
  }

  if (flags.has("json")) {
    util::JsonWriter j;
    j.begin_object();
    j.key("bench").value("ccm_stress");
    j.key("config").begin_object();
    j.key("nodes").value(static_cast<std::uint64_t>(nodes));
    j.key("blocks_per_node").value(blocks_per_node);
    j.key("files").value(static_cast<std::uint64_t>(files));
    j.key("file_blocks").value(file_blocks);
    j.key("workers_per_node").value(static_cast<std::uint64_t>(workers));
    j.key("drivers").value(static_cast<std::uint64_t>(drivers));
    j.key("iters").value(static_cast<std::int64_t>(iters));
    j.key("write_pct").value(write_pct);
    j.key("invalidate_pct").value(invalidate_pct);
    j.key("seed").value(seed);
    j.key("policy").value(cfg.policy == cache::Policy::kBasic ? "basic"
                                                              : "nem");
    j.key("directory").value(cfg.directory == cache::DirectoryMode::kHinted
                                 ? "hinted"
                                 : "perfect");
    j.end_object();
    j.key("elapsed_seconds").value(secs);
    j.key("ops_per_second").value(total_ops / secs);
    j.key("consistent").value(consistent);
    j.key("read_check_failures").value(read_check_failures);
    // Process-wide getrusage deltas over the measured run.
    j.key("context_switches").begin_object();
    j.key("voluntary").value(voluntary_cs);
    j.key("involuntary").value(involuntary_cs);
    j.key("voluntary_per_op").value(static_cast<double>(voluntary_cs) /
                                    total_ops);
    j.end_object();
    j.key("totals").begin_object();
    j.key("local_hits").value(s.local_hits);
    j.key("remote_hits").value(s.remote_hits);
    j.key("disk_reads").value(s.disk_reads);
    j.key("writes").value(s.writes);
    j.key("invalidations").value(s.invalidations);
    j.key("ownership_migrations").value(s.ownership_migrations);
    j.key("forwards_attempted").value(s.forwards_attempted);
    j.key("forwards_accepted").value(s.forwards_accepted);
    j.key("master_drops").value(s.master_drops);
    j.end_object();
    j.key("shards").begin_array();
    for (const auto& sh : s.shards) {
      j.begin_object();
      j.key("lock_acquired").value(sh.lock_acquired);
      j.key("lock_contended").value(sh.lock_contended);
      j.key("contention_rate")
          .value(sh.lock_acquired ? static_cast<double>(sh.lock_contended) /
                                        static_cast<double>(sh.lock_acquired)
                                  : 0.0);
      j.end_object();
    }
    j.end_array();
    j.key("directory_ops").begin_object();
    j.key("lookups").value(s.directory.lookups);
    j.key("claims").value(s.directory.claims);
    j.key("claim_conflicts").value(s.directory.claim_conflicts);
    j.key("forwards_begun").value(s.directory.forwards_begun);
    j.key("forward_claims").value(s.directory.forward_claims);
    j.key("forward_rejects").value(s.directory.forward_rejects);
    j.key("masters_dropped").value(s.directory.masters_dropped);
    j.key("write_claims").value(s.directory.write_claims);
    j.key("hint_misdirects").value(s.directory.hint_misdirects);
    j.key("masters_purged").value(s.directory.masters_purged);
    j.end_object();
    // The batching headline: trips is what the perf-smoke trips-per-op
    // ceiling and the throughput comparison key on.
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
    j.key("sent").value(s.transport.sent);
    j.key("received").value(s.transport.received);
    j.key("rpcs").value(s.transport.rpcs);
    j.key("payload_copies").value(s.transport.payload_copies);
    j.key("injected_drops").value(s.transport.injected_drops);
    j.key("injected_delays").value(s.transport.injected_delays);
    j.key("injected_duplicates").value(s.transport.injected_duplicates);
    j.key("injected_reorders").value(s.transport.injected_reorders);
    j.key("rpc_timeouts").value(s.transport.rpc_timeouts);
    j.key("rpc_retries").value(s.transport.rpc_retries);
    j.key("rpc_failures").value(s.transport.rpc_failures);
    j.end_object();
    // Runtime telemetry: per-MsgKind RPC latency/bytes/retry percentiles,
    // hot-path counters, lock-wait and whole-op histograms.
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

  if (flags.has("dump-storage")) {
    const std::string path = flags.get("dump-storage");
    if (!ccm_bench::dump_storage(*storage, path)) {
      std::cerr << "ccm_stress: cannot write storage dump to " << path
                << "\n";
      return 1;
    }
    std::cout << "  storage dump -> " << path << "\n";
  }

  if (faults_on && flags.has("fault-log")) {
    const std::string path = flags.get("fault-log");
    if (!faulty->dump_events(path)) {
      std::cerr << "ccm_stress: cannot write fault log to " << path << "\n";
      return 1;
    }
    std::cout << "  fault log (" << faulty->events().size() << " events) -> "
              << path << "\n";
  }

  if (lockcheck_on) {
    // Quiescent whole-graph sweep: catches any inversion recorded by edges
    // that never happened to close at acquire time on this schedule.
    const std::size_t lock_cycles = util::lockcheck::audit("ccm_stress-final");
    std::cout << "  lockcheck: " << util::lockcheck::cycles_detected()
              << " cycle(s) detected; final graph "
              << (lock_cycles == 0 ? "acyclic" : "CYCLIC") << "\n";
    if (lock_cycles != 0) return 1;
  }

  return consistent ? 0 : 1;
}
