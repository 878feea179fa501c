// Whole-cluster simulation assembly: builds the engine, nodes, network,
// server (CCM variant or L2S), and client pool; runs a trace through it; and
// collects the metrics of Figures 2-6.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/policy.hpp"
#include "hw/params.hpp"
#include "obs/perfetto.hpp"
#include "server/client.hpp"
#include "server/metrics.hpp"
#include "trace/trace.hpp"

namespace coop::server {

/// The four systems of Figure 2.
enum class SystemKind {
  kL2S,      // locality/load-conscious baseline
  kCcBasic,  // traditional cooperative caching, FIFO disk queue
  kCcSched,  // + seek-aware disk scheduling (the paper's first fix)
  kCcNem     // + never-evict-master replacement (the paper's contribution)
};

[[nodiscard]] const char* to_string(SystemKind kind);

/// Parses the CLI spellings used by the benches ("l2s", "cc-basic",
/// "cc-sched", "cc-nem", case-insensitive); throws std::invalid_argument on
/// anything else.
[[nodiscard]] SystemKind system_from_string(const std::string& name);

struct ClusterConfig {
  SystemKind system = SystemKind::kCcNem;
  std::size_t nodes = 8;
  std::uint64_t memory_per_node = 64ull * 1024 * 1024;
  hw::ModelParams params;
  ClientPoolConfig clients;

  // CCM knobs.
  cache::DirectoryMode directory = cache::DirectoryMode::kPerfect;
  std::uint32_t hint_staleness = 1;
  /// Whole-file adaptation of CCM (§6); applies to the CC-* systems.
  bool ccm_whole_file = false;

  // L2S knobs.
  bool tcp_handoff = true;
  std::size_t overload_threshold = 6;
  std::size_t replication_margin = 2;

  /// Optional override of the file-to-home-node placement (CCM); defaults to
  /// file-id modulo nodes. Used by the hot-spot ablation (A5).
  std::function<std::uint16_t(trace::FileId)> home_of;
};

/// Stable 64-bit fingerprint of every simulation-affecting POD field of the
/// config (system, geometry, Table-1 costs, client pool, CCM/L2S knobs).
/// Used by the harness's JSON run reports to tie metrics to the exact
/// configuration that produced them. `home_of` (an opaque callable) is
/// represented only by a present/absent bit.
[[nodiscard]] std::uint64_t config_hash(const ClusterConfig& config);

/// Runs `trace` through a cluster built from `config` and returns the
/// measurement-window metrics. Deterministic: same config + trace => same
/// result.
///
/// Thread-safety / re-entrancy: every piece of mutable state (engine, nodes,
/// network, server, caches, collectors) is constructed locally per call, and
/// `config`/`trace` are only read. Concurrent calls may therefore share one
/// `const Trace&` — the parallel sweep executor (harness/executor) relies on
/// this. `config.home_of`, if set, must be safe to invoke concurrently
/// (stateless lambdas are; the benches use nothing else).
RunMetrics run_simulation(const ClusterConfig& config,
                          const trace::Trace& trace);

/// Traced variant. When `obs_config.enabled`, request spans, per-resource
/// busy/queue timelines, and (in audited builds) the audit span-dump hook are
/// wired into the run; the results land in `*trace_out` (may be null to
/// discard). Tracing is strictly passive: the returned metrics are identical
/// to the untraced overload's, and `obs_config` is deliberately NOT part of
/// config_hash. With `obs_config.enabled == false` this is exactly the
/// untraced run.
RunMetrics run_simulation(const ClusterConfig& config,
                          const trace::Trace& trace,
                          const obs::TraceConfig& obs_config,
                          obs::TraceData* trace_out);

}  // namespace coop::server
