// Wall-clock runtime spans for the live cluster, propagated across
// processes.
//
// The sim-time tracer (obs/trace.hpp) records deterministic spans in
// simulated milliseconds; this module is its runtime sibling: spans are
// stamped with epoch nanoseconds (obs::runtime_wall_ns) so slices recorded
// by different `ccm_node` processes line up on one Perfetto timeline. A
// trace id minted by the thread that starts a block operation rides inside
// every proto::Message the operation fans out (Message::trace / ::span), so
// the client RPC slice in one process and the handler slice in another
// carry the same trace id and a parent/child span link — that is what makes
// one block op visible as a single flow across the cluster.
//
// Recording is off by default and costs one relaxed load when disabled; the
// deterministic drivers never enable it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::obs {

/// Display lanes (Perfetto tid) runtime spans are grouped into.
inline constexpr std::uint8_t kLaneOp = 0;         // whole read/write op
inline constexpr std::uint8_t kLaneRpcClient = 1;  // one call of a round
inline constexpr std::uint8_t kLaneHandler = 2;    // protocol-thread handler

/// One completed wall-clock slice.
struct RuntimeSpan {
  std::uint64_t trace = 0;   // operation identity, constant across processes
  std::uint64_t span = 0;    // this slice
  std::uint64_t parent = 0;  // enclosing slice (0 = root)
  std::uint64_t start_ns = 0;  // epoch ns (runtime_wall_ns)
  std::uint64_t end_ns = 0;
  std::uint16_t node = 0;  // logical node (Perfetto pid)
  std::uint8_t lane = kLaneOp;
  std::string name;
};

/// The ambient trace identity of the calling thread: client operations set
/// it when they start, handlers adopt it from the incoming message (saving
/// and restoring the caller's when they run on its thread).
struct TraceContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
};

TraceContext& tls_trace_context();

/// Bounded in-memory span sink; one per process (CcmCluster owns one).
class RuntimeSpanLog {
 public:
  /// Spans kept before new ones are dropped (counted, not silent).
  static constexpr std::size_t kCapacity = 1 << 18;

  /// Arms recording. `id_node` salts the id allocator so span/trace ids
  /// minted by different processes cannot collide.
  void enable(std::uint16_t id_node);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Fresh process-unique id (node in the top 16 bits).
  std::uint64_t next_id() {
    return base_ | next_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(RuntimeSpan s);

  [[nodiscard]] std::vector<RuntimeSpan> snapshot() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_{1};
  std::uint64_t base_ = 0;
  mutable util::Mutex mu_{"obs.runtime_spans"};
  std::vector<RuntimeSpan> spans_ GUARDED_BY(mu_);
  std::atomic<std::uint64_t> dropped_{0};
};

/// Text form of a span log — one `node trace span parent lane start end
/// name` line per span — so per-process logs can be dumped to files and
/// merged offline (tools/ccm_metrics) into one Perfetto trace.
std::string span_log_lines(const std::vector<RuntimeSpan>& spans);

/// Parses span_log_lines output (appends to `out`); false on malformed
/// input. Blank lines and `#` comments are skipped.
bool parse_span_log(std::string_view text, std::vector<RuntimeSpan>& out);

}  // namespace coop::obs
