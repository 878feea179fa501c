// Runtime (wall-clock) metrics for the live cluster: relaxed-atomic sharded
// counters and fixed-bucket log2 latency histograms.
//
// This is the deliberately tolerant gcache `CacheStat` idiom: the record path
// takes no locks and orders nothing — every slot is a relaxed atomic, sharded
// by thread so concurrent recorders do not ping-pong a cache line. A snapshot
// taken while traffic is in flight may therefore be mid-update-inconsistent
// (a histogram's `count` can momentarily disagree with its bucket sum by the
// records in flight); that is the accepted price of a hot path that costs two
// relaxed increments. Relaxed atomics (not plain fields) keep the idiom
// TSan-clean without buying any ordering.
//
// Everything here is *runtime-only* observability: the deterministic sim-time
// paths (src/sim, src/obs/trace.hpp) never touch this file. Wall-clock reads
// are confined to this module (runtime_now_ns / runtime_wall_ns) so the
// ccm-lint wall-clock rule stays scoped to src/obs.
//
// Layering: no dependency on src/proto — RPC histograms are indexed by the
// raw message-kind byte (callers pass proto::MsgKind casts and a name
// function for reporting), so coop_obs stays below coop_net in the graph.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace coop::util {
class JsonWriter;
}

namespace coop::obs {

/// Monotonic nanoseconds (steady clock) — durations and histograms.
std::uint64_t runtime_now_ns();

/// Epoch nanoseconds (system clock) — cross-process trace timestamps.
std::uint64_t runtime_wall_ns();

/// log2 histogram geometry: bucket 0 holds the value 0, bucket b >= 1 holds
/// [2^(b-1), 2^b); 64 value bits -> 65 buckets covers every std::uint64_t.
inline constexpr std::size_t kHistBuckets = 65;

/// Slots reserved for per-message-kind RPC metrics. Must stay >= the wire
/// protocol's kind count (static_assert'd where the two layers meet,
/// net/transport.cpp).
inline constexpr std::size_t kMaxRpcKinds = 48;

/// Bucket index of a recorded value.
std::size_t hist_bucket(std::uint64_t value);

/// Inclusive lower bound of a bucket.
std::uint64_t hist_bucket_floor(std::size_t bucket);

/// Named runtime counters, one per event; CcmCluster::stats() reads the
/// hit, read, forward and hint counts back from here (docs/OBSERVABILITY.md,
/// "Runtime telemetry", defines each).
enum class RtCounter : std::uint8_t {
  kLocalHit = 0,      // block served from the requesting node's own shard
  kPeerHit,           // block copied from a remote master (coop-cache win)
  kDiskRead,          // block faulted in from backing storage (miss)
  kUncachedFallback,  // claim retries exhausted -> one-shot uncached read
  kMasterForward,     // evicted masters a peer accepted (forwarded)
  kFileInvalidation,  // invalidate() calls made here
  kHintHit,           // hint slot answered a directory lookup
  kHintStale,         // a hinted master failed its fetch or validation
  kRpcFailure,        // a request left failed: retries spent or error final
  kStatsScrape,       // scrapes started + kStatsPull requests answered
  kAcquireRetry,      // read passes re-attempting blocks that raced
  kCount,
};

inline constexpr std::size_t kRtCounterCount =
    static_cast<std::size_t>(RtCounter::kCount);

/// Stable display name ("local-hits", ...).
const char* rt_counter_name(RtCounter c);

/// Point-in-time copy of one histogram: plain integers, mergeable.
struct HistSnapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void merge(const HistSnapshot& other);

  /// Approximate quantile (q in [0,1]) by linear interpolation inside the
  /// winning log2 bucket; 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double mean() const { return count ? double(sum) / double(count) : 0.0; }
};

/// Per-message-kind RPC metrics: latency distribution plus traffic counters.
struct RpcKindSnapshot {
  HistSnapshot latency_ns;
  std::uint64_t calls = 0;    // completed round trips
  std::uint64_t bytes = 0;    // payload bytes moved (request + reply)
  std::uint64_t retries = 0;  // call_all_with_retry re-sends
  std::uint64_t errors = 0;   // calls that ended in a TransportError

  void merge(const RpcKindSnapshot& other);
};

/// Snapshot format version carried on the wire (kStatsPull payloads); bump
/// when the layout changes. RPC rows are indexed by message-kind value, so a
/// renumbering of proto::MsgKind is a layout change (v2: five unused
/// directory kinds removed; v3: the four single directory kinds a
/// kDirBatchRequest carries removed; v4: counter slots now one per event —
/// claims and op counts dropped, hint and rpc-failure counts added; v5:
/// acquire-retries appended).
inline constexpr std::uint32_t kMetricsVersion = 5;

/// One process's (or, after merging, one cluster's) runtime metrics.
struct MetricsSnapshot {
  std::uint32_t version = kMetricsVersion;
  /// Lowest node id hosted by the reporting process — the dedupe key when a
  /// scraper reaches several nodes that share a process (and a registry).
  std::uint32_t host = 0;
  /// Number of process snapshots merged into this one.
  std::uint64_t processes = 1;

  std::array<RpcKindSnapshot, kMaxRpcKinds> rpc{};
  std::array<std::uint64_t, kRtCounterCount> counters{};
  HistSnapshot lock_wait_ns;  // shard-lock acquisition wait
  HistSnapshot op_read_ns;    // whole read/read_range operations
  HistSnapshot op_write_ns;   // whole write operations

  /// Commutative, associative accumulation (adds + max); keeps the lowest
  /// host id and sums `processes`.
  void merge(const MetricsSnapshot& other);

  /// Fixed little-endian binary form (the kStatsPull reply payload).
  [[nodiscard]] std::vector<std::byte> encode() const;
  /// nullopt on short input, bad magic, or version/geometry mismatch.
  static std::optional<MetricsSnapshot> decode(std::span<const std::byte> wire);
};

/// Streams `s` as one JSON object into `j` (caller opens/closes the
/// surrounding scope via key()). `kind_name` maps an RPC slot index to a
/// display name (pass proto::kind_name through a cast); slots with zero calls
/// are omitted. Latencies are reported in microseconds.
void metrics_json(util::JsonWriter& j, const MetricsSnapshot& s,
                  const char* (*kind_name)(std::uint8_t));

/// The live registry. One per process (CcmCluster owns one); every mutator
/// is lock-free and safe from any thread.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void record_rpc(std::uint8_t kind, std::uint64_t latency_ns,
                  std::uint64_t bytes);
  void record_rpc_error(std::uint8_t kind, std::uint64_t latency_ns);
  void record_retry(std::uint8_t kind);
  void incr(RtCounter c, std::uint64_t n = 1);
  void record_lock_wait(std::uint64_t ns);
  void record_op_read(std::uint64_t ns);
  void record_op_write(std::uint64_t ns);

  /// Reporting identity (see MetricsSnapshot::host).
  void set_host(std::uint32_t host) {
    host_.store(host, std::memory_order_relaxed);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zeroes every slot (between bench phases; racing records may survive).
  void reset();

 private:
  /// Recorders spread across kShards copies of the hot slots by thread
  /// identity; snapshot() folds the shards back together.
  static constexpr std::size_t kShards = 8;

  struct Hist {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};

    void record(std::uint64_t v);
    void fold_into(HistSnapshot& out) const;
    void clear();
  };

  struct RpcKind {
    Hist latency;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> errors{0};
  };

  struct alignas(64) Shard {
    std::array<RpcKind, kMaxRpcKinds> rpc{};
    std::array<std::atomic<std::uint64_t>, kRtCounterCount> counters{};
    Hist lock_wait;
    Hist op_read;
    Hist op_write;
  };

  Shard& my_shard();
  static std::size_t shard_index();

  std::array<Shard, kShards> shards_{};
  std::atomic<std::uint32_t> host_{0};
};

}  // namespace coop::obs
