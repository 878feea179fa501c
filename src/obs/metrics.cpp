#include "obs/metrics.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/byte_order.hpp"
#include "util/json.hpp"

namespace coop::obs {

// The only wall-clock reads in the runtime metrics path, deliberately
// confined to this translation unit (see tools/lint/suppressions.txt): the
// deterministic sim layers never call these.
std::uint64_t runtime_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t runtime_wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::size_t hist_bucket(std::uint64_t value) {
  return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t hist_bucket_floor(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

const char* rt_counter_name(RtCounter c) {
  switch (c) {
    case RtCounter::kLocalHit: return "local-hits";
    case RtCounter::kPeerHit: return "peer-hits";
    case RtCounter::kDiskRead: return "disk-reads";
    case RtCounter::kUncachedFallback: return "uncached-fallbacks";
    case RtCounter::kMasterForward: return "master-forwards";
    case RtCounter::kFileInvalidation: return "file-invalidations";
    case RtCounter::kHintHit: return "hint-hits";
    case RtCounter::kHintStale: return "hint-stale";
    case RtCounter::kRpcFailure: return "rpc-failures";
    case RtCounter::kStatsScrape: return "stats-scrapes";
    case RtCounter::kAcquireRetry: return "acquire-retries";
    case RtCounter::kCount: break;
  }
  return "unknown";
}

// ---- snapshots -------------------------------------------------------------

void HistSnapshot::merge(const HistSnapshot& other) {
  for (std::size_t i = 0; i < kHistBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

double HistSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), then walk the buckets.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t in_bucket = buckets[b];
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lo = static_cast<double>(hist_bucket_floor(b));
      // Upper edge of the log2 bucket; bucket 0 is the single value 0.
      const double hi = b == 0 ? 0.0 : lo * 2.0;
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      double est = lo + (hi - lo) * frac;
      // Never report beyond the recorded maximum.
      const double cap = static_cast<double>(max);
      return est > cap ? cap : est;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max);
}

void RpcKindSnapshot::merge(const RpcKindSnapshot& other) {
  latency_ns.merge(other.latency_ns);
  calls += other.calls;
  bytes += other.bytes;
  retries += other.retries;
  errors += other.errors;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  if (other.host < host) host = other.host;
  processes += other.processes;
  for (std::size_t k = 0; k < kMaxRpcKinds; ++k) rpc[k].merge(other.rpc[k]);
  for (std::size_t c = 0; c < kRtCounterCount; ++c) {
    counters[c] += other.counters[c];
  }
  lock_wait_ns.merge(other.lock_wait_ns);
  op_read_ns.merge(other.op_read_ns);
  op_write_ns.merge(other.op_write_ns);
}

// ---- binary wire form ------------------------------------------------------

namespace {

using util::get_u32;
using util::get_u64;
using util::put_u32;
using util::put_u64;

constexpr std::uint32_t kSnapshotMagic = 0x534D4343;  // "CCMS"

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> wire) : wire_(wire) {}

  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > wire_.size()) return false;
    v = get_u32(wire_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > wire_.size()) return false;
    v = get_u64(wire_.data() + pos_);
    pos_ += 8;
    return true;
  }

 private:
  std::span<const std::byte> wire_;
  std::size_t pos_ = 0;
};

void encode_hist(std::vector<std::byte>& out, const HistSnapshot& h) {
  for (const auto b : h.buckets) put_u64(out, b);
  put_u64(out, h.count);
  put_u64(out, h.sum);
  put_u64(out, h.max);
}

bool decode_hist(WireReader& r, HistSnapshot& h) {
  for (auto& b : h.buckets) {
    if (!r.u64(b)) return false;
  }
  return r.u64(h.count) && r.u64(h.sum) && r.u64(h.max);
}

}  // namespace

std::vector<std::byte> MetricsSnapshot::encode() const {
  std::vector<std::byte> out;
  // Geometry rides in the header so a decoder rejects (rather than
  // misparses) a snapshot from a build with different array sizes.
  put_u32(out, kSnapshotMagic);
  put_u32(out, version);
  put_u32(out, static_cast<std::uint32_t>(kMaxRpcKinds));
  put_u32(out, static_cast<std::uint32_t>(kRtCounterCount));
  put_u32(out, static_cast<std::uint32_t>(kHistBuckets));
  put_u32(out, host);
  put_u64(out, processes);
  for (const auto& k : rpc) {
    encode_hist(out, k.latency_ns);
    put_u64(out, k.calls);
    put_u64(out, k.bytes);
    put_u64(out, k.retries);
    put_u64(out, k.errors);
  }
  for (const auto c : counters) put_u64(out, c);
  encode_hist(out, lock_wait_ns);
  encode_hist(out, op_read_ns);
  encode_hist(out, op_write_ns);
  return out;
}

std::optional<MetricsSnapshot> MetricsSnapshot::decode(
    std::span<const std::byte> wire) {
  WireReader r(wire);
  std::uint32_t magic = 0, ver = 0, kinds = 0, ctrs = 0, buckets = 0;
  if (!r.u32(magic) || !r.u32(ver) || !r.u32(kinds) || !r.u32(ctrs) ||
      !r.u32(buckets)) {
    return std::nullopt;
  }
  if (magic != kSnapshotMagic || ver != kMetricsVersion ||
      kinds != kMaxRpcKinds || ctrs != kRtCounterCount ||
      buckets != kHistBuckets) {
    return std::nullopt;
  }
  MetricsSnapshot s;
  s.version = ver;
  if (!r.u32(s.host) || !r.u64(s.processes)) return std::nullopt;
  for (auto& k : s.rpc) {
    if (!decode_hist(r, k.latency_ns) || !r.u64(k.calls) || !r.u64(k.bytes) ||
        !r.u64(k.retries) || !r.u64(k.errors)) {
      return std::nullopt;
    }
  }
  for (auto& c : s.counters) {
    if (!r.u64(c)) return std::nullopt;
  }
  if (!decode_hist(r, s.lock_wait_ns) || !decode_hist(r, s.op_read_ns) ||
      !decode_hist(r, s.op_write_ns)) {
    return std::nullopt;
  }
  return s;
}

// ---- JSON report -----------------------------------------------------------

namespace {

void hist_json(util::JsonWriter& j, const HistSnapshot& h) {
  j.begin_object();
  j.key("count").value(h.count);
  j.key("p50_us").value(h.percentile(0.50) / 1000.0);
  j.key("p90_us").value(h.percentile(0.90) / 1000.0);
  j.key("p99_us").value(h.percentile(0.99) / 1000.0);
  j.key("mean_us").value(h.mean() / 1000.0);
  j.key("max_us").value(static_cast<double>(h.max) / 1000.0);
  j.end_object();
}

}  // namespace

void metrics_json(util::JsonWriter& j, const MetricsSnapshot& s,
                  const char* (*kind_name)(std::uint8_t)) {
  j.begin_object();
  j.key("version").value(s.version);
  j.key("processes").value(s.processes);
  j.key("counters").begin_object();
  for (std::size_t c = 0; c < kRtCounterCount; ++c) {
    j.key(rt_counter_name(static_cast<RtCounter>(c))).value(s.counters[c]);
  }
  j.end_object();
  j.key("rpc").begin_object();
  for (std::size_t k = 0; k < kMaxRpcKinds; ++k) {
    const auto& slot = s.rpc[k];
    if (slot.calls == 0 && slot.errors == 0) continue;
    j.key(kind_name(static_cast<std::uint8_t>(k))).begin_object();
    j.key("calls").value(slot.calls);
    j.key("bytes").value(slot.bytes);
    j.key("retries").value(slot.retries);
    j.key("errors").value(slot.errors);
    j.key("latency");
    hist_json(j, slot.latency_ns);
    j.end_object();
  }
  j.end_object();
  j.key("lock_wait");
  hist_json(j, s.lock_wait_ns);
  j.key("op_read");
  hist_json(j, s.op_read_ns);
  j.key("op_write");
  hist_json(j, s.op_write_ns);
  j.end_object();
}

// ---- live registry ---------------------------------------------------------

void MetricsRegistry::Hist::record(std::uint64_t v) {
  buckets[hist_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(v, std::memory_order_relaxed);
  // Tolerant max: a concurrent larger value may win the race and that is
  // fine — the loop only guarantees max never decreases.
  std::uint64_t cur = max.load(std::memory_order_relaxed);
  while (v > cur &&
         !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::Hist::fold_into(HistSnapshot& out) const {
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    out.buckets[i] += buckets[i].load(std::memory_order_relaxed);
  }
  out.count += count.load(std::memory_order_relaxed);
  out.sum += sum.load(std::memory_order_relaxed);
  const auto m = max.load(std::memory_order_relaxed);
  if (m > out.max) out.max = m;
}

void MetricsRegistry::Hist::clear() {
  for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  count.store(0, std::memory_order_relaxed);
  sum.store(0, std::memory_order_relaxed);
  max.store(0, std::memory_order_relaxed);
}

std::size_t MetricsRegistry::shard_index() {
  // Thread-identity sharding: stable per thread, cheap, and collision-
  // tolerant (a shared shard only costs contention, never correctness).
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
}

MetricsRegistry::Shard& MetricsRegistry::my_shard() {
  thread_local const std::size_t idx = shard_index();
  return shards_[idx];
}

void MetricsRegistry::record_rpc(std::uint8_t kind, std::uint64_t latency_ns,
                                 std::uint64_t bytes) {
  if (kind >= kMaxRpcKinds) return;
  auto& slot = my_shard().rpc[kind];
  slot.latency.record(latency_ns);
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void MetricsRegistry::record_rpc_error(std::uint8_t kind,
                                       std::uint64_t latency_ns) {
  if (kind >= kMaxRpcKinds) return;
  auto& slot = my_shard().rpc[kind];
  slot.latency.record(latency_ns);
  slot.errors.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::record_retry(std::uint8_t kind) {
  if (kind >= kMaxRpcKinds) return;
  my_shard().rpc[kind].retries.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::incr(RtCounter c, std::uint64_t n) {
  my_shard().counters[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

void MetricsRegistry::record_lock_wait(std::uint64_t ns) {
  my_shard().lock_wait.record(ns);
}

void MetricsRegistry::record_op_read(std::uint64_t ns) {
  my_shard().op_read.record(ns);
}

void MetricsRegistry::record_op_write(std::uint64_t ns) {
  my_shard().op_write.record(ns);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.host = host_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    for (std::size_t k = 0; k < kMaxRpcKinds; ++k) {
      const auto& slot = shard.rpc[k];
      slot.latency.fold_into(s.rpc[k].latency_ns);
      s.rpc[k].calls += slot.calls.load(std::memory_order_relaxed);
      s.rpc[k].bytes += slot.bytes.load(std::memory_order_relaxed);
      s.rpc[k].retries += slot.retries.load(std::memory_order_relaxed);
      s.rpc[k].errors += slot.errors.load(std::memory_order_relaxed);
    }
    for (std::size_t c = 0; c < kRtCounterCount; ++c) {
      s.counters[c] += shard.counters[c].load(std::memory_order_relaxed);
    }
    shard.lock_wait.fold_into(s.lock_wait_ns);
    shard.op_read.fold_into(s.op_read_ns);
    shard.op_write.fold_into(s.op_write_ns);
  }
  return s;
}

void MetricsRegistry::reset() {
  for (auto& shard : shards_) {
    for (auto& slot : shard.rpc) {
      slot.latency.clear();
      slot.calls.store(0, std::memory_order_relaxed);
      slot.bytes.store(0, std::memory_order_relaxed);
      slot.retries.store(0, std::memory_order_relaxed);
      slot.errors.store(0, std::memory_order_relaxed);
    }
    for (auto& c : shard.counters) c.store(0, std::memory_order_relaxed);
    shard.lock_wait.clear();
    shard.op_read.clear();
    shard.op_write.clear();
  }
}

}  // namespace coop::obs
