#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "proto/message.hpp"

namespace perfbench {

namespace cache = coop::cache;
namespace net = coop::net;
namespace proto = coop::proto;

namespace {

/// The calling thread's buffer in the most recent SpanLog it recorded into.
struct LocalSlot {
  std::uint64_t generation = 0;
  SpanLog::ThreadSpans* spans = nullptr;
};
thread_local LocalSlot t_slot;

/// The request a protocol thread is serving: set by receive(), consumed by
/// the reply's post().
struct Serving {
  std::uint64_t start_ns = 0;
  std::uint8_t kind = 0;
};
thread_local Serving t_serving;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SpanLog::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

SpanLog::ThreadSpans& SpanLog::local() {
  if (t_slot.generation != generation_) {
    auto spans = std::make_unique<ThreadSpans>();
    spans->spans.reserve(1 << 14);
    std::scoped_lock lock(mu_);
    spans->thread = static_cast<std::uint32_t>(threads_.size());
    t_slot = {generation_, spans.get()};
    threads_.push_back(std::move(spans));
  }
  return *t_slot.spans;
}

void SpanLog::record(Layer layer, std::uint8_t kind, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t op,
                     std::uint8_t flags) {
  if (!enabled()) return;
  ThreadSpans& mine = local();
  mine.spans.push_back(
      Span{start_ns, end_ns, op, mine.thread, layer, kind, flags});
}

void SpanLog::mark_protocol_thread() {
  if (!enabled()) return;
  ThreadSpans& mine = local();
  mine.protocol = true;
}

std::size_t SpanLog::span_count() const {
  std::size_t n = 0;
  for (const auto& t : threads_) n += t->spans.size();
  return n;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      unsigned char rec[32] = {};
      std::memcpy(rec, &s.start_ns, 8);
      std::memcpy(rec + 8, &s.end_ns, 8);
      std::memcpy(rec + 16, &s.op, 8);
      std::memcpy(rec + 24, &s.thread, 4);
      rec[28] = static_cast<unsigned char>(s.layer);
      rec[29] = s.kind;
      rec[30] = s.flags;
      rec[31] = t->protocol ? 1 : 0;
      out.write(reinterpret_cast<const char*>(rec), sizeof rec);
    }
  }
  return static_cast<bool>(out);
}

SpanTimer::~SpanTimer() {
  log_.record(layer_, kind_, start_, now_ns(), 0, ok_ ? 0 : kSpanFailed);
}

// --- TracingTransport ---

bool TracingTransport::post(net::Envelope env) {
  if (t_serving.start_ns != 0 && proto::is_reply(env.msg.kind)) {
    log_.record(Layer::kHandler, t_serving.kind, t_serving.start_ns, now_ns());
    t_serving.start_ns = 0;
  }
  return inner_->post(std::move(env));
}

std::optional<net::Envelope> TracingTransport::receive(cache::NodeId node) {
  auto env = inner_->receive(node);
  if (env && log_.enabled()) {
    log_.mark_protocol_thread();
    t_serving = {now_ns(), static_cast<std::uint8_t>(env->msg.kind)};
  } else {
    t_serving.start_ns = 0;
  }
  return env;
}

net::Envelope TracingTransport::call_impl(net::Envelope env) {
  SpanTimer span(log_, Layer::kNet, static_cast<std::uint8_t>(env.msg.kind));
  net::Envelope reply = inner_->call(std::move(env));
  span.done();
  return reply;
}

// --- TracingDirectory ---

namespace {

/// Runs `call` inside one kDir span of kind `kind`.
template <typename F>
auto timed(SpanLog& log, DirCall kind, F&& call) {
  SpanTimer span(log, Layer::kDir, static_cast<std::uint8_t>(kind));
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    span.done();
  } else {
    auto result = call();
    span.done();
    return result;
  }
}

}  // namespace

proto::DirectoryService::ReadLookup TracingDirectory::lookup_for_read_impl(
    cache::NodeId node, const cache::BlockId& b) {
  return timed(log_, DirCall::kLookupForRead,
               [&] { return inner_->lookup_for_read(node, b); });
}
cache::NodeId TracingDirectory::lookup_impl(const cache::BlockId& b) {
  return timed(log_, DirCall::kLookup,
               [&] { return inner_->lookup(b); });
}
bool TracingDirectory::try_claim_impl(const cache::BlockId& b,
                                      cache::NodeId node) {
  return timed(log_, DirCall::kTryClaim,
               [&] { return inner_->try_claim(b, node); });
}
std::optional<std::uint64_t> TracingDirectory::begin_forward_impl(
    const cache::BlockId& b, cache::NodeId from) {
  return timed(log_, DirCall::kBeginForward,
               [&] { return inner_->begin_forward(b, from); });
}
bool TracingDirectory::claim_forwarded_impl(const cache::BlockId& b,
                                            cache::NodeId to,
                                            cache::NodeId from,
                                            std::uint64_t epoch) {
  return timed(log_, DirCall::kClaimForwarded,
               [&] { return inner_->claim_forwarded(b, to, from, epoch); });
}
void TracingDirectory::forward_rejected_impl(const cache::BlockId& b,
                                             cache::NodeId from) {
  return timed(log_, DirCall::kForwardRejected,
               [&] { return inner_->forward_rejected(b, from); });
}
void TracingDirectory::master_dropped_impl(const cache::BlockId& b,
                                           cache::NodeId node) {
  return timed(log_, DirCall::kMasterDropped,
               [&] { return inner_->master_dropped(b, node); });
}
cache::NodeId TracingDirectory::write_claim_impl(const cache::BlockId& b,
                                                 cache::NodeId writer) {
  return timed(log_, DirCall::kWriteClaim,
               [&] { return inner_->write_claim(b, writer); });
}
void TracingDirectory::invalidate_file_impl(cache::FileId file) {
  return timed(log_, DirCall::kInvalidateFile,
               [&] { return inner_->invalidate_file(file); });
}
void TracingDirectory::write_begin_impl(cache::FileId file) {
  return timed(log_, DirCall::kWriteBegin,
               [&] { return inner_->write_begin(file); });
}
void TracingDirectory::write_end_impl(cache::FileId file) {
  return timed(log_, DirCall::kWriteEnd,
               [&] { return inner_->write_end(file); });
}
bool TracingDirectory::read_cacheable_impl(cache::FileId file,
                                           std::uint64_t epoch) {
  return timed(log_, DirCall::kReadCacheable,
               [&] { return inner_->read_cacheable(file, epoch); });
}
std::size_t TracingDirectory::purge_node_impl(cache::NodeId node) {
  return timed(log_, DirCall::kPurgeNode,
               [&] { return inner_->purge_node(node); });
}
std::vector<proto::DirBatchResult> TracingDirectory::batch_impl(
    cache::NodeId node, std::span<const proto::DirBatchItem> items) {
  return timed(log_, DirCall::kBatch,
               [&] { return inner_->batch(node, items); });
}

// --- TracingStorage ---

void TracingStorage::read(cache::FileId file, std::uint64_t offset,
                          std::span<std::byte> out) const {
  SpanTimer span(log_, Layer::kStorage,
                 static_cast<std::uint8_t>(StorageCall::kRead));
  inner_->read(file, offset, out);
  span.done();
}

void TracingStorage::write(cache::FileId file, std::uint64_t offset,
                           std::span<const std::byte> data) {
  SpanTimer span(log_, Layer::kStorage,
                 static_cast<std::uint8_t>(StorageCall::kWrite));
  inner_->write(file, offset, data);
  span.done();
}

// --- analysis helpers ---

double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
