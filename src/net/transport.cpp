#include "net/transport.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/audit.hpp"
#include "util/lockcheck.hpp"

namespace coop::net {

// The telemetry registry indexes RPC slots by the raw kind byte; make sure
// the wire vocabulary still fits (this is the seam where the proto-agnostic
// obs layer meets the protocol).
static_assert(proto::kMsgKindCount <= obs::kMaxRpcKinds,
              "obs::kMaxRpcKinds must cover every proto::MsgKind");

TransportStats TransportStats::since(const TransportStats& base) const {
  TransportStats d = *this;
  d.sent -= base.sent;
  d.received -= base.received;
  d.rpcs -= base.rpcs;
  d.bytes_sent -= base.bytes_sent;
  d.bytes_received -= base.bytes_received;
  d.flushes -= base.flushes;
  d.frame_errors -= base.frame_errors;
  d.injected_drops -= base.injected_drops;
  d.injected_delays -= base.injected_delays;
  d.injected_duplicates -= base.injected_duplicates;
  d.injected_reorders -= base.injected_reorders;
  d.rpc_timeouts -= base.rpc_timeouts;
  d.rpc_retries -= base.rpc_retries;
  d.rpc_failures -= base.rpc_failures;
  return d;
}

Envelope Transport::call(Envelope env) {
  auto* m = metrics_.load(std::memory_order_acquire);
  if (m == nullptr) return call_impl(std::move(env));
  const auto kind = static_cast<std::uint8_t>(env.msg.kind);
  const std::uint64_t request_bytes = env.msg.bytes;
  const std::uint64_t t0 = obs::runtime_now_ns();
  try {
    Envelope reply = call_impl(std::move(env));
    m->record_rpc(kind, obs::runtime_now_ns() - t0,
                  request_bytes + reply.msg.bytes);
    return reply;
  } catch (...) {
    m->record_rpc_error(kind, obs::runtime_now_ns() - t0);
    throw;
  }
}

void Transport::call_all(std::span<RoundCall> calls) {
  auto* m = metrics_.load(std::memory_order_acquire);
  const std::uint64_t t0 = m != nullptr ? obs::runtime_now_ns() : 0;
  call_all_impl(calls);
  if (m == nullptr) return;
  for (const RoundCall& c : calls) {
    const auto kind = static_cast<std::uint8_t>(c.request.msg.kind);
    if (c.error) {
      m->record_rpc_error(kind, c.done_ns - t0);
    } else {
      m->record_rpc(kind, c.done_ns - t0,
                    c.request.msg.bytes + c.reply.msg.bytes);
    }
  }
}

void Transport::call_all_impl(std::span<RoundCall> calls) {
  for (RoundCall& c : calls) {
    c.error.reset();
    try {
      c.reply = call_impl(c.request);
    } catch (const TransportError& e) {
      c.error = e;
    }
    c.done_ns = obs::runtime_now_ns();
  }
}

namespace {

/// call_all_with_retry's budget (see its comment in transport.hpp); the
/// backoff doubles per retry round up to the cap.
constexpr int kRetryAttempts = 4;
constexpr std::chrono::milliseconds kRetryBackoff{2};
constexpr std::chrono::milliseconds kRetryMaxBackoff{100};

}  // namespace

void call_all_with_retry(Transport& transport, std::span<RoundCall> calls) {
  transport.call_all(calls);
  // Indices into `calls` of the requests the next round re-sends. Every
  // request in one round has made the same number of attempts.
  std::vector<std::size_t> resend;
  const auto settle = [&](std::size_t i, int attempt) {
    const RoundCall& c = calls[i];
    if (!c.error) return;
    if (c.error->transient() && attempt < kRetryAttempts) {
      resend.push_back(i);
    } else if (auto* m = transport.metrics()) {
      m->incr(obs::RtCounter::kRpcFailure);
    }
  };
  for (std::size_t i = 0; i < calls.size(); ++i) settle(i, 1);
  auto backoff = kRetryBackoff;
  for (int attempt = 2; !resend.empty(); ++attempt) {
    // The failed requests, copied into one contiguous round (the payload
    // pointers are shared, so the copies stay cheap).
    std::vector<RoundCall> round(resend.size());
    for (std::size_t k = 0; k < resend.size(); ++k) {
      round[k].request = calls[resend[k]].request;
      if (auto* m = transport.metrics()) {
        m->record_retry(static_cast<std::uint8_t>(round[k].request.msg.kind));
      }
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, kRetryMaxBackoff);
    transport.call_all(round);
    const std::vector<std::size_t> sent = std::exchange(resend, {});
    for (std::size_t k = 0; k < sent.size(); ++k) {
      calls[sent[k]] = std::move(round[k]);
      settle(sent[k], attempt);
    }
  }
}

Envelope call_with_retry(Transport& transport, Envelope env) {
  RoundCall call;
  call.request = std::move(env);
  call_all_with_retry(transport, {&call, 1});
  if (call.error) throw *call.error;
  return std::move(call.reply);
}

InProcTransport::InProcTransport(std::size_t nodes,
                                 std::chrono::milliseconds call_timeout)
    : call_timeout_(call_timeout), handlers_(nodes), bound_(nodes) {
  if (nodes == 0) throw std::invalid_argument("InProcTransport: 0 nodes");
  mailboxes_.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    mailboxes_.push_back(std::make_unique<Mailbox<Envelope>>(
        "net.inproc.mailbox[" + std::to_string(n) + "]"));
  }
}

bool InProcTransport::serve_direct(cache::NodeId node, Handler handler) {
  if (node >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad local node");
  }
  util::ScopedLock lock(mu_);
  if (closed_.load(std::memory_order_relaxed) ||
      bound_[node].load(std::memory_order_relaxed)) {
    return false;
  }
  handlers_[node] = std::move(handler);
  bound_[node].store(true, std::memory_order_release);
  return true;
}

Envelope InProcTransport::serve_inline(Envelope& env) {
  // The handler takes the target's locks on this thread; a caller already
  // holding one of them (its own shard lock, say) could self-deadlock.
  if (util::lockcheck::enabled()) {
    if (const std::size_t held = util::lockcheck::held_count(); held != 0) {
      audit::report("direct-call-unlocked",
                    std::string("direct ") + proto::kind_name(env.msg.kind) +
                        " from node " + std::to_string(env.msg.from) +
                        " to node " + std::to_string(env.msg.to) +
                        " while holding " + std::to_string(held) +
                        " registered lock(s)");
    }
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  received_.fetch_add(1, std::memory_order_relaxed);
  return handlers_[env.msg.to](env);
}

Envelope InProcTransport::call_impl(Envelope env) {
  if (env.msg.to >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad destination node");
  }
  if (bound_[env.msg.to].load(std::memory_order_acquire)) {
    if (closed_.load(std::memory_order_acquire)) {
      throw TransportError(TransportError::Kind::kShutdown,
                           "transport is shut down");
    }
    Envelope reply = serve_inline(env);
    // The reply counts as a second delivered envelope, as on the queued path.
    sent_.fetch_add(1, std::memory_order_relaxed);
    received_.fetch_add(1, std::memory_order_relaxed);
    rpcs_.fetch_add(1, std::memory_order_relaxed);
    return reply;
  }
  pending_.open(env);
  const std::uint64_t seq = env.seq;
  if (!post(std::move(env))) {
    pending_.cancel(seq);
    throw TransportError(TransportError::Kind::kShutdown,
                         "transport is shut down");
  }
  return pending_.wait(seq, call_timeout_);
}

bool InProcTransport::post(Envelope env) {
  if (env.msg.to >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad destination node");
  }
  // Zero-copy contract: a payload-bearing envelope always carries its bytes
  // as shared BlockPtrs moved through the mailbox — never fresh buffers
  // cloned from the sender's copies (payload_copies stays 0 by construction
  // on this path).
  assert(env.msg.bytes == 0 || !env.payloads.empty());
  if (proto::is_reply(env.msg.kind) && env.seq != 0) {
    // Complete the caller blocked in call() directly — replies never take
    // the mailbox hop.
    sent_.fetch_add(1, std::memory_order_relaxed);
    received_.fetch_add(1, std::memory_order_relaxed);
    return pending_.complete(std::move(env));
  }
  if (bound_[env.msg.to].load(std::memory_order_acquire)) {
    // A one-way request: serve it here and drop the answer, as a protocol
    // thread does for seq == 0.
    if (closed_.load(std::memory_order_acquire)) return false;
    (void)serve_inline(env);
    return true;
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (!mailboxes_[env.msg.to]->send(std::move(env))) return false;
  received_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<Envelope> InProcTransport::receive(cache::NodeId node) {
  if (node >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad local node");
  }
  return mailboxes_[node]->receive();
}

void InProcTransport::close() {
  for (auto& mb : mailboxes_) mb->close();
  {
    util::ScopedLock lock(mu_);
    closed_.store(true, std::memory_order_release);
  }
  pending_.close();
}

TransportStats InProcTransport::stats() const {
  TransportStats s;
  s.sent = sent_.load(std::memory_order_relaxed);
  s.received = received_.load(std::memory_order_relaxed);
  s.rpcs = rpcs_.load(std::memory_order_relaxed) + pending_.completed();
  s.rpc_timeouts = pending_.timeouts();
  return s;
}

}  // namespace coop::net
