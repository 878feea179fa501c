// The pluggable node-to-node transport behind the middleware runtime.
//
// CcmCluster speaks only this interface: client operations issue blocking
// RPCs with call(), or a round of independent RPCs to several nodes with
// call_all(); protocol threads pull requests with receive() and answer with
// post(). Two implementations exist:
//
//  * InProcTransport — every node lives in this process. A node bound with
//    serve_direct() has its handler run on the caller's thread inside
//    call(); an unbound node is reached by a Mailbox<Envelope> hop to its
//    protocol thread. Payloads are shared by pointer either way. A round
//    runs its calls one after another, in order.
//  * TcpTransport (tcp_transport.hpp) — this process hosts one node; peers
//    are separate processes reached over length-prefixed frames on real
//    sockets (127.0.0.1 in the loopback cluster, anything routable in
//    general). A round sends every request before it waits for any reply,
//    so it costs about one round trip, not one per call.
//
// Reply routing is the transport's job: an envelope whose kind satisfies
// proto::is_reply() completes the pending call() with the matching seq
// (net::PendingCalls, one table per transport) and is never surfaced
// through receive(). That keeps protocol threads free to block on their
// own outbound RPCs (a remote directory claim, say) while replies for them
// arrive: on the queued path a protocol thread never waits on a reply that
// only it could deliver. A direct call has no reply to route — the
// handler's return value is the reply — so the one thing it demands of its
// caller is to hold no lock the handler might take (checked by the
// lock-order watchdog as "direct-call-unlocked").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/envelope.hpp"
#include "net/mailbox.hpp"
#include "net/pending_calls.hpp"
#include "obs/metrics.hpp"
#include "proto/node_state.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::net {

/// Delivery counters, uniform across implementations and counted from
/// construction; the socket transport also fills the byte/flush fields. One
/// flush is one frame written to a peer by the posting thread, so
/// sent/flushes reads about 1.0 by construction (posts to the local node,
/// and sends that fail, count as sent without a flush). The injected_*
/// fields are filled only by FaultyTransport (net/fault.hpp). No transport
/// fills rpc_retries or rpc_failures: CcmCluster::stats() sets them from the
/// metrics registry, where call_all_with_retry records them.
struct TransportStats {
  std::uint64_t sent = 0;            // envelopes handed to the transport
  std::uint64_t received = 0;        // envelopes delivered (incl. replies)
  std::uint64_t rpcs = 0;            // calls answered (call() or a round)
  std::uint64_t bytes_sent = 0;      // framed bytes written (TCP)
  std::uint64_t bytes_received = 0;  // framed bytes read (TCP)
  std::uint64_t flushes = 0;         // frames written to a peer (TCP)
  std::uint64_t frame_errors = 0;    // malformed frames -> dropped peers
  std::uint64_t injected_drops = 0;      // messages swallowed by a fault rule
  std::uint64_t injected_delays = 0;     // messages held back by a fault rule
  std::uint64_t injected_duplicates = 0; // messages delivered twice
  std::uint64_t injected_reorders = 0;   // messages swapped with a successor
  std::uint64_t rpc_timeouts = 0;    // call() deadlines that expired
  std::uint64_t rpc_retries = 0;     // call_all_with_retry re-sends
  std::uint64_t rpc_failures = 0;    // retry budgets exhausted -> error
  /// Send-side payload buffer copies. The zero-copy contract keeps this at 0
  /// on every transport: in-proc delivery forwards the shared BlockPtr, and
  /// a TCP send scatter-gathers {frame header, payload} straight from
  /// the shared BlockData buffer (CI asserts == 0 on the loopback cluster).
  std::uint64_t payload_copies = 0;

  /// The counts accrued since `base`, an earlier reading of the same
  /// transport. payload_copies stays the lifetime count, so a zero-copy
  /// check over a window still covers everything before it.
  [[nodiscard]] TransportStats since(const TransportStats& base) const;
};

/// Classified transport failure. Everything the transports throw on a
/// delivery path is one of these (it derives from std::runtime_error, so
/// pre-existing catch sites keep working); retry loops key off transient().
class TransportError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kTimeout,   // call() deadline expired (peer alive but unresponsive?)
    kPeerDown,  // destination unreachable / dropped mid-call / crashed
    kShutdown,  // this transport is closed — final, never retried
    kInjected,  // a FaultSchedule rule consumed the message
  };

  TransportError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  /// Worth re-attempting? A shut-down transport never heals; a timed-out,
  /// crashed, or fault-injected delivery may.
  [[nodiscard]] bool transient() const { return kind_ != Kind::kShutdown; }

 private:
  Kind kind_;
};

/// One call of a call_all() round. The caller fills `request`; the round
/// reads it without consuming it (so a retry can re-send it) and sets either
/// `reply` or `error`.
struct RoundCall {
  Envelope request;
  Envelope reply;
  std::optional<TransportError> error;
  /// obs::runtime_now_ns() when the round collected this call's reply or
  /// error; call_all() times each call from the round's start to here.
  std::uint64_t done_ns = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocking request/response: assigns a fresh seq, delivers to
  /// env.msg.to, waits for the reply. Throws TransportError when the
  /// transport (or the peer) is shut down, the peer dies mid-call, or the
  /// call deadline expires — no call blocks forever on a dead peer.
  ///
  /// Non-virtual telemetry wrapper around call_impl(): when a metrics
  /// registry is installed it records one per-MsgKind latency/bytes sample
  /// per round trip (errors included). With no registry the cost is one
  /// relaxed load.
  Envelope call(Envelope env);

  /// A round of independent calls, each to its own request's destination:
  /// returns once every call has its reply or its error, each failing alone
  /// (a TransportError lands in that call's `error`; anything else
  /// propagates). On a transport that overlaps them the round waits about
  /// as long as its slowest call, not the sum. Requests to one destination
  /// leave in round order. Issue a round outside every lock, like call().
  ///
  /// Non-virtual telemetry wrapper around call_all_impl(): one per-MsgKind
  /// sample per call, timed from the start of the round to that call's
  /// reply.
  void call_all(std::span<RoundCall> calls);

  /// One-way delivery to env.msg.to (replies, fire-and-forget posts).
  /// False when the destination is closed.
  virtual bool post(Envelope env) = 0;

  /// Serves one request addressed to a locally hosted node and returns its
  /// reply envelope (the reply's seq is ignored on the direct path).
  using Handler = std::function<Envelope(Envelope&)>;

  /// Offers to run `handler` for every request addressed to locally hosted
  /// `node` on the thread that sends it, instead of queuing it for
  /// receive(). True means accepted: the node needs no protocol thread, and
  /// callers into it must hold no lock the handler takes. Bind before any
  /// traffic reaches the node; a node binds at most once. The default
  /// declines, which keeps the queued path — the right answer for a socket
  /// transport, and for a decorator whose perturbations act on queued
  /// posts (FaultyTransport's reply delay and reorder rules).
  virtual bool serve_direct(cache::NodeId node, Handler handler) {
    (void)node;
    (void)handler;
    return false;
  }

  /// Next *request* envelope addressed to locally-hosted node `node`;
  /// nullopt once the transport is closed and drained.
  virtual std::optional<Envelope> receive(cache::NodeId node) = 0;

  /// Shuts delivery down: pending call()s fail, receive() drains then ends.
  virtual void close() = 0;

  [[nodiscard]] virtual TransportStats stats() const = 0;

  /// Best-effort view of a remote peer's published cache summary (oldest
  /// LRU age / fullness), refreshed from the piggyback fields every frame
  /// carries. proto::kNoAge / false until the peer has been heard from.
  [[nodiscard]] virtual std::uint64_t peer_oldest_age(cache::NodeId n) const {
    (void)n;
    return proto::kNoAge;
  }
  [[nodiscard]] virtual bool peer_full(cache::NodeId n) const {
    (void)n;
    return false;
  }

  /// Installs the registry call() and call_all() record RPC samples into
  /// (nullptr turns recording off). Install on the *outermost* transport
  /// only — a decorator (FaultyTransport) delegates to the inner
  /// transport's call_impl via call(), which stays silent while the inner
  /// registry is null, so samples are never double-counted. The pointer
  /// must outlive the transport's traffic; callers may install it while
  /// calls are in flight (atomic).
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_.store(metrics, std::memory_order_release);
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const {
    return metrics_.load(std::memory_order_acquire);
  }

 protected:
  /// The actual blocking round trip (see call()).
  virtual Envelope call_impl(Envelope env) = 0;

  /// The round behind call_all(); it stamps each call's done_ns. The
  /// default runs the calls through call_impl one at a time, in order: what
  /// InProcTransport needs (its direct path serves a call on the caller's
  /// thread anyway) and what a decorator gets, so FaultyTransport's event
  /// log stays replayable. TcpTransport overrides it to send every request
  /// before it waits for any reply.
  virtual void call_all_impl(std::span<RoundCall> calls);

 private:
  std::atomic<obs::MetricsRegistry*> metrics_{nullptr};
};

/// Issues a round through transport.call_all(), then re-sends each request
/// that failed with a transient TransportError, alone with the others that
/// failed, as a smaller round. Every request has the same budget: 4
/// attempts in all, with a geometric backoff between rounds from 2 ms
/// capped at 100 ms — enough to ride out a few injected drops or a
/// send-window partition without masking a dead peer for more than about a
/// quarter second. A request whose error is final or whose budget is spent
/// keeps that error in its `error`. A re-sent request may execute twice,
/// so it must be idempotent or tolerated as at-least-once (docs/FAULTS.md
/// has the per-kind analysis). With a registry installed on
/// `transport`, each re-send counts in its kind's `retries` and each request
/// left failed in `rpc-failures`.
void call_all_with_retry(Transport& transport, std::span<RoundCall> calls);

/// call_all_with_retry's round of one: the reply, or the last error thrown.
Envelope call_with_retry(Transport& transport, Envelope env);

/// All nodes in one process. A node bound with serve_direct() is served on
/// the caller's thread — no mailbox, pending-table entry, condition
/// variable or lock; an unbound node keeps its request mailbox and the
/// pending-call table.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(
      std::size_t nodes,
      std::chrono::milliseconds call_timeout = std::chrono::seconds(30));

  bool post(Envelope env) override;
  std::optional<Envelope> receive(cache::NodeId node) override;
  bool serve_direct(cache::NodeId node, Handler handler) override;
  void close() override;
  [[nodiscard]] TransportStats stats() const override;

 protected:
  Envelope call_impl(Envelope env) override;

 private:
  /// Runs a request for bound node env.msg.to on this thread (the caller
  /// has checked closed_), counting it as one delivered envelope.
  Envelope serve_inline(Envelope& env);

  std::vector<std::unique_ptr<Mailbox<Envelope>>> mailboxes_;
  const std::chrono::milliseconds call_timeout_;
  PendingCalls pending_{"net.inproc.pending"};

  // Direct handlers by node. handlers_[n] is written once, under mu_,
  // before bound_[n] is released, and only read after bound_[n] is
  // acquired true — so callers read it lock-free.
  std::vector<Handler> handlers_;
  std::vector<std::atomic<bool>> bound_;
  // Serializes binding against itself and against close().
  util::Mutex mu_{"net.inproc.state"};

  // Read lock-free by the direct path; the counters are relaxed. rpcs_
  // counts direct round trips (the queued ones are pending_.completed()).
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> rpcs_{0};
};

}  // namespace coop::net
