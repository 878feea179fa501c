// Real socket transport: one process hosts one CCM node; peers are other
// processes reached over TCP (127.0.0.1 in the loopback cluster).
//
// Topology: every process listens; the process with the higher node id
// dials the lower one, so each pair shares exactly one duplex connection.
// Each direction of a connection opens with a handshake (magic, protocol
// version, node id); anything else on the socket is length-prefixed frames
// (net/frame.hpp).
//
// Threads per connection: a reader (deframes and routes — replies complete
// pending call()s, requests land in the inbound mailbox the protocol thread
// drains) and a writer draining a bounded outbox. The writer batches: it
// sleeps until the outbox is non-empty, then drains everything queued into
// one scatter-gather write syscall — control messages that arrive while a
// flush is in flight coalesce into the next one, amortizing syscalls under
// load without adding idle latency. Outbox enqueues use the deadline-bounded
// Mailbox::send_for as backpressure: a peer that stays stalled past the
// deadline is dropped rather than wedging the sender.
//
// Only ready bytes are sent: post() refuses an envelope whose payload latch
// is still closed, so everything in an outbox can be written the moment the
// writer reaches it, and nothing on a connection waits on a producer.
//
// Failure model: a malformed frame, a mid-frame EOF, or a stalled outbox
// drops that connection; RPCs pending against the dead peer fail promptly
// with TransportError (kPeerDown, or kTimeout if the peer simply never
// answers within call_timeout), everything else keeps flowing; close()
// fails every pending call with kShutdown. A peer that re-dials after its
// connection died is adopted back in: adopt_connection reaps the dead
// connection's threads and installs the new socket, which is what lets a
// crashed node rejoin a live mesh.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::net {

/// Where to reach a peer node.
struct TcpPeer {
  std::string host;
  std::uint16_t port = 0;
};

struct TcpConfig {
  cache::NodeId local_node = 0;
  std::size_t nodes = 1;
  /// Listening port; 0 binds an ephemeral port (see listen_port()).
  std::uint16_t listen_port = 0;
  std::chrono::milliseconds connect_timeout{20000};
  /// call() reply deadline: a call against a peer that stays silent fails
  /// with TransportError::kTimeout instead of blocking forever.
  std::chrono::milliseconds call_timeout{30000};
};

class TcpTransport final : public Transport {
 public:
  /// Binds the listening socket (so the actual port is known before peers
  /// dial) but accepts/dials nothing until connect_peers().
  explicit TcpTransport(const TcpConfig& config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Establishes the full peer mesh: dials every lower-id peer (retrying
  /// until the peer listens), accepts every higher-id one. `peers` is
  /// indexed by node id; the local entry is ignored. Blocks until all
  /// nodes-1 connections are up; throws on timeout.
  void connect_peers(const std::vector<TcpPeer>& peers);

  /// Source of the local node's published cache summary (oldest age,
  /// full), piggybacked on every outgoing flush. Defaults to "unknown".
  void set_summary_source(
      std::function<std::pair<std::uint64_t, bool>()> source);

  /// One-way delivery. Throws std::invalid_argument for a bad destination
  /// or a payload that is not ready yet.
  bool post(Envelope env) override;
  std::optional<Envelope> receive(cache::NodeId node) override;
  void close() override;
  [[nodiscard]] TransportStats stats() const override;
  [[nodiscard]] std::uint64_t peer_oldest_age(cache::NodeId n) const override;
  [[nodiscard]] bool peer_full(cache::NodeId n) const override;

  /// Live peer connections (loopback drivers poll this for the start
  /// rendezvous).
  [[nodiscard]] std::size_t connected_peers() const;

 protected:
  Envelope call_impl(Envelope env) override;

 private:
  struct Connection {
    // fd/peer are set before the reader/writer threads start and are only
    // read afterwards; alive is the atomic liveness flag.
    int fd = -1;
    cache::NodeId peer = cache::kInvalidNode;
    Mailbox<Envelope> outbox;
    std::thread reader;
    std::thread writer;
    std::atomic<bool> alive{false};

    explicit Connection(cache::NodeId peer_id)
        : peer(peer_id),
          outbox("net.tcp.outbox[" + std::to_string(peer_id) + "]") {}
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);
  /// Performs the handshake on a fresh socket; returns the peer's node id
  /// or nullopt (socket closed by the caller on failure).
  std::optional<cache::NodeId> handshake(int fd);
  void adopt_connection(int fd, cache::NodeId peer);
  void drop_connection(cache::NodeId peer, bool frame_error);
  /// Completes a call with a reply, or queues a request for the protocol
  /// thread; false when the inbound queue is closed.
  bool route_incoming(Envelope env);

  TcpConfig config_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> closed_{false};

  Mailbox<Envelope> inbound_{"net.tcp.inbound"};
  PendingCalls pending_{"net.tcp.pending"};
  std::function<std::pair<std::uint64_t, bool>()> summary_;

  // Connections table and delivery counters (the call counts live in
  // pending_). Ordered after the shard locks (a protocol thread RPCs
  // through here with its shard held) and before the outbox mailbox locks;
  // never held across a blocking send, a join, or a syscall.
  mutable util::Mutex mu_{"net.tcp.state"};
  std::vector<std::unique_ptr<Connection>> conns_
      GUARDED_BY(mu_);  // indexed by node id
  TransportStats stats_ GUARDED_BY(mu_);

  /// Piggybacked peer summaries, refreshed on every received frame.
  std::vector<std::atomic<std::uint64_t>> peer_age_;
  std::vector<std::atomic<bool>> peer_full_;
};

}  // namespace coop::net
