// Real socket transport: one process hosts one CCM node; peers are other
// processes reached over TCP (127.0.0.1 in the loopback cluster).
//
// Topology: every process listens; the process with the higher node id
// dials the lower one, so each pair shares exactly one duplex connection.
// Each direction of a connection opens with a handshake (magic, protocol
// version, node id); anything else on the socket is length-prefixed frames
// (net/frame.hpp).
//
// Threads: one reader per connection (deframes and routes — replies
// complete pending call()s, requests land in the inbound mailbox the
// protocol thread drains) plus the accept thread. There is no writer thread:
// post() frames its envelope and sendmsg()s it on the caller's own thread,
// the header and length table plus one iovec per payload, under the
// connection's send lock
// (net.tcp.send[peer]) so concurrent frames never interleave on the wire.
// Backpressure is the socket itself: a sender blocks while the peer's
// receive window is full, and a connection whose socket has not taken a
// whole frame within kSendTimeout (10 s, one deadline across every partial
// write) is dropped as stalled rather than wedging the sender.
//
// Only ready bytes are sent: post() refuses an envelope any of whose
// payload latches is still closed, so a send never waits on a producer.
//
// Rounds: call_all() opens a pending entry for every call of the round and
// posts every frame before it waits for any reply, then collects the
// replies in round order under one deadline measured from the start of the
// round; call() is a round of one. Frames to one peer leave in round order
// on its one connection, and the peer's single protocol thread serves them
// in that order. No pending entry outlives its round, whatever fails.
//
// Connection lifetime: a sender holds a shared_ptr to the connection it
// writes, and the socket closes only when the last holder lets go, so
// reaping a dead connection never frees or closes a socket mid-send. A
// failed send drops the connection it was written to, not whatever has
// since replaced it at that peer id.
//
// Failure model: a malformed frame, a mid-frame EOF, or a stalled send
// drops that connection; RPCs pending against the dead peer fail promptly
// with TransportError (kPeerDown, or kTimeout if the peer simply never
// answers within call_timeout), everything else keeps flowing; close()
// fails every pending call with kShutdown. A peer that re-dials after its
// connection died is adopted back in: adopt_connection reaps the dead
// connection's reader and installs the new socket, which is what lets a
// crashed node rejoin a live mesh.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
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
  /// full), piggybacked on every outgoing frame and called on the sending
  /// thread. Defaults to "unknown". Install it once, before or after
  /// connect_peers(); a second install throws std::logic_error.
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

  /// Calls whose pending entry is still open: 0 whenever no call or round
  /// is in progress.
  [[nodiscard]] std::size_t calls_in_flight() const {
    return pending_.outstanding();
  }

 protected:
  /// A round of one.
  Envelope call_impl(Envelope env) override;
  /// Opens a pending entry for every call and posts every frame, then
  /// collects the replies in round order under one deadline that runs
  /// from the start of the round.
  void call_all_impl(std::span<RoundCall> calls) override;

 private:
  struct Connection {
    // alive is the atomic liveness flag. The fd closes with the last
    // shared_ptr (~Connection), so a sender still writing keeps it open.
    const int fd;
    const cache::NodeId peer;
    /// Held across one frame's sendmsg/poll loop: frames never interleave.
    util::Mutex send_mu;
    std::thread reader;
    std::atomic<bool> alive{true};

    Connection(int sock, cache::NodeId peer_id)
        : fd(sock),
          peer(peer_id),
          send_mu("net.tcp.send[" + std::to_string(peer_id) + "]") {}
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  /// Performs the handshake on a fresh socket; returns the peer's node id
  /// or nullopt (socket closed by the caller on failure).
  std::optional<cache::NodeId> handshake(int fd);
  void adopt_connection(int fd, cache::NodeId peer);
  /// Marks `conn` dead, shuts its socket and fails the calls pending on its
  /// peer; a no-op for a connection already dropped.
  void drop_connection(Connection& conn, bool frame_error);
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
  // Written once, before summary_set_ is released; senders call it only
  // after an acquire load sees the flag.
  std::function<std::pair<std::uint64_t, bool>()> summary_;
  std::atomic<bool> summary_set_{false};

  // Connections table and delivery counters (the call counts live in
  // pending_). Ordered after the shard locks (a protocol thread RPCs
  // through here with its shard held); never held across a blocking send,
  // a join or a syscall, and never nested with a connection's send lock.
  mutable util::Mutex mu_{"net.tcp.state"};
  std::vector<std::shared_ptr<Connection>> conns_
      GUARDED_BY(mu_);  // indexed by node id
  TransportStats stats_ GUARDED_BY(mu_);

  /// Piggybacked peer summaries, refreshed on every received frame.
  std::vector<std::atomic<std::uint64_t>> peer_age_;
  std::vector<std::atomic<bool>> peer_full_;
};

}  // namespace coop::net
