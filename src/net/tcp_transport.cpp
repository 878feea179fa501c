#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "net/frame.hpp"

namespace coop::net {

static_assert(1 + kMaxFramePayloads <= IOV_MAX,
              "a frame is sent in one sendmsg of at most IOV_MAX iovecs");

namespace {

/// Send deadline: a connection whose socket has not taken a whole frame
/// this long is dropped as stalled.
constexpr std::chrono::seconds kSendTimeout{10};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Reads exactly `len` bytes; false on EOF/error.
bool read_exact(int fd, std::byte* out, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes every iovec fully within kSendTimeout, advancing across partial
/// writes; false on error (peer gone) or once the deadline passes with bytes
/// left (peer stalled). Each sendmsg is nonblocking and the waits between
/// them share one deadline, so the bound covers the whole frame. Mutates the
/// iovec array as it advances.
bool send_all(int fd, iovec* iov, std::size_t iovcnt) {
  const auto deadline = std::chrono::steady_clock::now() + kSendTimeout;
  std::size_t idx = 0;
  while (idx < iovcnt) {
    msghdr msg{};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = iovcnt - idx;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd, POLLOUT, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) == 0) {
        return false;  // the deadline passed with bytes left
      }
      continue;  // the next sendmsg reports whatever woke the poll
    }
    if (n <= 0) return false;
    std::size_t put = static_cast<std::size_t>(n);
    while (idx < iovcnt && put >= iov[idx].iov_len) {
      put -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iovcnt && put > 0) {
      iov[idx].iov_base = static_cast<std::byte*>(iov[idx].iov_base) + put;
      iov[idx].iov_len -= put;
    }
  }
  return true;
}

}  // namespace

TcpTransport::TcpTransport(const TcpConfig& config)
    : config_(config),
      peer_age_(config.nodes),
      peer_full_(config.nodes) {
  if (config_.nodes == 0 || config_.local_node >= config_.nodes) {
    throw std::invalid_argument("TcpTransport: bad local node / node count");
  }
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    peer_age_[n].store(proto::kNoAge, std::memory_order_relaxed);
    peer_full_[n].store(false, std::memory_order_relaxed);
  }
  conns_.resize(config_.nodes);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(config_.listen_port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, static_cast<int>(config_.nodes) + 4) != 0) {
    close_fd(listen_fd_);
    throw std::runtime_error("TcpTransport: bind/listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  listen_port_ = ntohs(bound.sin_port);
}

TcpTransport::~TcpTransport() { close(); }

TcpTransport::Connection::~Connection() { ::close(fd); }

void TcpTransport::set_summary_source(
    std::function<std::pair<std::uint64_t, bool>()> source) {
  // mu_ serialises installers; senders never take it to read the source.
  util::ScopedLock lock(mu_);
  if (summary_set_.load(std::memory_order_relaxed)) {
    throw std::logic_error("TcpTransport: summary source already installed");
  }
  summary_ = std::move(source);
  summary_set_.store(true, std::memory_order_release);
}

std::optional<cache::NodeId> TcpTransport::handshake(int fd) {
  // Symmetric: both sides send first, then read (8 bytes — never fills the
  // socket buffer, so simultaneous sends cannot deadlock).
  std::vector<std::byte> ours = encode_handshake(config_.local_node);
  iovec iov{ours.data(), ours.size()};
  if (!send_all(fd, &iov, 1)) return std::nullopt;
  std::array<std::byte, kHandshakeSize> theirs{};
  if (!read_exact(fd, theirs.data(), theirs.size())) return std::nullopt;
  return decode_handshake(theirs);
}

void TcpTransport::adopt_connection(int fd, cache::NodeId peer) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Reap a dead predecessor first: a peer that crashed and re-dialed still
  // owns a stale conns_ entry whose reader has exited (or is on its way out
  // through drop_connection). Take it out under the lock, join outside — the
  // reader takes mu_ itself as it unwinds, and adopt runs only on the
  // accept_loop / connect_peers threads, never on a reader, so the join
  // cannot deadlock or self-join. A sender still writing to the dead socket
  // holds its own reference, so the fd outlives this reap until it lets go.
  std::shared_ptr<Connection> dead;
  {
    util::ScopedLock lock(mu_);
    if (conns_[peer] != nullptr &&
        !conns_[peer]->alive.load(std::memory_order_acquire)) {
      dead = std::move(conns_[peer]);
    }
  }
  if (dead != nullptr && dead->reader.joinable()) dead->reader.join();
  util::ScopedLock lock(mu_);
  if (closed_ || conns_[peer] != nullptr) {
    ::close(fd);  // duplicate live connection, or shutting down
    return;
  }
  auto conn = std::make_shared<Connection>(fd, peer);
  Connection* raw = conn.get();
  raw->reader = std::thread([this, raw] { reader_loop(*raw); });
  conns_[peer] = std::move(conn);
}

void TcpTransport::connect_peers(const std::vector<TcpPeer>& peers) {
  if (peers.size() < config_.nodes) {
    throw std::invalid_argument("TcpTransport: peer table too small");
  }
  accept_thread_ = std::thread([this] { accept_loop(); });

  const auto deadline =
      std::chrono::steady_clock::now() + config_.connect_timeout;
  // Dial every lower-id peer, retrying until it listens.
  for (cache::NodeId peer = 0; peer < config_.local_node; ++peer) {
    while (true) {
      if (closed_) throw std::runtime_error("TcpTransport: closed");
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("TcpTransport: socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(peers[peer].port);
      if (::inet_pton(AF_INET, peers[peer].host.c_str(), &addr.sin_addr) !=
          1) {
        ::close(fd);
        throw std::invalid_argument("TcpTransport: bad peer host " +
                                    peers[peer].host);
      }
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        const auto got = handshake(fd);
        if (got && *got == peer) {
          adopt_connection(fd, peer);
          break;
        }
        ::close(fd);  // wrong node answered — fatal config error
        throw std::runtime_error("TcpTransport: handshake with peer " +
                                 std::to_string(peer) + " failed");
      }
      ::close(fd);
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error("TcpTransport: timed out dialing peer " +
                                 std::to_string(peer));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  // Higher-id peers dial us; wait for the mesh to complete.
  while (connected_peers() + 1 < config_.nodes) {
    if (closed_) throw std::runtime_error("TcpTransport: closed");
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("TcpTransport: timed out waiting for peers");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void TcpTransport::accept_loop() {
  while (!closed_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const auto peer = handshake(fd);
    // Accept only higher-id peers (they dial down); anything else is a
    // misconfigured or foreign client.
    if (!peer || *peer <= config_.local_node || *peer >= config_.nodes) {
      ::close(fd);
      continue;
    }
    adopt_connection(fd, *peer);
  }
}

void TcpTransport::reader_loop(Connection& conn) {
  FrameReader reader;
  std::vector<std::byte> buf(64 * 1024);
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
    if (n <= 0) {
      // EOF or error; bytes stranded mid-frame mean the stream was cut
      // inside a message — count it with the malformed frames.
      drop_connection(conn, reader.buffered() > 0);
      return;
    }
    {
      util::ScopedLock lock(mu_);
      stats_.bytes_received += static_cast<std::uint64_t>(n);
    }
    if (!reader.feed(std::span<const std::byte>(
            buf.data(), static_cast<std::size_t>(n)))) {
      drop_connection(conn, /*frame_error=*/true);
      return;
    }
    while (auto frame = reader.next()) {
      peer_age_[conn.peer].store(frame->sender_age,
                                 std::memory_order_relaxed);
      peer_full_[conn.peer].store(frame->sender_full,
                                  std::memory_order_relaxed);
      {
        util::ScopedLock lock(mu_);
        ++stats_.received;
      }
      route_incoming(std::move(frame->env));
    }
  }
}

bool TcpTransport::route_incoming(Envelope env) {
  if (proto::is_reply(env.msg.kind) && env.seq != 0) {
    (void)pending_.complete(std::move(env));  // false: caller gave up
    return true;
  }
  // Blocking send: a full inbound queue backpressures this connection's
  // reader (and, through TCP flow control, the remote sender).
  return inbound_.send(std::move(env));
}

void TcpTransport::drop_connection(Connection& conn, bool frame_error) {
  {
    util::ScopedLock lock(mu_);
    if (!conn.alive.exchange(false, std::memory_order_acq_rel)) {
      return;  // already dropped
    }
    if (frame_error) ++stats_.frame_errors;
  }
  ::shutdown(conn.fd, SHUT_RDWR);  // unblocks the reader and any sender
  pending_.fail(conn.peer);
}

Envelope TcpTransport::call_impl(Envelope env) {
  RoundCall call;
  call.request = std::move(env);
  call_all_impl({&call, 1});
  if (call.error) throw *call.error;
  return std::move(call.reply);
}

void TcpTransport::call_all_impl(std::span<RoundCall> calls) {
  // Every call of the round shares one deadline, measured from its start.
  const auto deadline =
      std::chrono::steady_clock::now() + config_.call_timeout;
  // Open and post every call before waiting for any reply. A call's seq
  // rides in its reply envelope until the reply itself lands there.
  std::size_t opened = 0;  // calls[0, opened) may hold a pending entry
  try {
    for (RoundCall& c : calls) {
      c.error.reset();
      c.reply.seq = 0;
      ++opened;
      Envelope env = c.request;
      try {
        pending_.open(env);
      } catch (const TransportError& e) {
        c.error = e;  // closed: every later open fails the same way
        continue;
      }
      c.reply.seq = env.seq;
      const cache::NodeId dest = env.msg.to;
      if (!post(std::move(env))) {
        pending_.cancel(c.reply.seq);
        if (closed_) {
          c.error.emplace(TransportError::Kind::kShutdown,
                          "transport is shut down");
        } else {
          c.error.emplace(TransportError::Kind::kPeerDown,
                          "peer " + std::to_string(dest) + " is unreachable");
        }
      }
    }
    // Collect in round order: a reply that lands early waits in its entry,
    // and a call to a peer dropped meanwhile has already failed.
    for (RoundCall& c : calls) {
      if (!c.error) {
        try {
          const auto left = std::chrono::ceil<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
          c.reply = pending_.wait(
              c.reply.seq, std::max(left, std::chrono::milliseconds{0}));
        } catch (const TransportError& e) {
          c.error = e;
        }
      }
      c.done_ns = obs::runtime_now_ns();
    }
  } catch (...) {
    // post() refused a malformed envelope, or an allocation failed: no
    // entry of this round may outlive it (cancelling a collected or never
    // opened call is a no-op).
    for (std::size_t i = 0; i < opened; ++i) {
      pending_.cancel(calls[i].reply.seq);
    }
    throw;
  }
}

bool TcpTransport::post(Envelope env) {
  if (env.msg.to >= config_.nodes) {
    throw std::invalid_argument("TcpTransport: bad destination node");
  }
  if (env.payloads.size() > kMaxFramePayloads) {
    throw std::invalid_argument("TcpTransport: too many payloads");
  }
  for (const BlockPtr& p : env.payloads) {
    if (!p->is_ready()) {
      throw std::invalid_argument("TcpTransport: payload is not ready");
    }
  }
  if (env.msg.to == config_.local_node) {
    {
      util::ScopedLock lock(mu_);
      if (closed_) return false;
      ++stats_.sent;
      ++stats_.received;
    }
    return route_incoming(std::move(env));
  }
  std::shared_ptr<Connection> conn;
  {
    util::ScopedLock lock(mu_);
    if (closed_) return false;
    conn = conns_[env.msg.to];
    if (conn == nullptr || !conn->alive.load(std::memory_order_acquire)) {
      return false;
    }
    ++stats_.sent;
  }
  std::uint64_t age = proto::kNoAge;
  bool full = false;
  if (summary_set_.load(std::memory_order_acquire)) {
    std::tie(age, full) = summary_();
  }
  // Scatter-gather framing: the header and length table, then one iovec
  // per payload pointing straight into its shared BlockData buffer, which
  // `env` keeps alive until the send returns. Payload bytes never copy
  // through an intermediate frame buffer (TransportStats::payload_copies
  // stays 0 — CI-asserted).
  FrameHeader header = encode_frame_header(env, age, full);
  std::array<iovec, 1 + kMaxFramePayloads> iov{};
  iov[0] = {header.bytes.data(), header.size};
  std::size_t iovcnt = 1;
  std::size_t total = header.size;
  for (const BlockPtr& p : env.payloads) {
    if (p->bytes.empty()) continue;
    iov[iovcnt++] = {const_cast<std::byte*>(p->bytes.data()),
                     p->bytes.size()};
    total += p->bytes.size();
  }
  bool sent = false;
  {
    util::ScopedLock lock(conn->send_mu);
    sent = send_all(conn->fd, iov.data(), iovcnt);
  }
  if (!sent) {
    // Peer gone, or stalled past the deadline: drop this connection rather
    // than wedge the next sender behind it.
    drop_connection(*conn, /*frame_error=*/false);
    return false;
  }
  util::ScopedLock lock(mu_);
  ++stats_.flushes;
  stats_.bytes_sent += total;
  return true;
}

std::optional<Envelope> TcpTransport::receive(cache::NodeId node) {
  if (node != config_.local_node) {
    throw std::invalid_argument("TcpTransport: receive for non-local node");
  }
  return inbound_.receive();
}

void TcpTransport::close() {
  if (closed_.exchange(true)) return;
  pending_.close();
  inbound_.close();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Take every connection out of the table under the lock, then shut and
  // join outside it: readers take mu_ themselves on their way out, and after
  // closed_ flips no adopt_connection can add entries. A socket closes when
  // the last sender still holding it lets go.
  std::vector<std::shared_ptr<Connection>> live;
  {
    util::ScopedLock lock(mu_);
    for (auto& conn : conns_) {
      if (conn) live.push_back(std::move(conn));
    }
  }
  for (const auto& conn : live) {
    conn->alive.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
    if (conn->reader.joinable()) conn->reader.join();
  }
  close_fd(listen_fd_);
}

TransportStats TcpTransport::stats() const {
  TransportStats s;
  {
    util::ScopedLock lock(mu_);
    s = stats_;
  }
  s.rpcs = pending_.completed();
  s.rpc_timeouts = pending_.timeouts();
  return s;
}

std::uint64_t TcpTransport::peer_oldest_age(cache::NodeId n) const {
  return peer_age_[n].load(std::memory_order_relaxed);
}

bool TcpTransport::peer_full(cache::NodeId n) const {
  return peer_full_[n].load(std::memory_order_relaxed);
}

std::size_t TcpTransport::connected_peers() const {
  util::ScopedLock lock(mu_);
  std::size_t live = 0;
  for (const auto& conn : conns_) {
    if (conn && conn->alive.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

}  // namespace coop::net
