#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"

namespace coop::net {

namespace {

/// Envelopes coalesced into one write syscall at most (bounds the latency a
/// huge backlog can add to the first message of a flush).
constexpr std::size_t kMaxBatch = 64;

/// Outbox backpressure deadline (Mailbox::send_for): a peer whose outbox
/// stays full this long is dropped as stalled.
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

/// Writes all of `buf`; false on error (peer gone).
bool write_all(int fd, const std::byte* buf, std::size_t len) {
  std::size_t put = 0;
  while (put < len) {
    const ssize_t n = ::send(fd, buf + put, len - put, MSG_NOSIGNAL);
    if (n <= 0) return false;
    put += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes every iovec fully, advancing across partial writes; false on
/// error (peer gone). Mutates the iovec array as it advances.
bool writev_all(int fd, iovec* iov, std::size_t iovcnt) {
  std::size_t idx = 0;
  while (idx < iovcnt) {
    msghdr msg{};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = std::min(iovcnt - idx, static_cast<std::size_t>(IOV_MAX));
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return false;
    std::size_t left = static_cast<std::size_t>(n);
    while (idx < iovcnt && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iovcnt && left > 0) {
      iov[idx].iov_base = static_cast<std::byte*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
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

void TcpTransport::set_summary_source(
    std::function<std::pair<std::uint64_t, bool>()> source) {
  summary_ = std::move(source);
}

std::optional<cache::NodeId> TcpTransport::handshake(int fd) {
  // Symmetric: both sides send first, then read (8 bytes — never fills the
  // socket buffer, so simultaneous sends cannot deadlock).
  const std::vector<std::byte> ours = encode_handshake(config_.local_node);
  if (!write_all(fd, ours.data(), ours.size())) return std::nullopt;
  std::array<std::byte, kHandshakeSize> theirs{};
  if (!read_exact(fd, theirs.data(), theirs.size())) return std::nullopt;
  return decode_handshake(theirs);
}

void TcpTransport::adopt_connection(int fd, cache::NodeId peer) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Reap a dead predecessor first: a peer that crashed and re-dialed still
  // owns a stale conns_ entry whose threads have exited (or are on their way
  // out through drop_connection). Extract it under the lock, join outside —
  // the reader/writer take mu_ themselves as they unwind, and adopt runs
  // only on the accept_loop / connect_peers threads, never on a reader or
  // writer, so the join cannot deadlock or self-join.
  std::unique_ptr<Connection> dead;
  {
    util::ScopedLock lock(mu_);
    Connection* existing = conns_[peer].get();
    if (existing != nullptr &&
        !existing->alive.load(std::memory_order_acquire)) {
      dead = std::move(conns_[peer]);
    }
  }
  if (dead != nullptr) {
    if (dead->reader.joinable()) dead->reader.join();
    if (dead->writer.joinable()) dead->writer.join();
    close_fd(dead->fd);
  }
  util::ScopedLock lock(mu_);
  if (closed_ || conns_[peer] != nullptr) {
    ::close(fd);  // duplicate live connection, or shutting down
    return;
  }
  auto conn = std::make_unique<Connection>(peer);
  conn->fd = fd;
  conn->alive.store(true, std::memory_order_release);
  Connection* raw = conn.get();
  conns_[peer] = std::move(conn);
  raw->reader = std::thread([this, raw] { reader_loop(*raw); });
  raw->writer = std::thread([this, raw] { writer_loop(*raw); });
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
      drop_connection(conn.peer, reader.buffered() > 0);
      return;
    }
    {
      util::ScopedLock lock(mu_);
      stats_.bytes_received += static_cast<std::uint64_t>(n);
    }
    if (!reader.feed(std::span<const std::byte>(
            buf.data(), static_cast<std::size_t>(n)))) {
      drop_connection(conn.peer, /*frame_error=*/true);
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

void TcpTransport::writer_loop(Connection& conn) {
  // post() admits only ready payloads, so every envelope is sendable the
  // moment it is dequeued; receive() returns nullopt once the outbox is
  // closed and drained.
  while (std::optional<Envelope> first = conn.outbox.receive()) {
    std::vector<Envelope> batch;
    batch.push_back(std::move(*first));
    while (batch.size() < kMaxBatch) {
      auto more = conn.outbox.try_receive();
      if (!more) break;
      batch.push_back(std::move(*more));
    }
    std::uint64_t age = proto::kNoAge;
    bool full = false;
    if (summary_) std::tie(age, full) = summary_();
    // Scatter-gather framing: one fixed header buffer per envelope plus an
    // iovec pointing straight into the shared BlockData payload buffer.
    // Payload bytes never copy through an intermediate frame buffer
    // (TransportStats::payload_copies stays 0 — CI-asserted); `batch` keeps
    // each BlockPtr alive until the writev completes.
    std::vector<FrameHeaderBytes> headers;
    headers.reserve(batch.size());  // reserve: iovecs alias the elements
    std::vector<iovec> iov;
    iov.reserve(batch.size() * 2);
    std::size_t total = 0;
    for (const Envelope& env : batch) {
      headers.push_back(encode_frame_header(env, age, full));
      iov.push_back({headers.back().data(), headers.back().size()});
      total += headers.back().size();
      if (env.data && !env.data->bytes.empty()) {
        iov.push_back({const_cast<std::byte*>(env.data->bytes.data()),
                       env.data->bytes.size()});
        total += env.data->bytes.size();
      }
    }
    if (!writev_all(conn.fd, iov.data(), iov.size())) {
      drop_connection(conn.peer, /*frame_error=*/false);
      return;
    }
    util::ScopedLock lock(mu_);
    ++stats_.flushes;
    stats_.bytes_sent += total;
  }
}

void TcpTransport::drop_connection(cache::NodeId peer, bool frame_error) {
  {
    util::ScopedLock lock(mu_);
    Connection* conn = conns_[peer].get();
    if (conn == nullptr || !conn->alive.load(std::memory_order_acquire)) {
      return;  // already dropped
    }
    conn->alive.store(false, std::memory_order_release);
    if (frame_error) ++stats_.frame_errors;
    ::shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader
    conn->outbox.close();             // unblocks the writer
  }
  pending_.fail(peer);
}

Envelope TcpTransport::call_impl(Envelope env) {
  pending_.open(env);
  const std::uint64_t seq = env.seq;
  const cache::NodeId dest = env.msg.to;
  if (!post(std::move(env))) {
    pending_.cancel(seq);
    if (closed_) {
      throw TransportError(TransportError::Kind::kShutdown,
                           "transport is shut down");
    }
    throw TransportError(TransportError::Kind::kPeerDown,
                         "peer " + std::to_string(dest) + " is unreachable");
  }
  return pending_.wait(seq, config_.call_timeout);
}

bool TcpTransport::post(Envelope env) {
  if (env.msg.to >= config_.nodes) {
    throw std::invalid_argument("TcpTransport: bad destination node");
  }
  if (env.data && !env.data->is_ready()) {
    throw std::invalid_argument("TcpTransport: payload is not ready");
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
  Connection* conn = nullptr;
  {
    util::ScopedLock lock(mu_);
    if (closed_) return false;
    conn = conns_[env.msg.to].get();
    if (conn == nullptr || !conn->alive.load(std::memory_order_acquire)) {
      return false;
    }
    ++stats_.sent;
  }
  const cache::NodeId to = env.msg.to;
  if (!conn->outbox.send_for(std::move(env), kSendTimeout)) {
    // Stalled past the deadline (or already closing): treat the peer as
    // dead rather than wedging this sender forever.
    drop_connection(to, /*frame_error=*/false);
    return false;
  }
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
  // Mark every connection dead under the lock, then join outside it: the
  // reader/writer threads take mu_ themselves on their way out, and after
  // closed_ flips no adopt_connection can add entries, so the snapshot of
  // raw pointers stays valid.
  std::vector<Connection*> live;
  {
    util::ScopedLock lock(mu_);
    for (auto& conn : conns_) {
      if (!conn) continue;
      conn->alive.store(false, std::memory_order_release);
      ::shutdown(conn->fd, SHUT_RDWR);
      conn->outbox.close();
      live.push_back(conn.get());
    }
  }
  for (Connection* conn : live) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    close_fd(conn->fd);
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
