#include "net/pending_calls.hpp"

#include <cassert>

#include "net/transport.hpp"

namespace coop::net {

void PendingCalls::open(Envelope& env) {
  util::ScopedLock lock(mu_);
  if (closed_) {
    throw TransportError(TransportError::Kind::kShutdown,
                         "transport is shut down");
  }
  env.seq = next_seq_++;
  calls_.try_emplace(env.seq).first->second.dest = env.msg.to;
}

void PendingCalls::cancel(std::uint64_t seq) {
  util::ScopedLock lock(mu_);
  calls_.erase(seq);
}

bool PendingCalls::complete(Envelope reply) {
  util::ScopedLock lock(mu_);
  const auto it = calls_.find(reply.seq);
  if (it == calls_.end() || it->second.state != State::kWaiting) return false;
  it->second.reply = std::move(reply);
  it->second.state = State::kAnswered;
  it->second.cv.notify_one();
  return true;
}

Envelope PendingCalls::wait(std::uint64_t seq,
                            std::chrono::milliseconds timeout) {
  util::UniqueLock lock(mu_);
  const auto it = calls_.find(seq);
  assert(it != calls_.end());
  Call& call = it->second;
  (void)call.cv.wait_for(lock, timeout,
                         [&call] { return call.state != State::kWaiting; });
  const State state = call.state;
  const cache::NodeId dest = call.dest;
  Envelope reply = std::move(call.reply);
  calls_.erase(it);
  switch (state) {
    case State::kAnswered:
      ++completed_;
      return reply;
    case State::kWaiting:
      ++timeouts_;
      throw TransportError(TransportError::Kind::kTimeout,
                           "call to node " + std::to_string(dest) +
                               " timed out after " +
                               std::to_string(timeout.count()) + " ms");
    case State::kPeerDown:
      throw TransportError(TransportError::Kind::kPeerDown,
                           "node " + std::to_string(dest) +
                               " dropped while a call was pending");
    case State::kShutdown:
      break;
  }
  throw TransportError(TransportError::Kind::kShutdown,
                       "transport is shut down");
}

void PendingCalls::fail(cache::NodeId dest) {
  util::ScopedLock lock(mu_);
  for (auto& [seq, call] : calls_) {
    if (call.dest == dest && call.state == State::kWaiting) {
      call.state = State::kPeerDown;
      call.cv.notify_one();
    }
  }
}

void PendingCalls::close() {
  util::ScopedLock lock(mu_);
  closed_ = true;
  for (auto& [seq, call] : calls_) {
    if (call.state == State::kWaiting) {
      call.state = State::kShutdown;
      call.cv.notify_one();
    }
  }
}

std::uint64_t PendingCalls::completed() const {
  util::ScopedLock lock(mu_);
  return completed_;
}

std::uint64_t PendingCalls::timeouts() const {
  util::ScopedLock lock(mu_);
  return timeouts_;
}

std::size_t PendingCalls::outstanding() const {
  util::ScopedLock lock(mu_);
  return calls_.size();
}

}  // namespace coop::net
