// Intra-process message queue: a bounded MPMC mailbox. The transports use it
// to hand envelopes to protocol threads (InProcTransport's queued path, and
// TcpTransport's inbound queue) and to socket writer threads (TcpTransport's
// per-peer outboxes).
//
// The queue state is guarded by an annotated util::Mutex (thread-safety
// analysis + lock-order watchdog); waits go through condition_variable_any
// on the annotated UniqueLock, written as explicit while-loops because the
// analysis cannot see through predicate lambdas. The mailbox lock is a leaf:
// no callout ever happens while it is held.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::net {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(std::string lock_name = "net.mailbox",
                   std::size_t capacity = 1024)
      : mu_(std::move(lock_name)), capacity_(capacity) {}

  /// Blocks while the mailbox is full. Returns false if the mailbox was
  /// closed (the message is dropped).
  bool send(T message) {
    util::UniqueLock lock(mu_);
    while (!closed_ && queue_.size() >= capacity_) not_full_.wait(lock);
    if (closed_) return false;
    queue_.push_back(std::move(message));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until a message arrives or the mailbox is closed *and drained*;
  /// returns nullopt only in the latter case.
  std::optional<T> receive() {
    util::UniqueLock lock(mu_);
    while (!closed_ && queue_.empty()) not_empty_.wait(lock);
    if (queue_.empty()) return std::nullopt;  // closed and drained
    T msg = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return msg;
  }

  /// Deadline-bounded send: waits up to `timeout` for room. False on timeout
  /// or close (the message is dropped). This is the backpressure primitive
  /// the socket transport uses — a peer whose outbox stays full past the
  /// deadline is treated as stalled and its connection is dropped, rather
  /// than wedging the sender forever.
  template <typename Rep, typename Period>
  bool send_for(T message, std::chrono::duration<Rep, Period> timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    util::UniqueLock lock(mu_);
    while (!closed_ && queue_.size() >= capacity_) {
      if (not_full_.wait_until(lock, deadline) == std::cv_status::timeout &&
          (closed_ || queue_.size() >= capacity_)) {
        return false;  // still full at the deadline
      }
    }
    if (closed_) return false;
    queue_.push_back(std::move(message));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking receive; nullopt if empty (whether or not closed).
  std::optional<T> try_receive() {
    util::ScopedLock lock(mu_);
    if (queue_.empty()) return std::nullopt;
    T msg = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return msg;
  }

  /// Closes the mailbox: senders fail fast; receivers drain then get nullopt.
  void close() {
    util::ScopedLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  util::Mutex mu_;
  std::condition_variable_any not_empty_;
  std::condition_variable_any not_full_;
  std::deque<T> queue_ GUARDED_BY(mu_);
  std::size_t capacity_;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace coop::net
