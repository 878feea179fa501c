// Intra-process message queue: a bounded MPMC mailbox. The transports use it
// to hand envelopes to protocol threads (InProcTransport's queued path, and
// TcpTransport's inbound queue, which its socket readers fill).
//
// The queue state is guarded by an annotated util::Mutex (thread-safety
// analysis + lock-order watchdog); waits go through condition_variable_any
// on the annotated UniqueLock, written as explicit while-loops because the
// analysis cannot see through predicate lambdas. The mailbox lock is a leaf:
// no callout ever happens while it is held.
#pragma once

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
