// The calls a transport has sent and not yet seen answered, shared by
// InProcTransport's queued path and TcpTransport. A caller registers its
// request (open), hands it to the transport, and waits; whoever receives the
// reply completes the call by the seq the reply echoes. Every wait ends: a
// dead destination fails its calls with kPeerDown, close() fails them all
// with kShutdown, and the call deadline bounds the rest with kTimeout.
//
// The table's lock is a leaf: nothing is called out while it is held.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "net/envelope.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::net {

class PendingCalls {
 public:
  explicit PendingCalls(std::string lock_name) : mu_(std::move(lock_name)) {}

  /// Registers a call to env.msg.to and stamps env.seq with a fresh id.
  /// Throws TransportError(kShutdown) once the table is closed.
  void open(Envelope& env);

  /// Forgets call `seq`, whose request never left (its post failed).
  void cancel(std::uint64_t seq);

  /// Hands `reply` to the call waiting on reply.seq. False when nobody
  /// waits: the call timed out, failed, or was already answered.
  bool complete(Envelope reply);

  /// Blocks until call `seq` is answered and returns the reply. Throws
  /// TransportError: kTimeout once `timeout` passes, kPeerDown when its
  /// destination failed, kShutdown when the table closed.
  Envelope wait(std::uint64_t seq, std::chrono::milliseconds timeout);

  /// Fails every call waiting on `dest` with kPeerDown.
  void fail(cache::NodeId dest);

  /// Fails every waiting call, and every later open(), with kShutdown.
  void close();

  /// Calls wait() returned a reply for, and calls whose deadline expired.
  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::uint64_t timeouts() const;
  /// Calls opened and not yet collected by wait() or cancel().
  [[nodiscard]] std::size_t outstanding() const;

 private:
  enum class State : std::uint8_t { kWaiting, kAnswered, kPeerDown, kShutdown };

  struct Call {
    // Written and read under the table's mu_ (inexpressible as GUARDED_BY
    // from a nested struct); dest is set at open.
    cache::NodeId dest = cache::kInvalidNode;
    State state = State::kWaiting;
    Envelope reply;
    std::condition_variable_any cv;
  };

  mutable util::Mutex mu_;
  bool closed_ GUARDED_BY(mu_) = false;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  // Each entry lives until its waiter leaves wait() (or cancels), so a late
  // or duplicate reply finds it answered. std::map, not unordered: fail()
  // and close() iterate it.
  std::map<std::uint64_t, Call> calls_ GUARDED_BY(mu_);
  std::uint64_t completed_ GUARDED_BY(mu_) = 0;
  std::uint64_t timeouts_ GUARDED_BY(mu_) = 0;
};

}  // namespace coop::net
