// The unit of cross-node traffic in the middleware runtime: a typed wire
// message plus the payload bytes (if any) riding with it and the metadata
// the transport needs to correlate replies and fence forwards.
//
// The payloads are shared latch-guarded buffers (BlockData), one per block
// or storage range a message carries: inside one process both ends of a
// transfer share the same bytes (a peer-fetch reply hands the requester the
// master's buffers, a promotion shares one outright); across the wire the
// sending thread scatter-gathers {frame header, length table, payloads}
// straight from these buffers — the bytes are never copied into an
// intermediate frame. That asymmetry is the whole point of the seam — the
// runtime never knows which it got. Either way only ready buffers are sent:
// no node ships bytes whose latch is still closed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "proto/message.hpp"

namespace coop::net {

/// A block's bytes; `ready` flips once the producing side (a storage read, a
/// write assembling its buffer, a frame decode) has filled `bytes`.
struct BlockData {
  // Raw std::mutex by design: one latch per in-flight block, high churn, and
  // strictly leaf usage (ready-flag flip / probe, no nested acquire), so the
  // annotated wrapper's lockcheck registration would cost per-block for a
  // lock that can never participate in an ordering cycle.
  std::mutex m;  // ccm-lint: allow(raw-mutex)
  std::condition_variable cv;
  bool ready = false;
  std::vector<std::byte> bytes;

  /// Blocks until the producer flips `ready`.
  void wait_ready() {
    std::unique_lock lock(m);
    cv.wait(lock, [this] { return ready; });
  }

  /// Non-blocking readiness probe. A sender checks it before shipping the
  /// buffer and keeps an unready one (a peer fetch misses, an evicted
  /// master is dropped); TcpTransport::post rejects one outright. Waiting
  /// instead could deadlock: the producer may be the waiting thread itself,
  /// or a storage RPC queued behind this envelope on the same connection.
  [[nodiscard]] bool is_ready() {
    std::scoped_lock lock(m);
    return ready;
  }
};

using BlockPtr = std::shared_ptr<BlockData>;

/// A payload buffer that is already complete (wire decodes, storage replies).
inline BlockPtr make_ready_block(std::vector<std::byte> bytes) {
  auto b = std::make_shared<BlockData>();
  b->bytes = std::move(bytes);
  b->ready = true;
  return b;
}

/// A protocol message in flight.
struct Envelope {
  proto::Message msg;
  /// RPC correlation id; 0 marks a one-way post. Replies echo the request's
  /// seq so the transport can wake the caller blocked in call().
  std::uint64_t seq = 0;
  /// Directory invalidation epoch observed by the sender (master forwards).
  std::uint64_t epoch = 0;
  /// Payload buffers, in the order the message defines: one per block a
  /// peer-fetch reply ships, one for a master forward, an ownership
  /// transfer, storage traffic or an encoded batch; empty for pure control
  /// messages. Every entry is non-null.
  std::vector<BlockPtr> payloads;

  /// The payload of a message that carries at most one; null when it
  /// carries none.
  [[nodiscard]] BlockPtr payload() const {
    return payloads.empty() ? nullptr : payloads.front();
  }
};

}  // namespace coop::net
