// Wire framing for the socket transport: length-prefixed frames carrying
// one Envelope each, over the validated fixed-layout proto::encode/decode.
//
// Frame layout (all integers little-endian):
//
//   u32  len            bytes after this field (validated against bounds)
//   u8   sender_flags   bit0: sender's cache is full (piggyback summary)
//   u64  sender_age     sender's published oldest LRU age (kNoAge: empty)
//   u64  seq            RPC correlation id (0: one-way)
//   u64  epoch          directory epoch riding on master forwards
//   50B  message        proto::encode() fixed layout (proto::kWireSize)
//   u32  payloads       k, at most kMaxFramePayloads
//   u32  payload_len[k] length table; the lengths sum to len - fixed - 4k
//   ...  payloads       the k payloads' bytes, back to back, in order
//
// Connection handshake (once per direction, before any frame):
//
//   u32  magic          "CCM1"
//   u16  version        kProtocolVersion
//   u16  node_id        the sender's node id
//
// FrameReader reassembles frames from arbitrary read boundaries. Any
// malformed input — a length prefix out of bounds, a payload count or
// length table that disagrees with the frame length, bytes that
// proto::decode rejects — poisons the stream permanently: the transport
// must drop the connection. A poisoned reader never yields the malformed
// frame (no partial delivery).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/envelope.hpp"
#include "proto/node_state.hpp"

namespace coop::net {

inline constexpr std::uint32_t kHandshakeMagic = 0x314D4343;  // "CCM1"
// v2: proto::Message grew trailing trace/span ids (runtime telemetry) and
// the kStatsPull/kStatsReply scrape kinds, changing kWireSize.
// v3: batched directory ops (kDirBatchRequest/kDirBatchReply with their
// payload vocabulary in proto/dir_batch.hpp) extended the kind space.
// v4: the unused directory kinds (block-lookup, master-claim, their replies
// and eviction-notice) were removed, renumbering every later kind.
// v5: the single kinds for the ops kDirBatchRequest carries (lookup-read,
// try-claim, master-dropped, read-cacheable) were removed, renumbering again.
// v6: a frame carries a payload count and length table instead of one
// payload length, and kPeerFetch names a block set (proto::kFetchSetSpan).
inline constexpr std::uint16_t kProtocolVersion = 6;
inline constexpr std::size_t kHandshakeSize = 4 + 2 + 2;

/// Fixed frame bytes after the length prefix, before the length table.
inline constexpr std::size_t kFrameFixedSize =
    1 + 8 + 8 + 8 + proto::kWireSize + 4;

/// Most payloads one frame carries. A sender gathers the header and length
/// table plus one iovec per payload, far inside IOV_MAX.
inline constexpr std::size_t kMaxFramePayloads = 64;

/// Default ceiling on one frame (header, length table and payloads).
/// Generous: the largest legitimate frames are a storage read of a whole
/// file and a peer-fetch reply, whose sets ccm::CcmCluster caps to fit.
inline constexpr std::size_t kDefaultMaxFrame = 64u << 20;

/// One decoded frame: the envelope plus the sender's piggybacked summary.
struct Frame {
  Envelope env;
  std::uint64_t sender_age = proto::kNoAge;
  bool sender_full = false;
};

/// Encodes the handshake header for `node`.
std::vector<std::byte> encode_handshake(cache::NodeId node);

/// Decodes a handshake; nullopt on bad magic or version mismatch.
std::optional<cache::NodeId> decode_handshake(
    std::span<const std::byte> bytes);

/// Everything before the payload bytes: the length prefix, the fixed header
/// and the length table.
struct FrameHeader {
  std::array<std::byte, 4 + kFrameFixedSize + 4 * kMaxFramePayloads> bytes;
  std::size_t size = 0;  // bytes in use

  [[nodiscard]] std::span<const std::byte> view() const {
    return {bytes.data(), size};
  }
};

/// Encodes one envelope's frame header — length prefix, sender summary, seq,
/// epoch, message, payload count and length table — WITHOUT the payload
/// bytes. TcpTransport::post sends it with one more iovec per payload,
/// pointing straight into the shared BlockData buffers, so payloads never
/// copy through an intermediate frame buffer. env.payloads must hold at
/// most kMaxFramePayloads ready buffers (TcpTransport::post admits no
/// other).
FrameHeader encode_frame_header(const Envelope& env, std::uint64_t sender_age,
                                bool sender_full);

/// Encodes one whole frame, payload copied in after the header (tests and
/// non-vectored paths; TcpTransport::post uses encode_frame_header instead).
std::vector<std::byte> encode_frame(const Envelope& env,
                                    std::uint64_t sender_age,
                                    bool sender_full);

/// Incremental frame reassembly over a byte stream.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrame)
      : max_frame_(max_frame_bytes) {}

  /// Parses every frame that `bytes` completes. A buffered partial frame
  /// takes only the bytes it lacks; whole frames decode straight from
  /// `bytes`; only a trailing partial frame is buffered. Returns false once
  /// the stream is poisoned — the connection must be dropped; further feeds
  /// are ignored.
  bool feed(std::span<const std::byte> bytes);

  /// Pops the next complete frame in arrival order.
  std::optional<Frame> next();

  [[nodiscard]] bool poisoned() const { return poisoned_; }

  /// Bytes buffered but not yet parsed into a frame (tests).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  /// Size of the frame at the front of `in` (at least 4 bytes), length
  /// prefix included; 0, and the stream poisoned, when the prefix is out
  /// of bounds.
  std::size_t frame_size(std::span<const std::byte> in);
  /// Decodes `frame`, exactly one whole frame, onto ready_; false, and the
  /// stream poisoned, when it is malformed.
  bool decode(std::span<const std::byte> frame);
  void poison();

  std::size_t max_frame_;
  std::vector<std::byte> buffer_;
  std::deque<Frame> ready_;
  bool poisoned_ = false;
};

}  // namespace coop::net
