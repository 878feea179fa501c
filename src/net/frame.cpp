#include "net/frame.hpp"

#include <cstring>

#include "util/byte_order.hpp"

namespace coop::net {

using util::get_u16;
using util::get_u32;
using util::get_u64;
using util::put_u16;
using util::put_u32;
using util::put_u64;

std::vector<std::byte> encode_handshake(cache::NodeId node) {
  std::vector<std::byte> out;
  out.reserve(kHandshakeSize);
  put_u32(out, kHandshakeMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, node);
  return out;
}

std::optional<cache::NodeId> decode_handshake(
    std::span<const std::byte> bytes) {
  if (bytes.size() < kHandshakeSize) return std::nullopt;
  if (get_u32(bytes.data()) != kHandshakeMagic) return std::nullopt;
  if (get_u16(bytes.data() + 4) != kProtocolVersion) return std::nullopt;
  return get_u16(bytes.data() + 6);
}

FrameHeaderBytes encode_frame_header(const Envelope& env,
                                     std::uint64_t sender_age,
                                     bool sender_full) {
  const std::size_t payload = env.data ? env.data->bytes.size() : 0;
  FrameHeaderBytes out{};
  std::byte* p = out.data();
  put_u32(p, static_cast<std::uint32_t>(kFrameFixedSize + payload));
  p[4] = static_cast<std::byte>(sender_full ? 1 : 0);
  put_u64(p + 5, sender_age);
  put_u64(p + 13, env.seq);
  put_u64(p + 21, env.epoch);
  const proto::WireBytes wire = proto::encode(env.msg);
  std::memcpy(p + 29, wire.data(), wire.size());
  put_u32(p + 29 + proto::kWireSize, static_cast<std::uint32_t>(payload));
  return out;
}

std::vector<std::byte> encode_frame(const Envelope& env,
                                    std::uint64_t sender_age,
                                    bool sender_full) {
  const FrameHeaderBytes header = encode_frame_header(env, sender_age,
                                                      sender_full);
  const std::size_t payload = env.data ? env.data->bytes.size() : 0;
  std::vector<std::byte> out(header.size() + payload);
  std::memcpy(out.data(), header.data(), header.size());
  if (payload > 0) {
    std::memcpy(out.data() + header.size(), env.data->bytes.data(), payload);
  }
  return out;
}

bool FrameReader::feed(std::span<const std::byte> bytes) {
  if (poisoned_) return false;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  return parse_available();
}

bool FrameReader::parse_available() {
  while (true) {
    if (buffer_.size() < 4) return true;  // length prefix incomplete
    const std::uint64_t len = get_u32(buffer_.data());
    if (len < kFrameFixedSize || 4 + len > max_frame_) {
      poisoned_ = true;  // corrupt length prefix (or oversize frame)
      buffer_.clear();
      return false;
    }
    if (buffer_.size() < 4 + len) return true;  // frame body incomplete

    const std::byte* p = buffer_.data() + 4;
    Frame f;
    f.sender_full = std::to_integer<std::uint8_t>(p[0]) != 0;
    f.sender_age = get_u64(p + 1);
    f.env.seq = get_u64(p + 9);
    f.env.epoch = get_u64(p + 17);
    const auto msg =
        proto::decode(std::span<const std::byte>(p + 25, proto::kWireSize));
    const std::uint32_t payload_len = get_u32(p + 25 + proto::kWireSize);
    if (!msg || payload_len != len - kFrameFixedSize) {
      // Garbage where a message should be, or a payload length that
      // disagrees with the frame length: never deliver a partial decode.
      poisoned_ = true;
      buffer_.clear();
      return false;
    }
    f.env.msg = *msg;
    if (payload_len > 0) {
      const std::byte* payload = p + kFrameFixedSize;
      f.env.data = make_ready_block(
          std::vector<std::byte>(payload, payload + payload_len));
    }
    ready_.push_back(std::move(f));
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(4 + len));
  }
}

std::optional<Frame> FrameReader::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace coop::net
