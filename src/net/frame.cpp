#include "net/frame.hpp"

#include <algorithm>
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

FrameHeader encode_frame_header(const Envelope& env, std::uint64_t sender_age,
                                bool sender_full) {
  const std::size_t k = env.payloads.size();
  std::size_t payload = 0;
  for (const BlockPtr& p : env.payloads) payload += p->bytes.size();
  FrameHeader out;
  out.size = 4 + kFrameFixedSize + 4 * k;
  std::byte* p = out.bytes.data();
  put_u32(p, static_cast<std::uint32_t>(out.size - 4 + payload));
  p[4] = static_cast<std::byte>(sender_full ? 1 : 0);
  put_u64(p + 5, sender_age);
  put_u64(p + 13, env.seq);
  put_u64(p + 21, env.epoch);
  const proto::WireBytes wire = proto::encode(env.msg);
  std::memcpy(p + 29, wire.data(), wire.size());
  put_u32(p + 29 + proto::kWireSize, static_cast<std::uint32_t>(k));
  std::byte* table = p + 4 + kFrameFixedSize;
  for (std::size_t i = 0; i < k; ++i) {
    put_u32(table + 4 * i,
            static_cast<std::uint32_t>(env.payloads[i]->bytes.size()));
  }
  return out;
}

std::vector<std::byte> encode_frame(const Envelope& env,
                                    std::uint64_t sender_age,
                                    bool sender_full) {
  const FrameHeader header = encode_frame_header(env, sender_age, sender_full);
  std::vector<std::byte> out(header.view().begin(), header.view().end());
  for (const BlockPtr& p : env.payloads) {
    out.insert(out.end(), p->bytes.begin(), p->bytes.end());
  }
  return out;
}

void FrameReader::poison() {
  poisoned_ = true;
  buffer_.clear();
}

std::size_t FrameReader::frame_size(std::span<const std::byte> in) {
  const std::uint64_t len = get_u32(in.data());
  if (len < kFrameFixedSize || 4 + len > max_frame_) {
    poison();  // corrupt length prefix (or oversize frame)
    return 0;
  }
  return static_cast<std::size_t>(4 + len);
}

bool FrameReader::decode(std::span<const std::byte> frame) {
  const std::byte* p = frame.data() + 4;
  const std::size_t len = frame.size() - 4;
  Frame f;
  f.sender_full = std::to_integer<std::uint8_t>(p[0]) != 0;
  f.sender_age = get_u64(p + 1);
  f.env.seq = get_u64(p + 9);
  f.env.epoch = get_u64(p + 17);
  const auto msg =
      proto::decode(std::span<const std::byte>(p + 25, proto::kWireSize));
  const std::uint32_t k = get_u32(p + 25 + proto::kWireSize);
  if (!msg || k > kMaxFramePayloads || kFrameFixedSize + 4 * k > len) {
    // Garbage where a message should be, or a payload count the frame
    // cannot hold: never deliver a partial decode.
    poison();
    return false;
  }
  const std::byte* table = p + kFrameFixedSize;
  std::uint64_t lengths = 0;
  for (std::uint32_t i = 0; i < k; ++i) lengths += get_u32(table + 4 * i);
  if (lengths != len - kFrameFixedSize - 4 * k) {
    poison();  // the length table disagrees with the frame length
    return false;
  }
  f.env.msg = *msg;
  f.env.payloads.reserve(k);
  const std::byte* payload = table + 4 * k;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::uint32_t n = get_u32(table + 4 * i);
    f.env.payloads.push_back(
        make_ready_block(std::vector<std::byte>(payload, payload + n)));
    payload += n;
  }
  ready_.push_back(std::move(f));
  return true;
}

bool FrameReader::feed(std::span<const std::byte> bytes) {
  if (poisoned_) return false;
  if (!buffer_.empty()) {
    // Top the buffered partial frame up with only the bytes it lacks: its
    // length prefix first, then the rest of it.
    const auto top_up = [&](std::size_t size) {
      const std::size_t n = std::min(bytes.size(), size - buffer_.size());
      buffer_.insert(buffer_.end(), bytes.begin(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(n));
      bytes = bytes.subspan(n);
      return buffer_.size() == size;
    };
    if (buffer_.size() < 4 && !top_up(4)) return true;
    const std::size_t size = frame_size(buffer_);
    if (size == 0) return false;
    if (!top_up(size)) return true;
    if (!decode(buffer_)) return false;
    buffer_.clear();
  }
  // Whole frames decode straight from the caller's bytes.
  while (bytes.size() >= 4) {
    const std::size_t size = frame_size(bytes);
    if (size == 0) return false;
    if (bytes.size() < size) break;
    if (!decode(bytes.first(size))) return false;
    bytes = bytes.subspan(size);
  }
  buffer_.assign(bytes.begin(), bytes.end());  // a partial frame, if any
  return true;
}

std::optional<Frame> FrameReader::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace coop::net
