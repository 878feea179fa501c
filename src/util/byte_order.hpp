// Little-endian fixed-width integers: the one byte-order codec behind every
// wire format here — proto::Message, the directory batch payloads, the TCP
// frame header and handshake, and the metrics snapshot. Each call touches
// exactly 2, 4 or 8 bytes; checking that they exist is the decoder's job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace coop::util {

namespace byte_order_detail {

template <class T>
void store(std::byte* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
  }
}

template <class T>
void append(std::vector<std::byte>& out, T v) {
  out.resize(out.size() + sizeof(T));
  store(out.data() + out.size() - sizeof(T), v);
}

template <class T>
T load(const std::byte* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (std::to_integer<T>(p[i]) << (8 * i)));
  }
  return v;
}

}  // namespace byte_order_detail

/// Writes `v` at p[0, N), least significant byte first.
inline void put_u16(std::byte* p, std::uint16_t v) {
  byte_order_detail::store(p, v);
}
inline void put_u32(std::byte* p, std::uint32_t v) {
  byte_order_detail::store(p, v);
}
inline void put_u64(std::byte* p, std::uint64_t v) {
  byte_order_detail::store(p, v);
}

/// Appends `v` to `out`, least significant byte first.
inline void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  byte_order_detail::append(out, v);
}
inline void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  byte_order_detail::append(out, v);
}
inline void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  byte_order_detail::append(out, v);
}

/// Reads the little-endian integer at p[0, N).
inline std::uint16_t get_u16(const std::byte* p) {
  return byte_order_detail::load<std::uint16_t>(p);
}
inline std::uint32_t get_u32(const std::byte* p) {
  return byte_order_detail::load<std::uint32_t>(p);
}
inline std::uint64_t get_u64(const std::byte* p) {
  return byte_order_detail::load<std::uint64_t>(p);
}

}  // namespace coop::util
