// Shared identifiers for the caching layer.
#pragma once

#include <compare>
#include <cstdint>

namespace coop::cache {

using NodeId = std::uint16_t;
using FileId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFF;

/// A fixed-size cache block: `index`-th block of `file`.
struct BlockId {
  FileId file = 0;
  std::uint32_t index = 0;

  friend auto operator<=>(const BlockId&, const BlockId&) = default;
};

/// The packed 64-bit key `(file << 32) | index`: what cache::BlockTable
/// hashes and the runtime's hint slots store.
constexpr std::uint64_t block_key(const BlockId& b) {
  return (static_cast<std::uint64_t>(b.file) << 32) | b.index;
}

/// Monotonic logical timestamps used as LRU ages: larger is younger.
class LogicalClock {
 public:
  std::uint64_t next() { return ++now_; }
  [[nodiscard]] std::uint64_t now() const { return now_; }

 private:
  std::uint64_t now_ = 0;
};

/// Number of `block_bytes`-sized blocks needed for a file of `file_bytes`.
constexpr std::uint32_t blocks_for(std::uint64_t file_bytes,
                                   std::uint32_t block_bytes) {
  if (file_bytes == 0) return 1;  // zero-byte files still occupy one block
  return static_cast<std::uint32_t>((file_bytes + block_bytes - 1) /
                                    block_bytes);
}

/// Bytes of the `index`-th block of a `file_bytes`-sized file: the tail
/// block may be short, a zero-byte file's one block holds 0 bytes, and an
/// index past the end holds 0.
constexpr std::uint32_t block_bytes(std::uint64_t file_bytes,
                                    std::uint32_t index,
                                    std::uint32_t block_bytes) {
  const std::uint64_t start = static_cast<std::uint64_t>(index) * block_bytes;
  if (file_bytes <= start) return 0;
  const std::uint64_t rest = file_bytes - start;
  return rest < block_bytes ? static_cast<std::uint32_t>(rest) : block_bytes;
}

}  // namespace coop::cache
