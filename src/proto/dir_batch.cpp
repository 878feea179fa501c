#include "proto/dir_batch.hpp"

#include "util/byte_order.hpp"

namespace coop::proto {

using util::get_u16;
using util::get_u32;
using util::get_u64;
using util::put_u16;
using util::put_u32;
using util::put_u64;

namespace {

constexpr std::uint8_t kResultFlagMask = kFlagGranted | kFlagMisdirected;

}  // namespace

std::vector<std::byte> encode_dir_batch_request(
    NodeId node, std::span<const DirBatchItem> items) {
  std::vector<std::byte> out;
  out.reserve(kDirBatchRequestHeader + items.size() * kDirBatchItemWire);
  out.push_back(static_cast<std::byte>(kDirBatchVersion));
  put_u16(out, node);
  put_u32(out, static_cast<std::uint32_t>(items.size()));
  for (const DirBatchItem& it : items) {
    out.push_back(static_cast<std::byte>(it.op));
    put_u32(out, it.block.file);
    put_u32(out, it.block.index);
    put_u64(out, it.arg);
  }
  return out;
}

std::optional<DirBatchRequest> decode_dir_batch_request(
    std::span<const std::byte> payload) {
  if (payload.size() < kDirBatchRequestHeader) return std::nullopt;
  const std::byte* p = payload.data();
  if (std::to_integer<std::uint8_t>(p[0]) != kDirBatchVersion) {
    return std::nullopt;
  }
  DirBatchRequest req;
  req.node = get_u16(p + 1);
  const std::uint32_t count = get_u32(p + 3);
  if (count > kDirBatchMaxItems) return std::nullopt;
  if (payload.size() != kDirBatchRequestHeader +
                            static_cast<std::size_t>(count) * kDirBatchItemWire) {
    return std::nullopt;  // short or trailing bytes: reject, never guess
  }
  req.items.reserve(count);
  p += kDirBatchRequestHeader;
  for (std::uint32_t i = 0; i < count; ++i, p += kDirBatchItemWire) {
    const auto raw_op = std::to_integer<std::uint8_t>(p[0]);
    if (raw_op >= kDirBatchOpCount) return std::nullopt;
    DirBatchItem it;
    it.op = static_cast<DirBatchOp>(raw_op);
    it.block.file = get_u32(p + 1);
    it.block.index = get_u32(p + 5);
    it.arg = get_u64(p + 9);
    req.items.push_back(it);
  }
  return req;
}

std::vector<std::byte> encode_dir_batch_reply(
    std::span<const DirBatchResult> results) {
  std::vector<std::byte> out;
  out.reserve(kDirBatchReplyHeader + results.size() * kDirBatchResultWire);
  out.push_back(static_cast<std::byte>(kDirBatchVersion));
  put_u32(out, static_cast<std::uint32_t>(results.size()));
  for (const DirBatchResult& r : results) {
    put_u16(out, r.node);
    put_u64(out, r.epoch);
    out.push_back(static_cast<std::byte>(r.flags));
  }
  return out;
}

std::optional<std::vector<DirBatchResult>> decode_dir_batch_reply(
    std::span<const std::byte> payload) {
  if (payload.size() < kDirBatchReplyHeader) return std::nullopt;
  const std::byte* p = payload.data();
  if (std::to_integer<std::uint8_t>(p[0]) != kDirBatchVersion) {
    return std::nullopt;
  }
  const std::uint32_t count = get_u32(p + 1);
  if (count > kDirBatchMaxItems) return std::nullopt;
  if (payload.size() != kDirBatchReplyHeader +
                            static_cast<std::size_t>(count) * kDirBatchResultWire) {
    return std::nullopt;
  }
  std::vector<DirBatchResult> results;
  results.reserve(count);
  p += kDirBatchReplyHeader;
  for (std::uint32_t i = 0; i < count; ++i, p += kDirBatchResultWire) {
    DirBatchResult r;
    r.node = get_u16(p);
    r.epoch = get_u64(p + 2);
    r.flags = std::to_integer<std::uint8_t>(p[10]);
    if ((r.flags & ~kResultFlagMask) != 0) return std::nullopt;
    results.push_back(r);
  }
  return results;
}

}  // namespace coop::proto
