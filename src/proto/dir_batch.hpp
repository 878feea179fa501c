// Batched directory operations: the payload vocabulary of
// kDirBatchRequest/kDirBatchReply.
//
// One envelope carries a length-prefixed vector of per-block directory ops,
// so a read path touching N blocks of a file costs one RPC and one
// directory-lock acquisition instead of N of each. These ops have no single
// wire kind: a lone op is a batch of one. The batch is *not* a transaction:
// each item applies exactly the same conditional/idempotent operation as the
// matching DirectoryService method, so an at-least-once replay of the whole
// batch is as safe as replaying each op alone — the net/call_with_retry
// contract is unchanged.
//
// Payload layout (little-endian; independent of the fixed Message wire):
//
//   request  [version u8][node u16][count u32]
//            then per item:  [op u8][file u32][index u32][arg u64]
//   reply    [version u8][count u32]
//            then per item:  [node u16][epoch u64][flags u8]
//
// `arg` is op-specific (currently unused; carried for forward evolution).
// Reply flags reuse the Message flag bits (kFlagGranted, kFlagMisdirected).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "proto/message.hpp"

namespace coop::proto {

/// Bump when the batch payload layout changes (checked by decode; the frame
/// layer's kProtocolVersion guards whole-process mixing, this guards the
/// payload inside it).
inline constexpr std::uint8_t kDirBatchVersion = 1;

/// Decode-side allocation bound: a well-formed peer never sends more items
/// than this (the cluster batches per-file block runs, far smaller).
inline constexpr std::uint32_t kDirBatchMaxItems = 1u << 16;

enum class DirBatchOp : std::uint8_t {
  kLookupRead = 0,  // lookup_for_read(node, block)
  kTryClaim,        // try_claim(block, node)
  kMasterDropped,   // master_dropped(block, node)
  /// Authoritative re-validation for the hint fast path: returns the current
  /// master, the current file epoch, and kFlagGranted iff no write to the
  /// file is in flight. The *caller* compares these against the hint it
  /// fetched under (master unchanged, epoch unchanged, write-free) — the
  /// same predicate as DirectoryService::lookup() + read_cacheable() —
  /// and refreshes its hint slot from the authoritative answer either way.
  kValidate,
};

inline constexpr std::uint8_t kDirBatchOpCount =
    static_cast<std::uint8_t>(DirBatchOp::kValidate) + 1;

struct DirBatchItem {
  DirBatchOp op = DirBatchOp::kLookupRead;
  BlockId block{0, 0};
  std::uint64_t arg = 0;  // op-specific; currently always 0

  friend bool operator==(const DirBatchItem&, const DirBatchItem&) = default;
};

struct DirBatchResult {
  NodeId node = cache::kInvalidNode;
  std::uint64_t epoch = 0;
  std::uint8_t flags = 0;  // kFlagGranted / kFlagMisdirected as per op

  [[nodiscard]] bool has(std::uint8_t flag) const {
    return (flags & flag) != 0;
  }

  friend bool operator==(const DirBatchResult&, const DirBatchResult&) = default;
};

/// Encoded payload sizes (used by tests and the framing layer).
inline constexpr std::size_t kDirBatchRequestHeader = 1 + 2 + 4;
inline constexpr std::size_t kDirBatchItemWire = 1 + 4 + 4 + 8;
inline constexpr std::size_t kDirBatchReplyHeader = 1 + 4;
inline constexpr std::size_t kDirBatchResultWire = 2 + 8 + 1;

/// Encodes a batch request payload issued by `node`.
std::vector<std::byte> encode_dir_batch_request(
    NodeId node, std::span<const DirBatchItem> items);

/// Decodes a batch request payload. nullopt on version mismatch, unknown op,
/// oversized count, or any length mismatch (short *or* trailing bytes).
struct DirBatchRequest {
  NodeId node = cache::kInvalidNode;
  std::vector<DirBatchItem> items;
};
std::optional<DirBatchRequest> decode_dir_batch_request(
    std::span<const std::byte> payload);

/// Encodes a batch reply payload (one result per request item, in order).
std::vector<std::byte> encode_dir_batch_reply(
    std::span<const DirBatchResult> results);

/// Decodes a batch reply payload; same strictness as the request decoder.
std::optional<std::vector<DirBatchResult>> decode_dir_batch_reply(
    std::span<const std::byte> payload);

}  // namespace coop::proto
