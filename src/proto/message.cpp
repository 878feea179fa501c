#include "proto/message.hpp"

#include <cassert>
#include <cstring>

#include "util/byte_order.hpp"

namespace coop::proto {

using util::get_u16;
using util::get_u32;
using util::get_u64;
using util::put_u16;
using util::put_u32;
using util::put_u64;

Message Message::peer_fetch(NodeId from, NodeId to, const BlockId& first,
                            std::uint64_t mask, bool misdirected) {
  Message m;
  m.kind = MsgKind::kPeerFetch;
  m.from = from;
  m.to = to;
  m.block = first;
  m.age = mask;
  if (misdirected) m.flags |= kFlagMisdirected;
  return m;
}

Message Message::peer_fetch_reply(NodeId from, NodeId to,
                                  const BlockId& first, std::uint64_t hits,
                                  std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kPeerFetchReply;
  m.from = from;
  m.to = to;
  m.block = first;
  m.age = hits;
  m.bytes = bytes;
  if (hits != 0) m.flags |= kFlagHit;
  return m;
}

Message Message::redirect(NodeId from, NodeId to, const BlockId& b) {
  Message m;
  m.kind = MsgKind::kRedirect;
  m.from = from;
  m.to = to;
  m.block = b;
  m.flags = kFlagMisdirected;
  return m;
}

Message Message::home_read(NodeId from, NodeId home, const BlockId& first,
                           std::uint32_t blocks) {
  Message m;
  m.kind = MsgKind::kHomeRead;
  m.from = from;
  m.to = home;
  m.block = first;
  m.count = blocks;
  return m;
}

Message Message::block_data(NodeId from, NodeId to, const BlockId& first,
                            std::uint32_t blocks, std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kBlockData;
  m.from = from;
  m.to = to;
  m.block = first;
  m.count = blocks;
  m.bytes = bytes;
  return m;
}

Message Message::master_forward(NodeId from, NodeId to, const BlockId& b,
                                std::uint64_t age, std::uint32_t slots,
                                std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kMasterForward;
  m.from = from;
  m.to = to;
  m.block = b;
  m.count = slots;
  m.age = age;
  m.bytes = bytes;
  return m;
}

Message Message::forward_ack(NodeId from, NodeId to, const BlockId& b,
                             bool accepted, bool promoted) {
  Message m;
  m.kind = MsgKind::kMasterForwardAck;
  m.from = from;
  m.to = to;
  m.block = b;
  if (accepted) m.flags |= kFlagAccepted;
  if (promoted) m.flags |= kFlagPromoted;
  return m;
}

Message Message::invalidate_file(NodeId from, NodeId to, FileId file,
                                 std::uint32_t blocks) {
  Message m;
  m.kind = MsgKind::kInvalidateFile;
  m.from = from;
  m.to = to;
  m.block = BlockId{file, 0};
  m.count = blocks;
  m.flags = kFlagDropMaster;
  return m;
}

Message Message::invalidate_block(NodeId from, NodeId to, const BlockId& b,
                                  bool drop_master) {
  Message m;
  m.kind = MsgKind::kInvalidateBlock;
  m.from = from;
  m.to = to;
  m.block = b;
  if (drop_master) m.flags |= kFlagDropMaster;
  return m;
}

Message Message::invalidate_ack(NodeId from, NodeId to) {
  Message m;
  m.kind = MsgKind::kInvalidateAck;
  m.from = from;
  m.to = to;
  return m;
}

Message Message::write_ownership(NodeId from, NodeId to, const BlockId& b) {
  Message m;
  m.kind = MsgKind::kWriteOwnership;
  m.from = from;
  m.to = to;
  m.block = b;
  return m;
}

Message Message::write_ownership_reply(NodeId from, NodeId to, const BlockId& b,
                                       bool transferred, std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kWriteOwnershipReply;
  m.from = from;
  m.to = to;
  m.block = b;
  m.bytes = bytes;
  if (transferred) m.flags |= kFlagTransferred;
  return m;
}

Message Message::dir_request(MsgKind kind, NodeId from, NodeId home,
                             const BlockId& b) {
  Message m;
  m.kind = kind;
  m.from = from;
  m.to = home;
  m.block = b;
  return m;
}

Message Message::dir_claim_forwarded(NodeId from, NodeId home,
                                     const BlockId& b, NodeId forwarder,
                                     std::uint64_t epoch) {
  Message m;
  m.kind = MsgKind::kDirClaimForwarded;
  m.from = from;
  m.to = home;
  m.block = b;
  m.count = forwarder;  // the forwarding node, credited as hint observer
  m.age = epoch;
  return m;
}

Message Message::dir_file_request(MsgKind kind, NodeId from, NodeId home,
                                  FileId file) {
  Message m;
  m.kind = kind;
  m.from = from;
  m.to = home;
  m.block = BlockId{file, 0};
  return m;
}

Message Message::dir_reply(NodeId home, NodeId to, const BlockId& b,
                           NodeId result, std::uint64_t epoch, bool granted,
                           bool misdirected) {
  Message m;
  m.kind = MsgKind::kDirReply;
  m.from = home;
  m.to = to;
  m.block = b;
  m.count = result;
  m.age = epoch;
  if (granted) m.flags |= kFlagGranted;
  if (misdirected) m.flags |= kFlagMisdirected;
  return m;
}

Message Message::dir_batch_request(NodeId from, NodeId home,
                                   std::uint32_t items, std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kDirBatchRequest;
  m.from = from;
  m.to = home;
  m.count = items;
  m.bytes = bytes;
  return m;
}

Message Message::dir_batch_reply(NodeId home, NodeId to, std::uint32_t items,
                                 std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kDirBatchReply;
  m.from = home;
  m.to = to;
  m.count = items;
  m.bytes = bytes;
  return m;
}

NodeId Message::dir_result() const {
  // The widening convention only works while NodeId fits in `count`; batch
  // replies carry NodeIds in the payload instead and must never come here.
  static_assert(sizeof(NodeId) < sizeof(std::uint32_t),
                "kDirReply widens the result NodeId into `count`");
  assert(kind == MsgKind::kDirReply &&
         "dir_result() is the singles kDirReply convention; kDirBatchReply "
         "results live in the payload");
  return static_cast<NodeId>(count);
}

std::uint64_t Message::fetch_mask() const {
  assert((kind == MsgKind::kPeerFetch || kind == MsgKind::kPeerFetchReply) &&
         "fetch_mask() is the peer-fetch convention");
  return age;
}

Message Message::storage_read(NodeId from, NodeId home, FileId file,
                              std::uint64_t offset, std::uint64_t length) {
  Message m;
  m.kind = MsgKind::kStorageRead;
  m.from = from;
  m.to = home;
  m.block = BlockId{file, 0};
  m.age = offset;
  m.bytes = length;
  return m;
}

Message Message::storage_data(NodeId home, NodeId to, FileId file,
                              std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kStorageData;
  m.from = home;
  m.to = to;
  m.block = BlockId{file, 0};
  m.bytes = bytes;
  return m;
}

Message Message::storage_write(NodeId from, NodeId home, FileId file,
                               std::uint64_t offset, std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kStorageWrite;
  m.from = from;
  m.to = home;
  m.block = BlockId{file, 0};
  m.age = offset;
  m.bytes = bytes;
  return m;
}

Message Message::storage_ack(NodeId home, NodeId to, FileId file) {
  Message m;
  m.kind = MsgKind::kStorageAck;
  m.from = home;
  m.to = to;
  m.block = BlockId{file, 0};
  return m;
}

Message Message::barrier(NodeId from, NodeId home, std::uint32_t phase) {
  Message m;
  m.kind = MsgKind::kBarrier;
  m.from = from;
  m.to = home;
  m.count = phase;
  return m;
}

Message Message::barrier_reply(NodeId home, NodeId to, std::uint32_t phase,
                               bool granted) {
  Message m;
  m.kind = MsgKind::kBarrierReply;
  m.from = home;
  m.to = to;
  m.count = phase;
  if (granted) m.flags |= kFlagGranted;
  return m;
}

Message Message::dir_purge_node(NodeId from, NodeId home, NodeId node) {
  Message m;
  m.kind = MsgKind::kDirPurgeNode;
  m.from = from;
  m.to = home;
  m.count = node;
  return m;
}

Message Message::stats_pull(NodeId from, NodeId to) {
  Message m;
  m.kind = MsgKind::kStatsPull;
  m.from = from;
  m.to = to;
  return m;
}

Message Message::stats_reply(NodeId from, NodeId to, std::uint64_t bytes) {
  Message m;
  m.kind = MsgKind::kStatsReply;
  m.from = from;
  m.to = to;
  m.bytes = bytes;
  return m;
}

bool is_reply(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPeerFetchReply:
    case MsgKind::kMasterForwardAck:
    case MsgKind::kInvalidateAck:
    case MsgKind::kWriteOwnershipReply:
    case MsgKind::kDirReply:
    case MsgKind::kStorageData:
    case MsgKind::kStorageAck:
    case MsgKind::kBarrierReply:
    case MsgKind::kStatsReply:
    case MsgKind::kDirBatchReply:
      return true;
    default:
      return false;
  }
}

const char* kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kPeerFetch: return "peer-fetch";
    case MsgKind::kPeerFetchReply: return "peer-fetch-reply";
    case MsgKind::kRedirect: return "redirect";
    case MsgKind::kHomeRead: return "home-read";
    case MsgKind::kBlockData: return "block-data";
    case MsgKind::kMasterForward: return "master-forward";
    case MsgKind::kMasterForwardAck: return "master-forward-ack";
    case MsgKind::kInvalidateFile: return "invalidate-file";
    case MsgKind::kInvalidateBlock: return "invalidate-block";
    case MsgKind::kInvalidateAck: return "invalidate-ack";
    case MsgKind::kWriteOwnership: return "write-ownership";
    case MsgKind::kWriteOwnershipReply: return "write-ownership-reply";
    case MsgKind::kDirLookup: return "dir-lookup";
    case MsgKind::kDirBeginForward: return "dir-begin-forward";
    case MsgKind::kDirClaimForwarded: return "dir-claim-forwarded";
    case MsgKind::kDirForwardRejected: return "dir-forward-rejected";
    case MsgKind::kDirWriteClaim: return "dir-write-claim";
    case MsgKind::kDirWriteBegin: return "dir-write-begin";
    case MsgKind::kDirWriteEnd: return "dir-write-end";
    case MsgKind::kDirInvalidateFile: return "dir-invalidate-file";
    case MsgKind::kDirReply: return "dir-reply";
    case MsgKind::kStorageRead: return "storage-read";
    case MsgKind::kStorageData: return "storage-data";
    case MsgKind::kStorageWrite: return "storage-write";
    case MsgKind::kStorageAck: return "storage-ack";
    case MsgKind::kBarrier: return "barrier";
    case MsgKind::kBarrierReply: return "barrier-reply";
    case MsgKind::kDirPurgeNode: return "dir-purge-node";
    case MsgKind::kStatsPull: return "stats-pull";
    case MsgKind::kStatsReply: return "stats-reply";
    case MsgKind::kDirBatchRequest: return "dir-batch-request";
    case MsgKind::kDirBatchReply: return "dir-batch-reply";
  }
  return "unknown";
}

WireBytes encode(const Message& m) {
  WireBytes out{};
  std::byte* p = out.data();
  p[0] = static_cast<std::byte>(m.kind);
  put_u16(p + 1, m.from);
  put_u16(p + 3, m.to);
  put_u32(p + 5, m.block.file);
  put_u32(p + 9, m.block.index);
  put_u32(p + 13, m.count);
  put_u64(p + 17, m.age);
  put_u64(p + 25, m.bytes);
  p[33] = static_cast<std::byte>(m.flags);
  put_u64(p + 34, m.trace);
  put_u64(p + 42, m.span);
  return out;
}

std::optional<Message> decode(std::span<const std::byte> wire) {
  if (wire.size() < kWireSize) return std::nullopt;
  const std::byte* p = wire.data();
  const auto raw_kind = std::to_integer<std::uint8_t>(p[0]);
  if (raw_kind >= kMsgKindCount) return std::nullopt;
  Message m;
  m.kind = static_cast<MsgKind>(raw_kind);
  m.from = get_u16(p + 1);
  m.to = get_u16(p + 3);
  m.block.file = get_u32(p + 5);
  m.block.index = get_u32(p + 9);
  m.count = get_u32(p + 13);
  m.age = get_u64(p + 17);
  m.bytes = get_u64(p + 25);
  m.flags = std::to_integer<std::uint8_t>(p[33]);
  m.trace = get_u64(p + 34);
  m.span = get_u64(p + 42);
  if ((m.flags & ~(kFlagMisdirected | kFlagHit | kFlagAccepted | kFlagPromoted |
                   kFlagDropMaster | kFlagTransferred | kFlagGranted)) != 0) {
    return std::nullopt;
  }
  return m;
}

}  // namespace coop::proto
