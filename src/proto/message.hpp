// The CCM wire protocol: every cross-node interaction in the cooperative
// caching middleware expressed as a typed message.
//
// Both execution paths speak this protocol. The event-driven simulator
// (server::CcmServer) *emits* the messages an access plan implies and charges
// each one with the paper's Table-1 latencies; the threaded runtime
// (ccm::CcmCluster) *transports* the same messages between per-node protocol
// threads through Mailbox<proto::Message> envelopes. Keeping one message
// vocabulary is what makes the two provably the same protocol — and is the
// seam where a socket transport, fault injection, or dropped-hint scenarios
// plug in later.
//
// Messages are a flat POD (not a variant): every kind uses a subset of the
// same fields, which keeps them trivially copyable, mailbox-friendly, and
// serializable with a fixed wire layout (encode/decode below round-trip
// exactly; see tests/test_proto.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "cache/types.hpp"

namespace coop::proto {

using cache::BlockId;
using cache::FileId;
using cache::NodeId;

enum class MsgKind : std::uint8_t {
  kPeerFetch = 0,         // requester -> master holder: send me copies
  kPeerFetchReply,        // holder -> requester: the bytes it had (or misses)
  kRedirect,              // stale-hint hop: probed node bounces the request
  kHomeRead,              // requester -> home node: read blocks from disk
  kBlockData,             // home -> requester: disk blocks shipped over
  kMasterForward,         // evicting node -> target: adopt this master
  kMasterForwardAck,      // target -> evicting node: accepted / rejected
  kInvalidateFile,        // writer/API -> node: drop every block of a file
  kInvalidateBlock,       // writer -> node: drop one block (copy or master)
  kInvalidateAck,         // node -> writer
  kWriteOwnership,        // writer -> master holder: relinquish + send bytes
  kWriteOwnershipReply,   // holder -> writer: bytes attached / already gone

  // Remote-directory RPCs (multi-process clusters only). The DirectoryService
  // lives in the process hosting node 0; every other process reaches it with
  // these requests, all answered by a single generic kDirReply correlated by
  // the transport's sequence number. The ops a DirBatchOp carries
  // (lookup_for_read, try_claim, master_dropped, and read_cacheable as
  // kValidate) have no single kind: they travel as kDirBatchRequest.
  kDirLookup,             // node -> home: authoritative master of block
  kDirBeginForward,       // node -> home: begin_forward(block, from)
  kDirClaimForwarded,     // node -> home: claim_forwarded(block, from, ...)
  kDirForwardRejected,    // node -> home: forward_rejected(block, from)
  kDirWriteClaim,         // node -> home: write_claim(block, from)
  kDirWriteBegin,         // node -> home: write_begin(file)
  kDirWriteEnd,           // node -> home: write_end(file)
  kDirInvalidateFile,     // node -> home: invalidate_file(file) epoch fence
  kDirReply,              // home -> node: generic directory answer

  // Remote-storage RPCs (the backing store also lives at node 0's process).
  kStorageRead,           // node -> home: read [offset, offset+len) of file
  kStorageData,           // home -> node: the requested bytes (payload)
  kStorageWrite,          // node -> home: write payload at offset of file
  kStorageAck,            // home -> node: write landed

  // Cluster-level rendezvous for the multi-process drivers (seed / finish
  // phases of the loopback workload).
  kBarrier,               // node -> home: I reached phase `count`
  kBarrierReply,          // home -> node: granted once every node reached it

  // Recovery: fence a crashed node out of the directory. Answered by
  // kDirReply; `count` carries the dead node's id.
  kDirPurgeNode,          // survivor -> home: purge_node(node)

  // Runtime telemetry scrape: any node can pull a peer process's metrics
  // snapshot (obs::MetricsSnapshot, binary-encoded in the reply payload) and
  // merge the cluster-wide view (tools/ccm_metrics, ccm_node --scrape-out).
  kStatsPull,             // scraper -> node: send me your metrics snapshot
  kStatsReply,            // node -> scraper: encoded snapshot (payload)

  // Batched directory ops (proto/dir_batch.hpp): a length-prefixed vector of
  // per-block directory requests rides in the envelope payload, answered by
  // one reply whose payload carries a result per item. One RPC and one
  // directory-lock acquisition amortize over the whole batch.
  kDirBatchRequest,       // node -> home: payload = encoded DirBatchItem[]
  kDirBatchReply,         // home -> node: payload = encoded DirBatchResult[]
};

/// Number of distinct message kinds (wire-format validation bound).
inline constexpr std::uint8_t kMsgKindCount =
    static_cast<std::uint8_t>(MsgKind::kDirBatchReply) + 1;

/// Flag bits (meaning depends on kind; unused bits must be zero).
inline constexpr std::uint8_t kFlagMisdirected = 1u << 0;  // stale-hint hop(s)
inline constexpr std::uint8_t kFlagHit = 1u << 1;          // fetch served
inline constexpr std::uint8_t kFlagAccepted = 1u << 2;     // forward adopted
inline constexpr std::uint8_t kFlagPromoted = 1u << 3;     // copy promoted
inline constexpr std::uint8_t kFlagDropMaster = 1u << 4;   // invalidate masters
inline constexpr std::uint8_t kFlagTransferred = 1u << 5;  // ownership moved
inline constexpr std::uint8_t kFlagGranted = 1u << 6;      // claim succeeded

/// A kPeerFetch names a set of blocks of one file: its first block plus a
/// mask whose bit i stands for block index first.index + i, so one set
/// spans at most this many consecutive indices.
inline constexpr std::uint32_t kFetchSetSpan = 64;

struct Message {
  MsgKind kind = MsgKind::kPeerFetch;
  NodeId from = cache::kInvalidNode;
  NodeId to = cache::kInvalidNode;
  BlockId block{0, 0};
  /// Block count for file-level / multi-block operations (kInvalidateFile,
  /// kHomeRead), slot footprint for kMasterForward.
  std::uint32_t count = 1;
  /// LRU age carried by kMasterForward (the paper: forwarded masters keep
  /// their age so they stay eviction candidates at the receiver).
  std::uint64_t age = 0;
  /// Payload size for bulk transfers (kPeerFetchReply, kBlockData,
  /// kMasterForward), summed over every payload; zero for pure control
  /// messages.
  std::uint64_t bytes = 0;
  std::uint8_t flags = 0;
  /// Runtime trace propagation (obs/runtime_trace.hpp): the operation's
  /// trace id and the sender's span id. Zero — and ignored by every
  /// protocol handler — unless runtime tracing is enabled; the named
  /// constructors never set them, so deterministic paths are unaffected.
  std::uint64_t trace = 0;
  std::uint64_t span = 0;

  [[nodiscard]] bool has(std::uint8_t flag) const { return (flags & flag) != 0; }

  /// True for messages charged as control round-trips by the simulator
  /// (everything that carries no payload bytes).
  [[nodiscard]] bool is_control() const { return bytes == 0; }

  friend bool operator==(const Message&, const Message&) = default;

  // ---- named constructors (the only places field conventions live) ----
  // Peer fetch of a block set (see kFetchSetSpan): `age` carries the mask.
  // The reply echoes `first` and carries the mask of the blocks it ships,
  // one payload each in ascending index order; kFlagHit is set when it
  // ships any. A single-block fetch is a set of one.
  static Message peer_fetch(NodeId from, NodeId to, const BlockId& first,
                            std::uint64_t mask, bool misdirected);
  static Message peer_fetch_reply(NodeId from, NodeId to,
                                  const BlockId& first, std::uint64_t hits,
                                  std::uint64_t bytes);
  static Message redirect(NodeId from, NodeId to, const BlockId& b);
  static Message home_read(NodeId from, NodeId home, const BlockId& first,
                           std::uint32_t blocks);
  static Message block_data(NodeId from, NodeId to, const BlockId& first,
                            std::uint32_t blocks, std::uint64_t bytes);
  static Message master_forward(NodeId from, NodeId to, const BlockId& b,
                                std::uint64_t age, std::uint32_t slots,
                                std::uint64_t bytes);
  static Message forward_ack(NodeId from, NodeId to, const BlockId& b,
                             bool accepted, bool promoted);
  static Message invalidate_file(NodeId from, NodeId to, FileId file,
                                 std::uint32_t blocks);
  static Message invalidate_block(NodeId from, NodeId to, const BlockId& b,
                                  bool drop_master);
  static Message invalidate_ack(NodeId from, NodeId to);
  static Message write_ownership(NodeId from, NodeId to, const BlockId& b);
  static Message write_ownership_reply(NodeId from, NodeId to,
                                       const BlockId& b, bool transferred,
                                       std::uint64_t bytes);

  // Remote-directory RPCs. `home` is the directory-hosting node (node 0 in
  // the loopback cluster). Field conventions for kDirReply: `count` carries a
  // result NodeId (kInvalidNode widened to 32 bits when absent), `age`
  // carries an epoch, kFlagGranted reports boolean outcomes.
  static Message dir_request(MsgKind kind, NodeId from, NodeId home,
                             const BlockId& b);
  static Message dir_claim_forwarded(NodeId from, NodeId home,
                                     const BlockId& b, NodeId forwarder,
                                     std::uint64_t epoch);
  static Message dir_file_request(MsgKind kind, NodeId from, NodeId home,
                                  FileId file);
  static Message dir_reply(NodeId home, NodeId to, const BlockId& b,
                           NodeId result, std::uint64_t epoch, bool granted,
                           bool misdirected);

  // Batched directory ops: `count` is the item count, `bytes` the encoded
  // payload length (dir_batch.hpp defines the payload layout).
  static Message dir_batch_request(NodeId from, NodeId home,
                                   std::uint32_t items, std::uint64_t bytes);
  static Message dir_batch_reply(NodeId home, NodeId to, std::uint32_t items,
                                 std::uint64_t bytes);

  /// The result NodeId a singles kDirReply carries in `count` (kInvalidNode
  /// widened to 32 bits when absent). kDirBatchReply carries its per-item
  /// results in the payload, never here — this accessor asserts the kind so
  /// batch replies can't silently be read as a node id through `count`.
  [[nodiscard]] NodeId dir_result() const;

  /// The block set of a kPeerFetch, or the blocks a kPeerFetchReply ships:
  /// bit i stands for block {block.file, block.index + i}.
  [[nodiscard]] std::uint64_t fetch_mask() const;

  // Remote-storage RPCs: `age` carries the byte offset, `bytes` the length.
  static Message storage_read(NodeId from, NodeId home, FileId file,
                              std::uint64_t offset, std::uint64_t length);
  static Message storage_data(NodeId home, NodeId to, FileId file,
                              std::uint64_t bytes);
  static Message storage_write(NodeId from, NodeId home, FileId file,
                               std::uint64_t offset, std::uint64_t bytes);
  static Message storage_ack(NodeId home, NodeId to, FileId file);

  // Cluster barrier: `count` is the phase index.
  static Message barrier(NodeId from, NodeId home, std::uint32_t phase);
  static Message barrier_reply(NodeId home, NodeId to, std::uint32_t phase,
                               bool granted);

  /// Crash recovery: evict every directory entry mastered by `node` and
  /// epoch-fence the files it touched (see DirectoryService::purge_node).
  static Message dir_purge_node(NodeId from, NodeId home, NodeId node);

  // Telemetry scrape: the reply's `bytes` is the encoded snapshot length
  // (the snapshot itself rides in the envelope payload).
  static Message stats_pull(NodeId from, NodeId to);
  static Message stats_reply(NodeId from, NodeId to, std::uint64_t bytes);
};

/// True for kinds that answer a request (the transport routes these to the
/// caller blocked in call(); everything else is delivered to the node's
/// handler).
bool is_reply(MsgKind kind);

/// Stable display name of a message kind ("peer-fetch", ...).
const char* kind_name(MsgKind kind);

/// Fixed wire size of an encoded message (trailing trace/span ids included;
/// kProtocolVersion in net/frame.hpp guards cross-version mixing).
inline constexpr std::size_t kWireSize = 1 + 2 + 2 + 4 + 4 + 4 + 8 + 8 + 1 + 8 + 8;

using WireBytes = std::array<std::byte, kWireSize>;

/// Encodes `m` with a fixed little-endian layout.
WireBytes encode(const Message& m);

/// Decodes a message; nullopt on short input, unknown kind, or nonzero
/// reserved bits. decode(encode(m)) == m for every valid message.
std::optional<Message> decode(std::span<const std::byte> wire);

}  // namespace coop::proto
