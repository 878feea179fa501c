// Lowers a ClusterCache access plan (cache::AccessResult) into the wire
// messages and bulk transfers it implies.
//
// One TransferGroup per (kind, provider): the paper charges a control round
// trip plus one bulk transfer per provider contacted, not per block, so the
// grouping *is* the cost model. The simulator walks the groups in order,
// charging each control message as a network control hop and each bulk
// payload as a data transfer; tests replay the same plans against the
// threaded runtime's live message counts to show both speak one protocol.
//
// Determinism: groups are emitted in ascending provider order (the builder
// groups through a std::map), so a plan lowers to the same message sequence
// every time — a requirement for byte-identical figure CSVs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/policy.hpp"
#include "proto/message.hpp"

namespace coop::proto {

/// All traffic owed to one provider (peer master holder or home disk node).
struct TransferGroup {
  NodeId provider = cache::kInvalidNode;
  std::vector<BlockId> blocks;
  /// Payload bytes shipped by the bulk transfer.
  std::uint64_t bytes = 0;
  /// Hinted mode: at least one block's hint pointed at the wrong node.
  bool misdirected = false;
  /// Per-block CPU multiplier: the real block count behind this group (the
  /// whole-file adaptation fetches one entry that stands for many blocks).
  std::uint64_t charge_blocks = 0;
  /// Control messages, charged as network control hops in order. A
  /// misdirected peer fetch costs three hops (stale probe, redirect, re-sent
  /// fetch); a clean one costs one.
  std::vector<Message> control;
  /// The bulk payload transfer; absent when the provider is the requester
  /// itself (local disk: the bytes move over the memory bus, not the wire).
  std::optional<Message> bulk;
};

/// One master forward scheduled by the replacement policy (asynchronous,
/// off the request's critical path).
struct ForwardStep {
  cache::Forward forward;
  std::uint64_t bytes = 0;
  /// Absent for single-node clusters (no peer to forward to: master lost).
  std::optional<Message> message;
};

struct TransferPlan {
  std::vector<TransferGroup> remote;  // ascending peer id
  std::vector<TransferGroup> disk;    // ascending home id
  std::vector<ForwardStep> forwards;  // policy order
};

struct PlanContext {
  std::uint32_t block_bytes = 8 * 1024;
  bool whole_file = false;
  /// File sizes, needed for tail-block byte counts and whole-file footprints
  /// (forwarded entries may belong to other files than the accessed one).
  std::function<std::uint64_t(FileId)> file_bytes_of;
};

/// Lowers `plan` (the policy actions of one access by `requester`) into
/// grouped transfers and their wire messages.
TransferPlan build_transfer_plan(NodeId requester,
                                 const cache::AccessResult& plan,
                                 const PlanContext& ctx);

}  // namespace coop::proto
