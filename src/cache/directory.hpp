// Master-block directories.
//
// The paper's simulation assumes a *perfect* global directory of master
// blocks (§3, optimistic assumptions i-iii). PerfectDirectory implements
// that. HintedDirectory models the hint-based alternative of Sarkar & Hartman
// (reference [18], and the paper's §6 future work): lookups go through
// per-node hint tables that are updated lazily, so they can be stale; the
// paper cites ~98% location accuracy for this scheme.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/block_table.hpp"
#include "cache/types.hpp"

namespace coop::cache {

/// Authoritative map from block to the node holding its master copy.
class PerfectDirectory {
 public:
  /// Node holding the master of `b`, or kInvalidNode.
  [[nodiscard]] NodeId lookup(const BlockId& b) const;

  [[nodiscard]] bool has_master(const BlockId& b) const {
    return lookup(b) != kInvalidNode;
  }

  void set_master(const BlockId& b, NodeId n);
  void erase_master(const BlockId& b);

  /// Unregisters every master held by `n` (crash recovery); returns the
  /// affected blocks so the caller can epoch-fence their files.
  std::vector<BlockId> erase_node(NodeId n);

  /// Every (block, holder) pair, in unspecified order (directory rebuild).
  [[nodiscard]] std::vector<std::pair<BlockId, NodeId>> entries() const;

  void clear() { map_.clear(); }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  BlockTable<NodeId> map_;
};

/// Hint-based directory: each node keeps its own possibly-stale view.
///
/// The truth is still tracked (it is needed to adjudicate whether a hint was
/// right), but `lookup(node, b)` answers from `node`'s hint table. Hints are
/// refreshed on use: a wrong hint is corrected after the (mis-)directed fetch
/// fails, modeling the piggy-backed hint exchange of [18]. `staleness_lag`
/// controls how many master relocations a node may lag behind.
class HintedDirectory {
 public:
  HintedDirectory(std::size_t nodes, std::uint32_t staleness_lag = 1);

  /// `observer`'s belief about the master location of `b` (may be stale);
  /// kInvalidNode if the observer has no hint.
  [[nodiscard]] NodeId lookup(NodeId observer, const BlockId& b) const;

  /// Authoritative location.
  [[nodiscard]] NodeId truth(const BlockId& b) const;

  /// Records a master placement/move. The mover and the destination learn the
  /// truth immediately; other nodes keep their old hints until they have
  /// lagged more than `staleness_lag` relocations, at which point they are
  /// brought up to date (coarse model of periodic piggy-backed refresh).
  void set_master(const BlockId& b, NodeId n, NodeId observer);
  void erase_master(const BlockId& b, NodeId observer);

  /// Called when `observer` discovers the truth for `b` (e.g. after a failed
  /// fetch): refreshes its hint.
  void refresh(NodeId observer, const BlockId& b);

  /// Fraction of lookups that matched the truth (accuracy statistic).
  [[nodiscard]] double accuracy() const;
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }

  /// Internal-consistency sweep: every authoritative entry names a valid
  /// node, and broadcast bookkeeping only covers live entries. Violations go
  /// through coop::audit; returns the violation count.
  std::size_t audit(const char* context) const;

 private:
  friend struct HintedDirectoryTestPeer;  // test-only corruption (audit tests)
  struct Hints {
    BlockTable<NodeId> map;
  };
  struct TruthEntry {
    NodeId node = kInvalidNode;
    std::uint32_t version = 0;  // bumped per relocation
  };

  void propagate_if_lagged(const BlockId& b);

  std::uint32_t staleness_lag_;
  std::vector<Hints> hints_;
  BlockTable<TruthEntry> truth_;
  BlockTable<std::uint32_t> last_broadcast_;
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t correct_ = 0;
};

}  // namespace coop::cache
