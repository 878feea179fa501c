// The paper's block-based cooperative caching algorithm (§3), driven
// serially for the simulator.
//
// The policy itself lives in two shared pieces: proto::NodeState (one node's
// cache, its evictions and its half of a master forward) and
// proto::DirectoryService (master registrations and the hint tables of the
// hinted mode). The threaded runtime (ccm::CcmCluster) runs those pieces
// sharded, one lock per node, with messages between them. ClusterCache runs
// the very same pieces one step at a time with an exact view of every peer,
// and records what each access did as an AccessResult. It performs no I/O
// and knows nothing about time; the event-driven simulator in src/server
// charges the actions it reports.
//
// Algorithm summary (from the paper):
//  * The first in-memory copy of a block (read from its home node's disk) is
//    the *master*; a global directory tracks master locations.
//  * A node missing a block fetches a non-master copy from the master holder
//    if one exists, otherwise asks the file's home node to read it from disk
//    and becomes the new master holder.
//  * Replacement is approximate global LRU. When a full node evicts:
//      - a non-master or the globally-oldest block is dropped;
//      - otherwise a master is *forwarded* to the peer holding the oldest
//        block; the receiver drops its own oldest block to make room (no
//        cascaded evictions), and drops the forwarded block instead if all
//        its blocks are now younger.
//  * CC-NEM modification (§5): never evict a master while the node still
//    holds any non-master copy; evict the oldest non-master first.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/node_cache.hpp"
#include "cache/policy.hpp"
#include "cache/types.hpp"
#include "proto/directory_service.hpp"
#include "proto/node_state.hpp"
#include "util/audit.hpp"

namespace coop::cache {

/// The serial driver is its own PeerView: every peer's oldest age and
/// fullness are read straight from the nodes, so with nothing in flight the
/// view is exact.
class ClusterCache : private proto::PeerView {
 public:
  /// `home_of` maps a file to the node whose disk stores it ("the general
  /// case of files being distributed across all nodes", §3); defaults to
  /// file-id modulo node count.
  ClusterCache(const CoopCacheConfig& config,
               std::function<NodeId(FileId)> home_of = {});

  /// Accesses all blocks of `file` (of size `file_bytes`) at `node`,
  /// applying cache-state transitions and reporting the resulting actions.
  AccessResult access(NodeId node, FileId file, std::uint64_t file_bytes);

  /// Accesses a single cache entry; appends actions to `result`. `slots` is
  /// the entry's block-slot footprint (1 in block mode; the file's block
  /// count in whole-file mode).
  void access_block(NodeId node, const BlockId& block, AccessResult& result,
                    std::uint32_t slots = 1);

  /// Write-protocol extension (§6 future work): makes `node` the exclusive
  /// in-memory owner of `block`. Every non-master copy in the cluster is
  /// invalidated (dropped); a master held elsewhere migrates to `node` (an
  /// accepted Forward action carries the current bytes along in data-plane
  /// implementations); if the block is uncached, a master slot is allocated
  /// at `node` without a disk read (write-allocate). Postconditions: `node`
  /// is the master holder and holds the only in-memory instance.
  void write_block(NodeId node, const BlockId& block, AccessResult& result);

  /// Writes all blocks of `file` (of size `file_bytes`) at `node`.
  AccessResult write(NodeId node, FileId file, std::uint64_t file_bytes);

  /// Drops every cached block of `file` (masters and copies) cluster-wide.
  /// Used when content changes outside the caching layer. `file_bytes`
  /// bounds the block scan.
  AccessResult invalidate_file(FileId file, std::uint64_t file_bytes);

  [[nodiscard]] const CoopCacheConfig& config() const { return config_; }
  [[nodiscard]] NodeId home_of(FileId file) const { return home_of_(file); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const NodeCache& node(NodeId n) const {
    return nodes_[n]->cache();
  }
  [[nodiscard]] const proto::DirectoryService& directory() const {
    return dir_;
  }
  /// The nodes' counters summed, plus the directory's hint misdirects.
  [[nodiscard]] CacheStats stats() const;
  void reset_stats();

  /// Hinted mode only: observed hint accuracy (paper cites ~98% for [18]).
  [[nodiscard]] double hint_accuracy() const { return dir_.hint_accuracy(); }

  /// Observation tap fired once per access()/write() with the requesting
  /// node and the completed plan — enough for hit/miss timelines. Empty
  /// function clears it.
  using AccessTap = std::function<void(NodeId node, const AccessResult& plan)>;
  void set_access_tap(AccessTap tap) { access_tap_ = std::move(tap); }

  /// Sweeps every cross-node protocol invariant (see DESIGN.md and
  /// docs/STATIC_ANALYSIS.md), reporting each violation through coop::audit
  /// with `context` in the detail string. Returns the number of violations
  /// (0 = healthy). Always compiled; audited builds (CCM_AUDIT_ENABLED) also
  /// run it automatically after every protocol event.
  std::size_t audit(const char* context) const;

  /// Convenience wrapper: audit("check_invariants") == 0.
  [[nodiscard]] bool check_invariants() const;

 private:
  friend struct ClusterCacheTestPeer;  // test-only state corruption (audit tests)

  [[nodiscard]] std::uint64_t peer_oldest_age(NodeId n) const override;
  [[nodiscard]] bool peer_full(NodeId n) const override;

  /// Bodies of access_block/write_block; the public wrappers add the
  /// per-event audit hook in CCM_AUDIT builds.
  void access_block_impl(NodeId node, const BlockId& block,
                         AccessResult& result, std::uint32_t slots);
  void write_block_impl(NodeId node, const BlockId& block,
                        AccessResult& result);
  /// Evicts at `st` until `slots` fit, forwarding masters that earn a
  /// second chance.
  void make_room(proto::NodeState& st, std::uint32_t slots,
                 AccessResult& result);
  /// Offers a master `from` evicted to the peer the policy picks.
  void forward(proto::NodeState& from, const proto::PendingForward& pf,
               AccessResult& result);
  /// Unregisters the masters among result.drops[first..].
  void unregister_dropped_masters(const AccessResult& result,
                                  std::size_t first);

  CoopCacheConfig config_;
  std::function<NodeId(FileId)> home_of_;
  AccessTap access_tap_;
  std::vector<std::unique_ptr<proto::NodeState>> nodes_;
  proto::DirectoryService dir_;
  LogicalClock clock_;
};

}  // namespace coop::cache
