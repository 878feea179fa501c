// Per-node protocol state machine: one node's slice of the cooperative
// caching policy. This and proto::DirectoryService are the only
// implementation of the replacement policy. The threaded runtime
// (ccm::CcmCluster) runs one NodeState per shard under that shard's lock,
// with messages between nodes; the simulator's cache::ClusterCache drives the
// same NodeStates one step at a time.
//
// Division of labor:
//  * NodeState owns this node's NodeCache (entry books, LRU ages), its slice
//    of the CacheStats counters, and a lock-free *published* summary
//    (oldest age, fullness) that peers read when picking forward targets.
//  * The directory lives elsewhere (proto::DirectoryService); NodeState
//    reports what happened (drops, pending forwards) and the caller applies
//    the directory effects. That split is what lets transitions run under a
//    single shard lock while cross-node traffic goes through messages.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/node_cache.hpp"
#include "cache/policy.hpp"
#include "cache/types.hpp"

namespace coop::proto {

/// Published "no cached blocks" sentinel (ages are strictly positive).
inline constexpr std::uint64_t kNoAge = ~0ull;

/// Read-only view of every peer's oldest age and fullness. The runtime
/// implements it over per-shard published atomics: exact under a quiescent
/// or serialized cluster, best-effort (and safely stale) under concurrency.
/// The simulator's cache::ClusterCache reads the nodes directly.
class PeerView {
 public:
  virtual ~PeerView() = default;
  /// Age of `n`'s oldest cached block; kNoAge when `n` caches nothing.
  [[nodiscard]] virtual std::uint64_t peer_oldest_age(cache::NodeId n) const = 0;
  [[nodiscard]] virtual bool peer_full(cache::NodeId n) const = 0;
};

/// Peer that should receive a forwarded master (the paper's replacement
/// rule): the first peer with free space in index order, otherwise the peer
/// holding the oldest block; kInvalidNode for single-node clusters.
cache::NodeId pick_forward_target(cache::NodeId from, std::size_t nodes,
                                  const PeerView& view);

/// True when `my_oldest` is the oldest block cluster-wide (masters get a
/// second chance through forwarding unless they are globally oldest).
bool holds_globally_oldest(cache::NodeId self, std::uint64_t my_oldest,
                           std::size_t nodes, const PeerView& view);

/// A master this node evicted that must be offered to a peer. The entry has
/// already been erased locally (and forwards_attempted counted); the caller
/// owes the directory transition and the MasterForward message.
struct PendingForward {
  cache::BlockId block;
  std::uint64_t age = 0;  // forwarded masters keep their age
  std::uint32_t slots = 1;
};

enum class ForwardOutcome {
  kAccepted,  // inserted with the forwarded age
  kPromoted,  // local copy promoted to master (keeps its younger age)
  kRejected   // everything here is younger: the master would be dropped next
};

class NodeState {
 public:
  NodeState(cache::NodeId id, const cache::CoopCacheConfig& config);

  [[nodiscard]] cache::NodeId id() const { return id_; }
  [[nodiscard]] const cache::NodeCache& cache() const { return cache_; }
  [[nodiscard]] cache::CacheStats& stats() { return stats_; }
  [[nodiscard]] const cache::CacheStats& stats() const { return stats_; }

  [[nodiscard]] bool contains(const cache::BlockId& b) const {
    return cache_.contains(b);
  }
  [[nodiscard]] bool is_master(const cache::BlockId& b) const {
    return cache_.is_master(b);
  }

  // --- transitions; call with the owning shard's lock held ---

  void touch(const cache::BlockId& b, std::uint64_t age) {
    cache_.touch(b, age);
  }
  void insert_copy(const cache::BlockId& b, std::uint64_t age,
                   std::uint32_t slots = 1) {
    cache_.insert(b, /*master=*/false, age, slots);
  }
  void insert_master(const cache::BlockId& b, std::uint64_t age,
                     std::uint32_t slots = 1) {
    cache_.insert(b, /*master=*/true, age, slots);
  }
  void promote_to_master(const cache::BlockId& b) {
    cache_.promote_to_master(b);
  }
  void demote_to_copy(const cache::BlockId& b) { cache_.demote_to_copy(b); }

  /// Evicts until `slots` fit (or the cache is empty). Victim drops are
  /// appended to `drops` with copy/master drop statistics counted here; the
  /// caller erases the corresponding bytes and directory entries. Returns a
  /// PendingForward — with the entry already erased and forwards_attempted
  /// counted — when a master earned its second chance; the caller ships it
  /// and calls again if still short on room.
  [[nodiscard]] std::optional<PendingForward> make_room(
      std::uint32_t slots, const PeerView& view,
      std::vector<cache::Drop>& drops);

  /// Receives a forwarded master (the paper: the receiver drops its own
  /// oldest blocks to make room — never forwards again — and rejects the
  /// block if everything remaining is younger). Victim drops are appended
  /// with their statistics counted; the forwarded block's accept/reject
  /// statistics belong to the *sender* and are not counted here.
  [[nodiscard]] ForwardOutcome handle_forward(const PendingForward& pf,
                                              std::vector<cache::Drop>& drops);

  /// Drops `b` for an invalidation (file invalidation, or a write protocol
  /// invalidate; non-masters only unless `drop_master`). Returns the drop —
  /// with invalidations and drop statistics counted — or nullopt if nothing
  /// was dropped.
  [[nodiscard]] std::optional<cache::Drop> handle_invalidate(
      const cache::BlockId& b, bool drop_master);

  /// Write-ownership transfer: silently releases a master migrating to the
  /// writer (no drop statistics — the entry moves, it does not die).
  /// Returns false when `b` is not a master here (e.g. already evicted).
  bool relinquish_master(const cache::BlockId& b);

  /// Undoes a forward insert whose directory claim lost a race.
  void erase_entry(const cache::BlockId& b) { cache_.erase(b); }

  /// Sweeps this node's own invariants (cache-occupancy,
  /// cache-slot-accounting) through coop::audit with `context` in the detail
  /// string; returns the violation count. Call with the shard lock held.
  std::size_t audit(const char* context) const;

  /// Crash simulation: forgets every cached entry and statistic, as if the
  /// node process died and restarted cold, then re-publishes the empty
  /// summary. The caller owes the directory fence (purge_node) — this only
  /// resets local state.
  void reset();

  // --- published summary (lock-free reads by peers) ---

  /// Re-publishes oldest age and fullness; call before releasing the shard
  /// lock after any transition.
  void publish();
  [[nodiscard]] std::uint64_t published_oldest_age() const {
    return pub_oldest_age_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool published_full() const {
    return pub_full_.load(std::memory_order_acquire);
  }

 private:
  friend struct NodeStateTestPeer;  // test-only corruption (audit tests)

  /// One eviction step: a drop, or the decision to forward the oldest
  /// master.
  [[nodiscard]] std::optional<PendingForward> evict_one(
      const PeerView& view, std::vector<cache::Drop>& drops);

  void drop_entry(const cache::BlockId& b, std::vector<cache::Drop>& drops);

  cache::NodeId id_;
  std::size_t cluster_nodes_;
  cache::Policy policy_;
  std::uint64_t capacity_bytes_;  // kept for reset() reconstruction
  std::uint32_t block_bytes_;
  cache::NodeCache cache_;
  cache::CacheStats stats_;
  std::atomic<std::uint64_t> pub_oldest_age_{kNoAge};
  std::atomic<bool> pub_full_{false};
};

}  // namespace coop::proto
