// Vocabulary of the cooperative caching policy (§3, §5): its configuration,
// the actions one access produces, and the counters it keeps. Shared by the
// policy engine (proto::NodeState + proto::DirectoryService), its serial
// driver cache::ClusterCache, the simulator that charges the actions, and the
// threaded runtime that executes them.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/types.hpp"

namespace coop::cache {

/// Replacement policy variants evaluated in the paper.
enum class Policy {
  kBasic,            // CC-Basic: global LRU with master second chance
  kNeverEvictMaster  // CC-NEM: evict oldest non-master first
};

/// Directory implementations: the paper's optimistic perfect directory, or
/// the hint-based scheme of its §6 future work.
enum class DirectoryMode { kPerfect, kHinted };

struct CoopCacheConfig {
  std::size_t nodes = 8;
  std::uint64_t capacity_bytes = 64ull * 1024 * 1024;  // per node
  std::uint32_t block_bytes = 8 * 1024;
  Policy policy = Policy::kNeverEvictMaster;
  DirectoryMode directory = DirectoryMode::kPerfect;
  std::uint32_t hint_staleness = 1;
  /// Whole-file adaptation (§6: "whether [CCM] can easily be adapted for
  /// servers that always use whole files"): each file is cached, fetched,
  /// forwarded, and evicted as a single entry spanning its block footprint.
  bool whole_file = false;
};

/// Where one block of an access was satisfied from.
enum class Source { kLocalHit, kRemoteHit, kDiskRead };

struct BlockFetch {
  BlockId block;
  Source source = Source::kLocalHit;
  /// Peer for remote hits, home node for disk reads, self for local hits.
  NodeId provider = kInvalidNode;
  /// Hinted mode only: the hint pointed at the wrong node and an extra
  /// network round trip was wasted before reaching `provider`.
  bool misdirected = false;
};

struct Forward {
  BlockId block;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// False when the destination dropped the forwarded block (it would have
  /// been the destination's oldest).
  bool accepted = true;
};

struct Drop {
  BlockId block;
  NodeId node = kInvalidNode;
  bool was_master = false;
};

/// Everything that happened during one access; callers charge the costs.
struct AccessResult {
  std::vector<BlockFetch> fetches;
  std::vector<Forward> forwards;
  std::vector<Drop> drops;
};

/// Aggregate policy statistics.
struct CacheStats {
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t forwards_attempted = 0;
  std::uint64_t forwards_accepted = 0;
  std::uint64_t master_drops = 0;
  std::uint64_t copy_drops = 0;
  std::uint64_t hint_misdirects = 0;
  // Write-protocol extension (the paper's §6 future work).
  std::uint64_t writes = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t ownership_migrations = 0;

  CacheStats& operator+=(const CacheStats& o) {
    local_hits += o.local_hits;
    remote_hits += o.remote_hits;
    disk_reads += o.disk_reads;
    forwards_attempted += o.forwards_attempted;
    forwards_accepted += o.forwards_accepted;
    master_drops += o.master_drops;
    copy_drops += o.copy_drops;
    hint_misdirects += o.hint_misdirects;
    writes += o.writes;
    invalidations += o.invalidations;
    ownership_migrations += o.ownership_migrations;
    return *this;
  }

  [[nodiscard]] std::uint64_t block_accesses() const {
    return local_hits + remote_hits + disk_reads;
  }
  [[nodiscard]] double local_hit_rate() const { return share(local_hits); }
  [[nodiscard]] double remote_hit_rate() const { return share(remote_hits); }
  [[nodiscard]] double global_hit_rate() const {
    return local_hit_rate() + remote_hit_rate();
  }

 private:
  [[nodiscard]] double share(std::uint64_t n) const {
    const auto total = block_accesses();
    return total ? static_cast<double>(n) / static_cast<double>(total) : 0.0;
  }
};

}  // namespace coop::cache
