#include "cache/coop_cache.hpp"

#include <cassert>
#include <string>

namespace coop::cache {

ClusterCache::ClusterCache(const CoopCacheConfig& config,
                           std::function<NodeId(FileId)> home_of)
    : config_(config),
      home_of_(std::move(home_of)),
      dir_(config.nodes, config.directory, config.hint_staleness) {
  assert(config_.nodes > 0);
  if (!home_of_) {
    const auto n = config_.nodes;
    home_of_ = [n](FileId f) { return static_cast<NodeId>(f % n); };
  }
  nodes_.reserve(config_.nodes);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(
        std::make_unique<proto::NodeState>(static_cast<NodeId>(i), config_));
  }
}

std::uint64_t ClusterCache::peer_oldest_age(NodeId n) const {
  return nodes_[n]->cache().oldest_age().value_or(proto::kNoAge);
}

bool ClusterCache::peer_full(NodeId n) const {
  return nodes_[n]->cache().full();
}

AccessResult ClusterCache::access(NodeId node, FileId file,
                                  std::uint64_t file_bytes) {
  AccessResult result;
  const std::uint32_t nblocks = blocks_for(file_bytes, config_.block_bytes);
  if (config_.whole_file) {
    // Whole-file adaptation: the file is one cache entry spanning its full
    // block footprint.
    access_block(node, BlockId{file, 0}, result, nblocks);
  } else {
    result.fetches.reserve(nblocks);
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      access_block(node, BlockId{file, i}, result);
    }
  }
  if (access_tap_) access_tap_(node, result);
  return result;
}

void ClusterCache::access_block(NodeId node, const BlockId& block,
                                AccessResult& result, std::uint32_t slots) {
  access_block_impl(node, block, result, slots);
  CCM_AUDIT_HOOK(audit("access_block"));
}

void ClusterCache::access_block_impl(NodeId node, const BlockId& block,
                                     AccessResult& result,
                                     std::uint32_t slots) {
  assert(node < nodes_.size());
  proto::NodeState& local = *nodes_[node];

  // Local hit: master or copy already here.
  if (local.contains(block)) {
    local.touch(block, clock_.next());
    ++local.stats().local_hits;
    result.fetches.push_back({block, Source::kLocalHit, node, false});
    return;
  }

  // The directory names the true master holder. In hinted mode it also
  // reports a missing or wrong hint: that costs an extra hop before the
  // request is chained to the holder, or to disk when there is none.
  const auto lk = dir_.lookup_for_read(node, block);
  if (lk.master != kInvalidNode) {
    // Remote hit: fetch a non-master copy from the master holder. Touch the
    // master first so the incoming copy's eviction work cannot victimize it.
    nodes_[lk.master]->touch(block, clock_.next());
    ++local.stats().remote_hits;
    result.fetches.push_back(
        {block, Source::kRemoteHit, lk.master, lk.misdirected});
    make_room(local, slots, result);
    local.insert_copy(block, clock_.next(), slots);
    return;
  }

  // Miss everywhere: the home node reads the block from disk and the
  // requester becomes the master holder.
  ++local.stats().disk_reads;
  result.fetches.push_back(
      {block, Source::kDiskRead, home_of_(block.file), lk.misdirected});
  make_room(local, slots, result);
  dir_.try_claim(block, node);
  local.insert_master(block, clock_.next(), slots);
}

AccessResult ClusterCache::write(NodeId node, FileId file,
                                 std::uint64_t file_bytes) {
  AccessResult result;
  const std::uint32_t nblocks = blocks_for(file_bytes, config_.block_bytes);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    write_block(node, BlockId{file, i}, result);
  }
  if (access_tap_) access_tap_(node, result);
  return result;
}

void ClusterCache::write_block(NodeId node, const BlockId& block,
                               AccessResult& result) {
  write_block_impl(node, block, result);
  CCM_AUDIT_HOOK(audit("write_block"));
}

void ClusterCache::write_block_impl(NodeId node, const BlockId& block,
                                    AccessResult& result) {
  assert(node < nodes_.size());
  proto::NodeState& mine = *nodes_[node];
  ++mine.stats().writes;

  // Invalidate every non-master copy held by peers. A stale copy at the
  // writer itself is not dropped — it gets promoted to master below.
  for (const auto& peer : nodes_) {
    if (peer->id() == node) continue;
    if (const auto drop =
            peer->handle_invalidate(block, /*drop_master=*/false)) {
      result.drops.push_back(*drop);
    }
  }

  const NodeId holder = dir_.write_claim(block, node);
  if (holder == node) {
    // Already the exclusive owner: refresh recency.
    mine.touch(block, clock_.next());
    return;
  }
  if (holder != kInvalidNode) {
    // Ownership migration: the master (with its current bytes, in data-plane
    // implementations) moves to the writer, reported as an accepted forward.
    ++mine.stats().ownership_migrations;
    nodes_[holder]->relinquish_master(block);
  }
  // The writer's own stale copy is promoted in place; otherwise a master
  // slot is allocated without a disk read (the caller provides the bytes).
  if (mine.contains(block)) {
    mine.promote_to_master(block);
    mine.touch(block, clock_.next());
  } else {
    make_room(mine, 1, result);
    mine.insert_master(block, clock_.next());
  }
  if (holder != kInvalidNode) {
    result.forwards.push_back({block, holder, node, true});
  }
}

AccessResult ClusterCache::invalidate_file(FileId file,
                                           std::uint64_t file_bytes) {
  AccessResult result;
  const std::uint32_t nblocks =
      config_.whole_file ? 1 : blocks_for(file_bytes, config_.block_bytes);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const BlockId block{file, i};
    for (const auto& st : nodes_) {
      if (const auto drop =
              st->handle_invalidate(block, /*drop_master=*/true)) {
        if (drop->was_master) dir_.master_dropped(block, drop->node);
        result.drops.push_back(*drop);
      }
    }
  }
  CCM_AUDIT_HOOK(audit("invalidate_file"));
  return result;
}

void ClusterCache::make_room(proto::NodeState& st, std::uint32_t slots,
                             AccessResult& result) {
  for (;;) {
    const std::size_t first = result.drops.size();
    const auto pf = st.make_room(slots, *this, result.drops);
    unregister_dropped_masters(result, first);
    if (!pf) return;
    forward(st, *pf, result);
  }
}

void ClusterCache::forward(proto::NodeState& from,
                           const proto::PendingForward& pf,
                           AccessResult& result) {
  const NodeId to =
      proto::pick_forward_target(from.id(), nodes_.size(), *this);
  bool accepted = false;
  if (to == kInvalidNode) {
    // Single-node cluster: nothing to forward to; the master is lost.
    dir_.master_dropped(pf.block, from.id());
  } else {
    // Serially nothing can overtake the eviction, so the directory always
    // lets the forward begin and the destination's claim always lands.
    const std::uint64_t epoch = dir_.begin_forward(pf.block, from.id()).value();
    const std::size_t first = result.drops.size();
    const auto outcome = nodes_[to]->handle_forward(pf, result.drops);
    unregister_dropped_masters(result, first);
    accepted = outcome != proto::ForwardOutcome::kRejected;
    if (accepted) {
      dir_.claim_forwarded(pf.block, to, from.id(), epoch);
    } else {
      dir_.forward_rejected(pf.block, from.id());
    }
  }
  result.forwards.push_back({pf.block, from.id(), to, accepted});
  if (accepted) {
    ++from.stats().forwards_accepted;
  } else {
    ++from.stats().master_drops;
    result.drops.push_back({pf.block, from.id(), true});
  }
}

void ClusterCache::unregister_dropped_masters(const AccessResult& result,
                                              std::size_t first) {
  for (std::size_t i = first; i < result.drops.size(); ++i) {
    const Drop& d = result.drops[i];
    if (d.was_master) dir_.master_dropped(d.block, d.node);
  }
}

CacheStats ClusterCache::stats() const {
  CacheStats total;
  for (const auto& st : nodes_) total += st->stats();
  total.hint_misdirects = dir_.ops().hint_misdirects;
  return total;
}

void ClusterCache::reset_stats() {
  for (const auto& st : nodes_) st->stats() = CacheStats{};
  dir_.reset_ops();
}

std::size_t ClusterCache::audit(const char* context) const {
  std::size_t ccm_audit_failures = 0;
  const std::string ctx = std::string(" [") + context + "]";
  std::size_t cached_masters = 0;
  for (const auto& st : nodes_) {
    ccm_audit_failures += st->audit(context);
    const NodeId n = st->id();
    // Every cached master must be in the directory, pointing here; in hinted
    // mode the hint layer's authoritative view must agree with the directory.
    for (const auto& e : st->cache().masters()) {
      const NodeId registered = dir_.lookup(e.block);
      CCM_AUDIT(registered == n, "cache-master-registered",
                "master of file " + std::to_string(e.block.file) + " block " +
                    std::to_string(e.block.index) + " cached at node " +
                    std::to_string(n) + " but directory says node " +
                    std::to_string(registered) + ctx);
      if (config_.directory == DirectoryMode::kHinted) {
        const NodeId truth = dir_.hint_truth(e.block);
        CCM_AUDIT(truth == n, "cache-hint-truth",
                  "hint truth for file " + std::to_string(e.block.file) +
                      " block " + std::to_string(e.block.index) + " is node " +
                      std::to_string(truth) +
                      " but the master is cached at node " +
                      std::to_string(n) + ctx);
      }
    }
    cached_masters += st->cache().master_count();
  }
  // Every cached master points at its own directory entry (checked above);
  // equal counts then make that correspondence a bijection, which rules out
  // duplicate masters and dangling directory entries — i.e. at most one
  // master copy per block cluster-wide.
  const std::size_t dir_masters = dir_.master_count();
  CCM_AUDIT(dir_masters == cached_masters, "cache-single-master",
            "directory tracks " + std::to_string(dir_masters) +
                " masters but nodes cache " + std::to_string(cached_masters) +
                ctx);
  ccm_audit_failures += dir_.audit(context);
  return ccm_audit_failures;
}

bool ClusterCache::check_invariants() const {
  return audit("check_invariants") == 0;
}

}  // namespace coop::cache
