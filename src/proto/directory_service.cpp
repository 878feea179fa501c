#include "proto/directory_service.hpp"

namespace coop::proto {

DirectoryService::DirectoryService(std::size_t nodes,
                                   cache::DirectoryMode mode,
                                   std::uint32_t hint_staleness)
    : mode_(mode), hints_(nodes, hint_staleness) {}

DirectoryService::ReadLookup DirectoryService::lookup_for_read(
    NodeId node, const BlockId& b) {
  util::ScopedLock lock(mu_);
  return lookup_for_read_locked(node, b);
}

DirectoryService::ReadLookup DirectoryService::lookup_for_read_locked(
    NodeId node, const BlockId& b) {
  ++ops_.lookups;
  const NodeId truth = map_.lookup(b);
  const std::uint64_t epoch = file_epoch_locked(b.file);
  if (mode_ == cache::DirectoryMode::kPerfect) return {truth, false, epoch};

  // Hinted mode: a missing or wrong hint costs an extra round trip, after
  // which the request is chained to the true holder and the hint refreshed.
  // With no hint and no master the request goes to disk at no extra cost.
  const NodeId hinted = hints_.lookup(node, b);
  bool misdirected = false;
  if (hinted == cache::kInvalidNode) {
    if (truth != cache::kInvalidNode) {
      misdirected = true;
      ++ops_.hint_misdirects;
      hints_.refresh(node, b);
    }
  } else if (hinted != truth) {
    misdirected = true;
    ++ops_.hint_misdirects;
    hints_.refresh(node, b);
  }
  return {truth, misdirected, epoch};
}

NodeId DirectoryService::lookup(const BlockId& b) const {
  util::ScopedLock lock(mu_);
  return map_.lookup(b);
}

bool DirectoryService::try_claim(const BlockId& b, NodeId node) {
  util::ScopedLock lock(mu_);
  return try_claim_locked(b, node);
}

bool DirectoryService::try_claim_locked(const BlockId& b, NodeId node) {
  const NodeId current = map_.lookup(b);
  if (current == node) return true;  // at-least-once re-ask: already ours
  if (current != cache::kInvalidNode) {
    ++ops_.claim_conflicts;
    return false;
  }
  map_.set_master(b, node);
  if (mode_ == cache::DirectoryMode::kHinted) {
    hints_.set_master(b, node, node);
  }
  ++ops_.claims;
  return true;
}

std::optional<std::uint64_t> DirectoryService::begin_forward(const BlockId& b,
                                                             NodeId from) {
  util::ScopedLock lock(mu_);
  if (map_.lookup(b) != from) {
    // A rival transition (a write claim, an invalidation sweep) already
    // re-owns or erased this entry; erasing it here would let the forward
    // resurrect superseded bytes as the registered master.
    return std::nullopt;
  }
  if (writes_in_flight_.find(b.file) != writes_in_flight_.end()) {
    // A write to this file is mid-span. If it is re-writing `b` in place
    // (previous holder == writer), the lookup above still names `from` even
    // though `from`'s cached bytes are about to be superseded — forwarding
    // them would install a stale master somewhere else and make the writer's
    // own install check fail. Refuse; the caller drops the block instead.
    return std::nullopt;
  }
  map_.erase_master(b);
  ++ops_.forwards_begun;
  return file_epoch_locked(b.file);
}

bool DirectoryService::claim_forwarded(const BlockId& b, NodeId to,
                                       NodeId from, std::uint64_t epoch) {
  util::ScopedLock lock(mu_);
  if (file_epoch_locked(b.file) == epoch && map_.lookup(b) == to) {
    return true;  // at-least-once re-ask: the first delivery already landed
  }
  if (file_epoch_locked(b.file) != epoch ||
      map_.lookup(b) != cache::kInvalidNode) {
    // The loser's forward_rejected() call does the counting and hint drop.
    return false;
  }
  map_.set_master(b, to);
  if (mode_ == cache::DirectoryMode::kHinted) {
    hints_.set_master(b, to, from);
  }
  ++ops_.forward_claims;
  return true;
}

void DirectoryService::forward_rejected(const BlockId& b, NodeId from) {
  util::ScopedLock lock(mu_);
  ++ops_.forward_rejects;
  if (mode_ == cache::DirectoryMode::kHinted) {
    hints_.erase_master(b, from);
  }
}

void DirectoryService::master_dropped(const BlockId& b, NodeId node) {
  util::ScopedLock lock(mu_);
  master_dropped_locked(b, node);
}

void DirectoryService::master_dropped_locked(const BlockId& b, NodeId node) {
  if (map_.lookup(b) != node) return;  // a racing claim owns the entry now
  map_.erase_master(b);
  if (mode_ == cache::DirectoryMode::kHinted) {
    hints_.erase_master(b, node);
  }
  ++ops_.masters_dropped;
}

void DirectoryService::apply_batch(NodeId node,
                                   std::span<const DirBatchItem> items,
                                   std::vector<DirBatchResult>& out) {
  util::ScopedLock lock(mu_);
  out.reserve(out.size() + items.size());
  for (const DirBatchItem& it : items) {
    DirBatchResult r;
    switch (it.op) {
      case DirBatchOp::kLookupRead: {
        const ReadLookup lk = lookup_for_read_locked(node, it.block);
        r.node = lk.master;
        r.epoch = lk.epoch;
        if (lk.misdirected) r.flags |= kFlagMisdirected;
        break;
      }
      case DirBatchOp::kTryClaim:
        if (try_claim_locked(it.block, node)) r.flags |= kFlagGranted;
        break;
      case DirBatchOp::kMasterDropped:
        master_dropped_locked(it.block, node);
        break;
      case DirBatchOp::kValidate:
        // lookup() + read_cacheable() fused into one answer: the caller owns
        // the comparison against its hint (see DirBatchOp::kValidate docs).
        r.node = map_.lookup(it.block);
        r.epoch = file_epoch_locked(it.block.file);
        if (writes_in_flight_.find(it.block.file) == writes_in_flight_.end()) {
          r.flags |= kFlagGranted;
        }
        break;
    }
    out.push_back(r);
  }
}

NodeId DirectoryService::write_claim(const BlockId& b, NodeId writer) {
  util::ScopedLock lock(mu_);
  const NodeId previous = map_.lookup(b);
  ++ops_.write_claims;
  // Epoch fence: the write changes the block's bytes even when the
  // registered master is unchanged (previous == writer), and readers of that
  // master can't see the write through the lookup alone.
  ++epochs_[b.file];
  if (previous == writer) return previous;  // already the registered owner
  map_.set_master(b, writer);
  if (mode_ == cache::DirectoryMode::kHinted) {
    hints_.set_master(b, writer, writer);
  }
  return previous;
}

void DirectoryService::invalidate_file(FileId file) {
  util::ScopedLock lock(mu_);
  ++epochs_[file];
}

std::size_t DirectoryService::purge_node(NodeId node) {
  util::ScopedLock lock(mu_);
  const std::vector<BlockId> purged = map_.erase_node(node);
  for (const BlockId& b : purged) {
    ++epochs_[b.file];  // fence: the dead node's in-flight claims go stale
    if (mode_ == cache::DirectoryMode::kHinted) {
      hints_.erase_master(b, node);
    }
  }
  ops_.masters_purged += purged.size();
  return purged.size();
}

void DirectoryService::rebuild_masters(
    const std::vector<std::pair<BlockId, NodeId>>& masters) {
  util::ScopedLock lock(mu_);
  // Order-insensitive: per-file epoch increments commute.
  for (const auto& [b, n] : map_.entries()) {  // ccm-lint: allow(unordered-iter)
    (void)n;
    ++epochs_[b.file];
  }
  map_.clear();
  for (const auto& [b, n] : masters) {
    map_.set_master(b, n);
    ++epochs_[b.file];
    if (mode_ == cache::DirectoryMode::kHinted) {
      hints_.set_master(b, n, n);
    }
  }
}

void DirectoryService::write_begin(FileId file) {
  util::ScopedLock lock(mu_);
  ++writes_in_flight_[file];
}

void DirectoryService::write_end(FileId file) {
  util::ScopedLock lock(mu_);
  const auto it = writes_in_flight_.find(file);
  if (it != writes_in_flight_.end() && --it->second == 0) {
    writes_in_flight_.erase(it);
  }
  // Closing bump: a reader whose lookup fell inside the write span snapshot
  // an epoch that must not compare equal once the span is over.
  ++epochs_[file];
}

bool DirectoryService::read_cacheable(FileId file, std::uint64_t epoch) const {
  util::ScopedLock lock(mu_);
  return writes_in_flight_.find(file) == writes_in_flight_.end() &&
         file_epoch_locked(file) == epoch;
}

std::uint64_t DirectoryService::file_epoch_locked(FileId file) const {
  const auto it = epochs_.find(file);
  return it == epochs_.end() ? 0 : it->second;
}

std::uint64_t DirectoryService::file_epoch(FileId file) const {
  util::ScopedLock lock(mu_);
  return file_epoch_locked(file);
}

std::size_t DirectoryService::master_count() const {
  util::ScopedLock lock(mu_);
  return map_.size();
}

DirectoryService::Ops DirectoryService::ops() const {
  util::ScopedLock lock(mu_);
  return ops_;
}

void DirectoryService::reset_ops() {
  util::ScopedLock lock(mu_);
  ops_ = Ops{};
}

double DirectoryService::hint_accuracy() const {
  util::ScopedLock lock(mu_);
  return hints_.accuracy();
}

NodeId DirectoryService::hint_truth(const BlockId& b) const {
  util::ScopedLock lock(mu_);
  return hints_.truth(b);
}

std::size_t DirectoryService::audit(const char* context) const {
  util::ScopedLock lock(mu_);
  if (mode_ != cache::DirectoryMode::kHinted) return 0;
  return hints_.audit(context);
}

}  // namespace coop::proto
