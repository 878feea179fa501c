#include "proto/node_state.hpp"

#include <cassert>
#include <limits>
#include <string>

#include "util/audit.hpp"

namespace coop::proto {

cache::NodeId pick_forward_target(cache::NodeId from, std::size_t nodes,
                                  const PeerView& view) {
  cache::NodeId best = cache::kInvalidNode;
  std::uint64_t best_age = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t p = 0; p < nodes; ++p) {
    const auto peer = static_cast<cache::NodeId>(p);
    if (peer == from) continue;
    if (!view.peer_full(peer)) return peer;  // free space wins
    const std::uint64_t age = view.peer_oldest_age(peer);
    if (age != kNoAge && age < best_age) {
      best_age = age;
      best = peer;
    }
  }
  return best;
}

bool holds_globally_oldest(cache::NodeId self, std::uint64_t my_oldest,
                           std::size_t nodes, const PeerView& view) {
  for (std::size_t p = 0; p < nodes; ++p) {
    const auto peer = static_cast<cache::NodeId>(p);
    if (peer == self) continue;
    const std::uint64_t theirs = view.peer_oldest_age(peer);
    if (theirs != kNoAge && theirs < my_oldest) return false;
  }
  return true;
}

NodeState::NodeState(cache::NodeId id, const cache::CoopCacheConfig& config)
    : id_(id),
      cluster_nodes_(config.nodes),
      policy_(config.policy),
      capacity_bytes_(config.capacity_bytes),
      block_bytes_(config.block_bytes),
      cache_(capacity_bytes_, block_bytes_) {}

void NodeState::reset() {
  cache_ = cache::NodeCache(capacity_bytes_, block_bytes_);
  stats_ = cache::CacheStats{};
  publish();
}

void NodeState::drop_entry(const cache::BlockId& b,
                           std::vector<cache::Drop>& drops) {
  const bool was_master = cache_.erase(b);
  if (was_master) {
    ++stats_.master_drops;
  } else {
    ++stats_.copy_drops;
  }
  drops.push_back(cache::Drop{b, id_, was_master});
}

std::optional<PendingForward> NodeState::evict_one(
    const PeerView& view, std::vector<cache::Drop>& drops) {
  assert(!cache_.empty());

  if (policy_ == cache::Policy::kNeverEvictMaster) {
    // CC-NEM: while any non-master copy remains, evict the oldest copy and
    // leave every master in place.
    if (const auto copy = cache_.oldest_copy()) {
      drop_entry(copy->block, drops);
      return std::nullopt;
    }
  }

  const auto oldest = cache_.oldest();
  assert(oldest.has_value());
  if (!oldest->master) {
    drop_entry(oldest->block, drops);
    return std::nullopt;
  }
  // Master: second chance — forward unless it is the globally oldest block.
  const auto my_oldest = cache_.oldest_age();
  assert(my_oldest.has_value());
  if (holds_globally_oldest(id_, *my_oldest, cluster_nodes_, view)) {
    drop_entry(oldest->block, drops);
    return std::nullopt;
  }
  ++stats_.forwards_attempted;
  PendingForward pf{oldest->block, oldest->age, oldest->slots};
  cache_.erase(oldest->block);
  return pf;
}

std::optional<PendingForward> NodeState::make_room(
    std::uint32_t slots, const PeerView& view,
    std::vector<cache::Drop>& drops) {
  while (cache_.lacks_room_for(slots) && !cache_.empty()) {
    if (auto pf = evict_one(view, drops)) return pf;
  }
  return std::nullopt;
}

ForwardOutcome NodeState::handle_forward(const PendingForward& pf,
                                         std::vector<cache::Drop>& drops) {
  if (cache_.contains(pf.block)) {
    // A rival disk-read claim made this node the master while the forward
    // was in flight; the sender's directory claim is doomed — reject.
    if (cache_.is_master(pf.block)) return ForwardOutcome::kRejected;
    // A non-master copy already here simply becomes the master: no extra
    // memory, no drops, and it keeps its own (younger) age.
    cache_.promote_to_master(pf.block);
    return ForwardOutcome::kPromoted;
  }
  // Make room by dropping our own oldest blocks — never by forwarding again
  // (the paper's property: no cascaded evictions).
  while (cache_.lacks_room_for(pf.slots) && !cache_.empty()) {
    const auto victim = cache_.oldest();
    assert(victim.has_value());
    drop_entry(victim->block, drops);
  }
  // If everything left here is younger than the forwarded block, it would
  // immediately become the eviction candidate: reject it.
  const auto my_oldest = cache_.oldest_age();
  if (my_oldest.has_value() && *my_oldest > pf.age) {
    return ForwardOutcome::kRejected;
  }
  cache_.insert(pf.block, /*master=*/true, pf.age, pf.slots);
  return ForwardOutcome::kAccepted;
}

std::optional<cache::Drop> NodeState::handle_invalidate(const cache::BlockId& b,
                                                        bool drop_master) {
  if (!cache_.contains(b)) return std::nullopt;
  if (!drop_master && cache_.is_master(b)) return std::nullopt;
  std::vector<cache::Drop> drops;
  drop_entry(b, drops);
  ++stats_.invalidations;
  return drops.front();
}

bool NodeState::relinquish_master(const cache::BlockId& b) {
  if (!cache_.is_master(b)) return false;
  cache_.erase(b);
  return true;
}

std::size_t NodeState::audit(const char* context) const {
  std::size_t ccm_audit_failures = 0;
  const std::string ctx = std::string(" [") + context + "]";
  // A single entry wider than the whole capacity is admitted degenerately
  // (whole-file mode); anything else is a real overflow.
  CCM_AUDIT(cache_.used_blocks() <= cache_.capacity_blocks() ||
                cache_.entry_count() <= 1,
            "cache-occupancy",
            "node " + std::to_string(id_) + " uses " +
                std::to_string(cache_.used_blocks()) + " of " +
                std::to_string(cache_.capacity_blocks()) + " blocks" + ctx);
  // Slot accounting must agree with the entry books.
  std::uint64_t slots = 0;
  for (const auto& e : cache_.masters()) slots += e.slots;
  for (const auto& e : cache_.copies()) slots += e.slots;
  CCM_AUDIT(slots == cache_.used_blocks(), "cache-slot-accounting",
            "node " + std::to_string(id_) + " books " +
                std::to_string(cache_.used_blocks()) +
                " used blocks but entries cover " + std::to_string(slots) +
                ctx);
  return ccm_audit_failures;
}

void NodeState::publish() {
  const auto oldest = cache_.oldest_age();
  pub_oldest_age_.store(oldest.value_or(kNoAge), std::memory_order_release);
  pub_full_.store(cache_.full(), std::memory_order_release);
}

}  // namespace coop::proto
