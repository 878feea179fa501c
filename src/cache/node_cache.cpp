#include "cache/node_cache.hpp"

#include <algorithm>
#include <cassert>

namespace coop::cache {

NodeCache::NodeCache(std::uint64_t capacity_bytes, std::uint32_t block_bytes)
    : capacity_blocks_(std::max<std::uint64_t>(1, capacity_bytes / block_bytes)) {
  assert(block_bytes > 0);
}

const NodeCache::Entry& NodeCache::entry(const BlockId& b) const {
  const Handle* h = index_.find(b);
  assert(h != nullptr);
  return pool_[*h];
}

const NodeCache::Entry* NodeCache::oldest_entry() const {
  if (empty()) return nullptr;
  if (masters_.empty()) return &pool_[copies_.oldest(pool_)];
  const Entry& m = pool_[masters_.oldest(pool_)];
  if (copies_.empty()) return &m;
  const Entry& c = pool_[copies_.oldest(pool_)];
  return m.age <= c.age ? &m : &c;
}

std::optional<std::uint64_t> NodeCache::oldest_age() const {
  const Entry* e = oldest_entry();
  if (e == nullptr) return std::nullopt;
  return e->age;
}

std::optional<NodeCache::Entry> NodeCache::oldest() const {
  const Entry* e = oldest_entry();
  if (e == nullptr) return std::nullopt;
  return *e;
}

std::optional<NodeCache::Entry> NodeCache::oldest_copy() const {
  if (copies_.empty()) return std::nullopt;
  return pool_[copies_.oldest(pool_)];
}

void NodeCache::insert(const BlockId& b, bool master, std::uint64_t age,
                       std::uint32_t slots) {
  assert(slots >= 1);
  assert(used_slots_ + slots <= capacity_blocks_ || empty());
  Handle h = free_;
  if (h != kNoHandle) {
    free_ = pool_[h].next;
  } else {
    h = static_cast<Handle>(pool_.size());
    pool_.emplace_back();
  }
  const bool inserted = index_.try_emplace(b, h).second;
  assert(inserted);
  (void)inserted;
  Entry& e = pool_[h];
  e.block = b;
  e.slots = slots;
  e.master = master;
  order_of(e).insert(pool_, h, age);
  used_slots_ += slots;
}

void NodeCache::touch(const BlockId& b, std::uint64_t age) {
  const Handle* h = index_.find(b);
  assert(h != nullptr);
  order_of(pool_[*h]).touch(pool_, *h, age);
}

bool NodeCache::erase(const BlockId& b) {
  const auto h = index_.take(b);
  assert(h.has_value());
  if (!h) return false;
  Entry& e = pool_[*h];
  order_of(e).erase(pool_, *h);
  used_slots_ -= e.slots;
  e.next = free_;
  free_ = *h;
  return e.master;
}

void NodeCache::set_master(const BlockId& b, bool master) {
  const Handle* h = index_.find(b);
  assert(h != nullptr);
  Entry& e = pool_[*h];
  assert(e.master != master);
  order_of(e).erase(pool_, *h);
  e.master = master;
  order_of(e).insert(pool_, *h, e.age);
}

void NodeCache::promote_to_master(const BlockId& b) { set_master(b, true); }

void NodeCache::demote_to_copy(const BlockId& b) { set_master(b, false); }

}  // namespace coop::cache
