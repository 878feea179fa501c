// Per-node block cache: capacity accounting plus master/non-master LRU books.
//
// Every cached entry lives in one pool, a vector reused through a free list,
// and one BlockTable maps each cached block to its entry's handle. An entry
// holds its block, its age, its master flag and its slot footprint, plus the
// links of the LruList it is in, so contains, is_master, slots_of, touch and
// erase each cost one probe.
//
// Masters and non-masters are kept in separate age orders, so either
// replacement policy finds its victim at a list front in O(1):
//  * CC-Basic needs the *globally* oldest local block = older of the two
//    fronts;
//  * CC-NEM needs the oldest non-master when one exists.
// A touch or a newest-age insert is O(1); an insert with an older age (an
// accepted forward, a promotion or a demotion) is O(log n) (see lru.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/block_table.hpp"
#include "cache/lru.hpp"
#include "cache/types.hpp"

namespace coop::cache {

class NodeCache {
 public:
  /// One cached entry. The fields after `master` belong to the LruList the
  /// entry is linked into; `next` also chains the pool's free entries.
  struct Entry {
    BlockId block;
    std::uint64_t age = 0;
    std::uint32_t slots = 1;
    bool master = false;
    bool aged = false;
    Handle prev = kNoHandle;
    Handle next = kNoHandle;
    std::uint64_t seq = 0;
    AgedSet::const_iterator in_set{};
  };
  using Order = LruList<Entry>;

  /// `capacity_bytes` is the memory this node devotes to the cache;
  /// `block_bytes` the fixed block size (memory is accounted in whole
  /// blocks). Entries normally occupy one block slot each; the whole-file
  /// adaptation (§6) caches a file as a single entry spanning several slots.
  NodeCache(std::uint64_t capacity_bytes, std::uint32_t block_bytes);

  [[nodiscard]] std::uint64_t capacity_blocks() const {
    return capacity_blocks_;
  }
  [[nodiscard]] std::uint64_t used_blocks() const { return used_slots_; }
  [[nodiscard]] std::size_t entry_count() const { return index_.size(); }
  /// True when no further single-slot entry fits.
  [[nodiscard]] bool full() const { return used_slots_ >= capacity_blocks_; }
  /// True when an entry of `slots` does not fit.
  [[nodiscard]] bool lacks_room_for(std::uint32_t slots) const {
    return used_slots_ + slots > capacity_blocks_;
  }
  [[nodiscard]] bool empty() const { return entry_count() == 0; }
  [[nodiscard]] std::size_t master_count() const { return masters_.size(); }
  [[nodiscard]] std::size_t copy_count() const { return copies_.size(); }

  [[nodiscard]] bool contains(const BlockId& b) const {
    return index_.contains(b);
  }
  [[nodiscard]] bool is_master(const BlockId& b) const {
    const Handle* h = index_.find(b);
    return h != nullptr && pool_[*h].master;
  }
  /// Slot footprint of a cached entry. Precondition: present.
  [[nodiscard]] std::uint32_t slots_of(const BlockId& b) const {
    return entry(b).slots;
  }
  /// Age of a cached entry. Precondition: present.
  [[nodiscard]] std::uint64_t age_of(const BlockId& b) const {
    return entry(b).age;
  }

  /// Age of the oldest cached block (min over both lists); nullopt if empty.
  [[nodiscard]] std::optional<std::uint64_t> oldest_age() const;

  /// Oldest entry overall (a master on an age tie); nullopt if empty.
  [[nodiscard]] std::optional<Entry> oldest() const;

  /// Oldest non-master entry; nullopt if the node holds only masters.
  [[nodiscard]] std::optional<Entry> oldest_copy() const;

  /// Inserts an entry of `slots` block slots with the given age.
  /// Precondition: not present and enough free slots (the replacement engine
  /// makes room first; entries larger than the whole capacity are admitted
  /// degenerately into an otherwise-empty cache).
  void insert(const BlockId& b, bool master, std::uint64_t age,
              std::uint32_t slots = 1);

  /// Refreshes a present block's age.
  void touch(const BlockId& b, std::uint64_t age);

  /// Removes a block; returns whether it was a master. Precondition: present
  /// (an absent block is left alone and reported as a non-master).
  bool erase(const BlockId& b);

  /// Promotes a non-master copy to master (used by write-back/extension paths
  /// and the middleware when a master is re-homed). Precondition: present as
  /// a copy.
  void promote_to_master(const BlockId& b);

  /// Demotes a master to a non-master copy (the runtime undoing a promotion
  /// whose forwarded-master claim lost a race). Precondition: present as a
  /// master.
  void demote_to_copy(const BlockId& b);

  /// Oldest-to-youngest iteration over either kind of entry.
  [[nodiscard]] Order::Range masters() const { return masters_.in(pool_); }
  [[nodiscard]] Order::Range copies() const { return copies_.in(pool_); }

 private:
  friend struct NodeCacheTestPeer;  // test-only inspection and corruption

  [[nodiscard]] const Entry& entry(const BlockId& b) const;
  /// Oldest entry overall, or nullptr; valid until the next change.
  [[nodiscard]] const Entry* oldest_entry() const;
  Order& order_of(const Entry& e) { return e.master ? masters_ : copies_; }
  /// Moves a present entry between the two orders, keeping its age.
  void set_master(const BlockId& b, bool master);

  std::uint64_t capacity_blocks_;
  std::uint64_t used_slots_ = 0;
  std::vector<Entry> pool_;
  Handle free_ = kNoHandle;  // head of the free entries, chained by `next`
  BlockTable<Handle> index_;
  Order masters_;
  Order copies_;
};

}  // namespace coop::cache
