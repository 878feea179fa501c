// Per-node block cache: capacity accounting plus master/non-master LRU books.
//
// Masters and non-masters are kept in separate age-ordered lists, so either
// replacement policy finds its victim at a list front in O(1):
//  * CC-Basic needs the *globally* oldest local block = older of the two
//    fronts;
//  * CC-NEM needs the oldest non-master when one exists.
// A touch or a newest-age insert is O(1); an insert with an older age (an
// accepted forward, a promotion or a demotion) is O(log n) (see lru.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "cache/lru.hpp"
#include "cache/types.hpp"

namespace coop::cache {

class NodeCache {
 public:
  /// `capacity_bytes` is the memory this node devotes to the cache;
  /// `block_bytes` the fixed block size (memory is accounted in whole
  /// blocks). Entries normally occupy one block slot each; the whole-file
  /// adaptation (§6) caches a file as a single entry spanning several slots.
  NodeCache(std::uint64_t capacity_bytes, std::uint32_t block_bytes);

  [[nodiscard]] std::uint64_t capacity_blocks() const {
    return capacity_blocks_;
  }
  [[nodiscard]] std::uint64_t used_blocks() const { return used_slots_; }
  [[nodiscard]] std::size_t entry_count() const {
    return masters_.size() + copies_.size();
  }
  /// True when no further single-slot entry fits.
  [[nodiscard]] bool full() const { return used_slots_ >= capacity_blocks_; }
  /// True when an entry of `slots` does not fit.
  [[nodiscard]] bool lacks_room_for(std::uint32_t slots) const {
    return used_slots_ + slots > capacity_blocks_;
  }
  [[nodiscard]] bool empty() const { return entry_count() == 0; }
  /// Slot footprint of a cached entry.
  [[nodiscard]] std::uint32_t slots_of(const BlockId& b) const;
  [[nodiscard]] std::size_t master_count() const { return masters_.size(); }
  [[nodiscard]] std::size_t copy_count() const { return copies_.size(); }

  [[nodiscard]] bool contains(const BlockId& b) const {
    return masters_.contains(b) || copies_.contains(b);
  }
  [[nodiscard]] bool is_master(const BlockId& b) const {
    return masters_.contains(b);
  }

  /// Age of the oldest cached block (min over both lists); nullopt if empty.
  [[nodiscard]] std::optional<std::uint64_t> oldest_age() const;

  /// Oldest block overall; nullopt if empty.
  [[nodiscard]] std::optional<LruList::Entry> oldest() const;
  [[nodiscard]] bool oldest_is_master() const;

  /// Oldest non-master block; nullopt if the node holds only masters.
  [[nodiscard]] std::optional<LruList::Entry> oldest_copy() const;

  /// Inserts an entry of `slots` block slots with the given age.
  /// Precondition: not present and enough free slots (the replacement engine
  /// makes room first; entries larger than the whole capacity are admitted
  /// degenerately into an otherwise-empty cache).
  void insert(const BlockId& b, bool master, std::uint64_t age,
              std::uint32_t slots = 1);

  /// Refreshes a present block's age.
  void touch(const BlockId& b, std::uint64_t age);

  /// Removes a block; returns whether it was a master. Precondition: present.
  bool erase(const BlockId& b);

  /// Promotes a non-master copy to master (used by write-back/extension paths
  /// and the middleware when a master is re-homed). Precondition: present as
  /// a copy.
  void promote_to_master(const BlockId& b);

  /// Demotes a master to a non-master copy (the runtime undoing a promotion
  /// whose forwarded-master claim lost a race). Precondition: present as a
  /// master.
  void demote_to_copy(const BlockId& b);

  [[nodiscard]] const LruList& masters() const { return masters_; }
  [[nodiscard]] const LruList& copies() const { return copies_; }

 private:
  std::uint64_t capacity_blocks_;
  std::uint64_t used_slots_ = 0;
  LruList masters_;
  LruList copies_;
  /// Slot footprints for entries wider than one slot (absent => 1).
  std::unordered_map<BlockId, std::uint32_t, BlockIdHash> wide_entries_;
};

}  // namespace coop::cache
