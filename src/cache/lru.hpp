// Age-ordered LRU list keyed by BlockId.
//
// Ages are logical timestamps from a shared LogicalClock; the list is kept in
// ascending age order (front = oldest). Unlike a plain LRU, entries can be
// *placed with an old age* — a block forwarded between nodes keeps its age
// (§3). Two structures hold the entries:
//  * a recency list holds every entry placed with an age at least as young
//    as the list's youngest: a newest-age insert appends, and a touch relinks
//    the entry's node to the back (O(1), no allocation);
//  * an age-ordered set holds entries placed with an older age: accepted
//    forwards, promotions and demotions (O(log n)).
// Both order entries by (age, placement sequence), so an entry placed with an
// age equal to others' sorts after them. The oldest entry is the older of the
// two fronts, and iteration merges the two.
#pragma once

#include <cassert>
#include <cstdint>
#include <list>
#include <set>
#include <unordered_map>

#include "cache/types.hpp"

namespace coop::cache {

class LruList {
 public:
  struct Entry {
    BlockId block;
    std::uint64_t age;
  };

 private:
  /// An entry and its placement sequence number, which breaks age ties.
  struct Placed {
    Entry entry;
    std::uint64_t seq;

    friend bool operator<(const Placed& a, const Placed& b) {
      return a.entry.age != b.entry.age ? a.entry.age < b.entry.age
                                        : a.seq < b.seq;
    }
  };
  using List = std::list<Placed>;
  using Set = std::set<Placed>;

 public:
  /// Oldest-to-youngest iteration: a merge of the list and the set.
  class Iterator {
   public:
    const Entry& operator*() const {
      return from_list() ? list_->entry : set_->entry;
    }
    Iterator& operator++() {
      if (from_list()) {
        ++list_;
      } else {
        ++set_;
      }
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class LruList;
    Iterator(const List& l, List::const_iterator at_l, const Set& s,
             Set::const_iterator at_s)
        : list_(at_l), list_end_(l.end()), set_(at_s), set_end_(s.end()) {}

    [[nodiscard]] bool from_list() const {
      return list_ != list_end_ && (set_ == set_end_ || *list_ < *set_);
    }

    List::const_iterator list_, list_end_;
    Set::const_iterator set_, set_end_;
  };

  LruList() = default;
  // The index holds iterators into this object's structures; a copy's index
  // would point into the original's.
  LruList(const LruList&) = delete;
  LruList& operator=(const LruList&) = delete;
  LruList(LruList&&) = default;
  LruList& operator=(LruList&&) = default;

  [[nodiscard]] bool empty() const { return index_.empty(); }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool contains(const BlockId& b) const {
    return index_.count(b) > 0;
  }

  /// Oldest entry. Precondition: !empty().
  [[nodiscard]] const Entry& oldest() const {
    assert(!empty());
    return *begin();
  }

  /// Age of the oldest entry. Precondition: !empty().
  [[nodiscard]] std::uint64_t oldest_age() const { return oldest().age; }

  [[nodiscard]] std::uint64_t age_of(const BlockId& b) const {
    const auto it = index_.find(b);
    assert(it != index_.end());
    return placed(it->second).entry.age;
  }

  /// Inserts a block with the given age, after any entries of equal age. The
  /// block must not be present.
  void insert(const BlockId& b, std::uint64_t age);

  /// Updates a present block's age (typically to "now", moving it to MRU).
  /// An age older than the youngest entry's places the block by age.
  /// Precondition: `age` is not older than the block's current age.
  void touch(const BlockId& b, std::uint64_t age);

  /// Removes a block. Returns false if it was not present.
  bool erase(const BlockId& b);

  /// Removes and returns the oldest entry. Precondition: !empty().
  Entry pop_oldest();

  /// Iteration (oldest to youngest) for tests and invariant checks.
  [[nodiscard]] Iterator begin() const {
    return {recent_, recent_.begin(), aged_, aged_.begin()};
  }
  [[nodiscard]] Iterator end() const {
    return {recent_, recent_.end(), aged_, aged_.end()};
  }

 private:
  /// Where an entry lives: in the set when `aged`, else in the list.
  struct Slot {
    bool aged;
    List::iterator in_list;
    Set::iterator in_set;
  };

  static const Placed& placed(const Slot& s) {
    return s.aged ? *s.in_set : *s.in_list;
  }
  /// Links a new entry into the list if `age` is not older than the list's
  /// youngest, else into the set.
  Slot place(const BlockId& b, std::uint64_t age);
  void unlink(const Slot& s);

  List recent_;  // ascending (age, seq): front oldest, back youngest
  Set aged_;
  std::unordered_map<BlockId, Slot, BlockIdHash> index_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace coop::cache
