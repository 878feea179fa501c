// Age-ordered LRU over entries of a caller's pool.
//
// Ages are logical timestamps from a shared LogicalClock; the order is
// ascending (front = oldest). Unlike a plain LRU, entries can be *placed
// with an old age* — a block forwarded between nodes keeps its age (§3). Two
// structures hold the entries:
//  * a recency list, linked through the entries' own `prev`/`next` handles,
//    holds every entry placed with an age at least as young as the list's
//    youngest: a newest-age insert appends, and a touch relinks the entry to
//    the back (O(1), no allocation);
//  * an age-ordered set holds entries placed with an older age: accepted
//    forwards, promotions and demotions (O(log n)).
// Both order entries by (age, placement sequence), so an entry placed with an
// age equal to others' sorts after them. The oldest entry is the older of the
// two fronts, and iteration merges the two.
//
// The list owns no entries and keeps no index. NodeCache keeps each entry in
// a pool, a vector addressed by u32 handles, finds a block's handle with one
// probe of its BlockTable, and passes the pool to every call here.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace coop::cache {

/// Position of an entry in its pool; kNoHandle links nothing.
using Handle = std::uint32_t;
inline constexpr Handle kNoHandle = ~Handle{0};

/// An entry placed with an older age, as the ordered set holds it.
struct AgedKey {
  std::uint64_t age;
  std::uint64_t seq;
  Handle handle;

  friend bool operator<(const AgedKey& a, const AgedKey& b) {
    return a.age != b.age ? a.age < b.age : a.seq < b.seq;
  }
};
using AgedSet = std::set<AgedKey>;

/// `Node` keeps the list's per-entry state as public members:
/// `std::uint64_t age, seq; Handle prev, next; bool aged;` and
/// `AgedSet::const_iterator in_set`.
template <class Node>
class LruList {
 public:
  using Pool = std::vector<Node>;

  /// Oldest-to-youngest iteration: a merge of the list and the set.
  class Iterator {
   public:
    const Node& operator*() const { return (*pool_)[current()]; }
    const Node* operator->() const { return &**this; }
    Iterator& operator++() {
      if (from_list()) {
        listed_ = (*pool_)[listed_].next;
      } else {
        ++aged_;
      }
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class LruList;
    Iterator(const Pool& pool, Handle listed, AgedSet::const_iterator aged,
             AgedSet::const_iterator aged_end)
        : pool_(&pool), listed_(listed), aged_(aged), aged_end_(aged_end) {}

    [[nodiscard]] bool from_list() const {
      return listed_ != kNoHandle &&
             (aged_ == aged_end_ || before((*pool_)[listed_], *aged_));
    }
    [[nodiscard]] Handle current() const {
      return from_list() ? listed_ : aged_->handle;
    }

    const Pool* pool_;
    Handle listed_;
    AgedSet::const_iterator aged_, aged_end_;
  };

  /// The entries of one list, oldest first, read through their pool.
  class Range {
   public:
    [[nodiscard]] Iterator begin() const {
      return {*pool_, list_->head_, list_->aged_.begin(), list_->aged_.end()};
    }
    [[nodiscard]] Iterator end() const {
      return {*pool_, kNoHandle, list_->aged_.end(), list_->aged_.end()};
    }

   private:
    friend class LruList;
    Range(const LruList& list, const Pool& pool) : list_(&list), pool_(&pool) {}
    const LruList* list_;
    const Pool* pool_;
  };

  LruList() = default;
  // Entries hold iterators into this list's set; a copy's entries would
  // point into the original's.
  LruList(const LruList&) = delete;
  LruList& operator=(const LruList&) = delete;
  LruList(LruList&&) = default;
  LruList& operator=(LruList&&) = default;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Handle of the oldest entry. Precondition: !empty().
  [[nodiscard]] Handle oldest(const Pool& pool) const {
    assert(!empty());
    if (aged_.empty()) return head_;
    if (head_ == kNoHandle || !before(pool[head_], *aged_.begin())) {
      return aged_.begin()->handle;
    }
    return head_;
  }

  /// Links `pool[h]` with the given age, after any entries of equal age.
  void insert(Pool& pool, Handle h, std::uint64_t age) {
    Node& n = pool[h];
    n.age = age;
    n.seq = next_seq_++;
    ++size_;
    if (tail_ == kNoHandle || age >= pool[tail_].age) {
      n.aged = false;
      append(pool, h);
    } else {
      n.aged = true;
      n.in_set = aged_.insert(AgedKey{age, n.seq, h}).first;
    }
  }

  /// Updates a linked entry's age (typically to "now", moving it to MRU).
  /// An age older than the youngest listed entry's places it by age.
  /// Precondition: `age` is not older than the entry's current age.
  void touch(Pool& pool, Handle h, std::uint64_t age) {
    Node& n = pool[h];
    assert(age >= n.age);
    if (!n.aged && age >= pool[tail_].age) {
      // The common case, a newest age: relink the entry to the back.
      unlink(pool, h);
      append(pool, h);
      n.age = age;
      n.seq = next_seq_++;
      return;
    }
    erase(pool, h);
    insert(pool, h, age);
  }

  /// Unlinks `pool[h]`. Precondition: linked here.
  void erase(Pool& pool, Handle h) {
    Node& n = pool[h];
    --size_;
    if (n.aged) {
      aged_.erase(n.in_set);
    } else {
      unlink(pool, h);
    }
  }

  [[nodiscard]] Range in(const Pool& pool) const { return {*this, pool}; }

 private:
  static bool before(const Node& listed, const AgedKey& aged) {
    return listed.age != aged.age ? listed.age < aged.age
                                  : listed.seq < aged.seq;
  }

  void append(Pool& pool, Handle h) {
    Node& n = pool[h];
    n.prev = tail_;
    n.next = kNoHandle;
    if (tail_ == kNoHandle) {
      head_ = h;
    } else {
      pool[tail_].next = h;
    }
    tail_ = h;
  }

  void unlink(Pool& pool, Handle h) {
    const Node& n = pool[h];
    if (n.prev == kNoHandle) {
      head_ = n.next;
    } else {
      pool[n.prev].next = n.next;
    }
    if (n.next == kNoHandle) {
      tail_ = n.prev;
    } else {
      pool[n.next].prev = n.prev;
    }
  }

  Handle head_ = kNoHandle;  // oldest listed entry
  Handle tail_ = kNoHandle;  // youngest listed entry
  AgedSet aged_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace coop::cache
