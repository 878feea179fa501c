// Flat hash table keyed by BlockId.
//
// Open addressing on the packed key block_key(b) = (file << 32) | index: a
// Fibonacci multiply picks a key's home slot, a collision probes the next
// slot (linear probing), and an erase shifts the rest of its probe run back
// instead of leaving a tombstone. The slot array is a power of two kept at
// most half full, so probe runs stay short, and values live inline in the
// slots: a probe follows no pointer and an entry needs no heap node.
//
// Iteration walks the slot array, so its order follows the keys' hashes and
// the table's history, as a std::unordered_map's does; ccm-lint's
// unordered-iter rule treats the two alike. BlockId{0xFFFFFFFF, 0xFFFFFFFF}
// marks an empty slot: it is never found and must not be inserted.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/types.hpp"

namespace coop::cache {

template <class V>
class BlockTable {
 public:
  struct Slot {
    BlockId block;
    V value;
  };

  /// Visits the occupied slots in array order.
  class Iterator {
   public:
    const Slot& operator*() const { return *at_; }
    const Slot* operator->() const { return at_; }
    Iterator& operator++() {
      ++at_;
      skip_empty();
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class BlockTable;
    Iterator(const Slot* at, const Slot* end) : at_(at), end_(end) {
      skip_empty();
    }
    void skip_empty() {
      while (at_ != end_ && is_empty(*at_)) ++at_;
    }
    const Slot* at_;
    const Slot* end_;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The value stored for `b`, or nullptr.
  [[nodiscard]] V* find(const BlockId& b) {
    if (size_ == 0) return nullptr;
    Slot& s = slots_[locate(block_key(b))];
    return is_empty(s) ? nullptr : &s.value;
  }
  [[nodiscard]] const V* find(const BlockId& b) const {
    return const_cast<BlockTable*>(this)->find(b);
  }
  [[nodiscard]] bool contains(const BlockId& b) const {
    return find(b) != nullptr;
  }

  /// Stores `value` for `b` unless `b` is present. Returns the stored value
  /// and whether it was inserted.
  std::pair<V*, bool> try_emplace(const BlockId& b, V value = V{}) {
    const std::uint64_t key = block_key(b);
    assert(key != kEmptyKey);
    std::size_t i = 0;
    if (!slots_.empty()) {
      i = locate(key);
      if (!is_empty(slots_[i])) return {&slots_[i].value, false};
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = locate(key);
    }
    slots_[i] = Slot{b, std::move(value)};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value stored for `b`, default-inserted if absent.
  V& operator[](const BlockId& b) { return *try_emplace(b).first; }

  /// Removes `b`; returns whether it was present.
  bool erase(const BlockId& b) { return take(b).has_value(); }

  /// Removes `b` and returns its value; nullopt if absent.
  std::optional<V> take(const BlockId& b) {
    if (size_ == 0) return std::nullopt;
    std::size_t i = locate(block_key(b));
    if (is_empty(slots_[i])) return std::nullopt;
    std::optional<V> out(std::move(slots_[i].value));
    // Backward-shift deletion: walk the rest of the probe run and move each
    // entry whose home lies at or before the hole into it.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (i + 1) & mask; !is_empty(slots_[j]);
         j = (j + 1) & mask) {
      const std::size_t home_j = home(block_key(slots_[j].block));
      if (((j - home_j) & mask) >= ((j - i) & mask)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{kEmptyBlock, V{}};
    --size_;
    return out;
  }

  /// Empties the table; the slot array keeps its size.
  void clear() {
    for (Slot& s : slots_) s = Slot{kEmptyBlock, V{}};
    size_ = 0;
  }

  [[nodiscard]] Iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  [[nodiscard]] Iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  friend struct BlockTableTestPeer;

  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr BlockId kEmptyBlock{0xFFFFFFFFu, 0xFFFFFFFFu};
  static constexpr std::size_t kMinSlots = 16;

  static bool is_empty(const Slot& s) {
    return block_key(s.block) == kEmptyKey;
  }

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Slot holding `key`, or the empty slot that ends its probe run.
  /// Precondition: the slot array is allocated.
  [[nodiscard]] std::size_t locate(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      const std::uint64_t at = block_key(slots_[i].block);
      if (at == key || at == kEmptyKey) return i;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(n, Slot{kEmptyBlock, V{}});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (Slot& s : old) {
      if (!is_empty(s)) slots_[locate(block_key(s.block))] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace coop::cache
