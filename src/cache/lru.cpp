#include "cache/lru.hpp"

namespace coop::cache {

LruList::Slot LruList::place(const BlockId& b, std::uint64_t age) {
  const Placed p{Entry{b, age}, next_seq_++};
  if (recent_.empty() || age >= recent_.back().entry.age) {
    return Slot{false, recent_.insert(recent_.end(), p), {}};
  }
  return Slot{true, {}, aged_.insert(p).first};
}

void LruList::unlink(const Slot& s) {
  if (s.aged) {
    aged_.erase(s.in_set);
  } else {
    recent_.erase(s.in_list);
  }
}

void LruList::insert(const BlockId& b, std::uint64_t age) {
  assert(!contains(b));
  index_.emplace(b, place(b, age));
}

void LruList::touch(const BlockId& b, std::uint64_t age) {
  const auto it = index_.find(b);
  assert(it != index_.end());
  Slot& slot = it->second;
  assert(age >= placed(slot).entry.age);
  if (!slot.aged && age >= recent_.back().entry.age) {
    // The common case, a newest age: relink the node to the back.
    recent_.splice(recent_.end(), recent_, slot.in_list);
    slot.in_list->entry.age = age;
    slot.in_list->seq = next_seq_++;
    return;
  }
  unlink(slot);
  slot = place(b, age);
}

bool LruList::erase(const BlockId& b) {
  const auto it = index_.find(b);
  if (it == index_.end()) return false;
  unlink(it->second);
  index_.erase(it);
  return true;
}

LruList::Entry LruList::pop_oldest() {
  const Entry e = oldest();
  erase(e.block);
  return e;
}

}  // namespace coop::cache
