#include "util/lockcheck.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/audit.hpp"

namespace coop::util::lockcheck {
namespace {

// The audited build watches by default; everyone else opts in (benches take
// --lockcheck, tests call set_enabled).
std::atomic<bool> g_enabled{CCM_AUDIT_ENABLED != 0};

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;  // index == LockId
  // from -> to -> sample context of the thread that first recorded the edge.
  std::map<LockId, std::map<LockId, std::string>> edges;
  std::uint64_t cycles = 0;
  std::string last_cycle;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::vector<LockId>& held_stack() {
  thread_local std::vector<LockId> held;
  return held;
}

// All helpers below run with registry().mu held by the caller.

std::string name_locked(const Registry& r, LockId id) {
  if (id < r.names.size()) return r.names[id];
  return "lock#" + std::to_string(id);
}

std::string held_names_locked(const Registry& r,
                              const std::vector<LockId>& held) {
  std::string out = "[";
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (i != 0) out += ", ";
    out += name_locked(r, held[i]);
  }
  out += "]";
  return out;
}

// DFS from `cur` looking for `target`; fills `path` with the node sequence
// cur..target (inclusive) when found.
bool find_path_locked(const Registry& r, LockId cur, LockId target,
                      std::set<LockId>& seen, std::vector<LockId>& path) {
  path.push_back(cur);
  if (cur == target) return true;
  const auto eit = r.edges.find(cur);
  if (eit != r.edges.end()) {
    for (const auto& [next, sample] : eit->second) {
      (void)sample;
      if (!seen.insert(next).second) continue;
      if (find_path_locked(r, next, target, seen, path)) return true;
    }
  }
  path.pop_back();
  return false;
}

// Formats the cycle from -> path[0] -> ... -> path.back() (== from), one
// line per edge with the recorded holder context.
std::string format_cycle_locked(const Registry& r, LockId from,
                                const std::vector<LockId>& path) {
  std::ostringstream os;
  os << "lock-order cycle: " << name_locked(r, from);
  for (const LockId n : path) os << " -> " << name_locked(r, n);
  LockId prev = from;
  for (const LockId n : path) {
    os << "\n  edge " << name_locked(r, prev) << " -> " << name_locked(r, n);
    const auto eit = r.edges.find(prev);
    if (eit != r.edges.end()) {
      const auto sit = eit->second.find(n);
      if (sit != eit->second.end()) os << ": " << sit->second;
    }
    prev = n;
  }
  return os.str();
}

// Gray-stack DFS over the whole graph; fills `cycle` with the node sequence
// of one cycle (cycle[0] -> ... -> cycle.back() -> cycle[0]) when found.
enum class Color : std::uint8_t { kWhite, kGray, kBlack };

bool full_scan_locked(const Registry& r, std::map<LockId, Color>& color,
                      std::vector<LockId>& stack, std::vector<LockId>& cycle,
                      LockId node) {
  color[node] = Color::kGray;
  stack.push_back(node);
  const auto eit = r.edges.find(node);
  if (eit != r.edges.end()) {
    for (const auto& [next, sample] : eit->second) {
      (void)sample;
      const auto cit = color.find(next);
      const Color c = cit == color.end() ? Color::kWhite : cit->second;
      if (c == Color::kGray) {
        const auto sit = std::find(stack.begin(), stack.end(), next);
        cycle.assign(sit, stack.end());
        return true;
      }
      if (c == Color::kWhite &&
          full_scan_locked(r, color, stack, cycle, next)) {
        return true;
      }
    }
  }
  stack.pop_back();
  color[node] = Color::kBlack;
  return false;
}

}  // namespace

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

LockId register_lock(std::string name) {
  auto& r = registry();
  std::scoped_lock lock(r.mu);
  r.names.push_back(std::move(name));
  return static_cast<LockId>(r.names.size() - 1);
}

std::string lock_name(LockId id) {
  auto& r = registry();
  std::scoped_lock lock(r.mu);
  return name_locked(r, id);
}

void note_acquire(LockId id) {
  if (!enabled()) return;
  const auto& held = held_stack();
  if (held.empty()) return;
  // Reports are gathered under the registry mutex and emitted after it is
  // released: the audit handler may abort, record, or take its own locks.
  std::vector<std::string> reports;
  {
    auto& r = registry();
    std::scoped_lock lock(r.mu);
    for (const LockId from : held) {
      auto& out = r.edges[from];
      if (out.find(id) != out.end()) continue;  // known edge, checked once
      std::ostringstream sample;
      sample << "thread " << std::this_thread::get_id() << " acquiring "
             << name_locked(r, id) << " while holding "
             << held_names_locked(r, held);
      out.emplace(id, sample.str());
      // The new edge from -> id closes a cycle iff id already reaches from
      // (id == from is the degenerate same-thread relock).
      std::set<LockId> seen{id};
      std::vector<LockId> path;
      if (find_path_locked(r, id, from, seen, path)) {
        ++r.cycles;
        r.last_cycle = format_cycle_locked(r, from, path);
        reports.push_back(r.last_cycle);
      }
    }
  }
  for (auto& dump : reports) {
    coop::audit::report("lock-order-acyclic", std::move(dump));
  }
}

void note_acquired(LockId id) {
  if (!enabled()) return;
  held_stack().push_back(id);
}

void note_release(LockId id) {
  if (!enabled()) return;
  auto& held = held_stack();
  const auto it = std::find(held.rbegin(), held.rend(), id);
  if (it != held.rend()) held.erase(std::next(it).base());
}

std::size_t held_count() { return held_stack().size(); }

std::size_t audit(const char* context) {
  std::size_t ccm_audit_failures = 0;
  std::string dump;
  {
    auto& r = registry();
    std::scoped_lock lock(r.mu);
    std::map<LockId, Color> color;
    std::vector<LockId> stack;
    std::vector<LockId> cycle;
    for (const auto& [node, out] : r.edges) {
      (void)out;
      const auto cit = color.find(node);
      if (cit != color.end() && cit->second != Color::kWhite) continue;
      if (full_scan_locked(r, color, stack, cycle, node)) break;
    }
    if (!cycle.empty()) {
      std::vector<LockId> path(cycle.begin() + 1, cycle.end());
      path.push_back(cycle.front());
      dump = format_cycle_locked(r, cycle.front(), path);
      ++r.cycles;
      r.last_cycle = dump;
    }
  }
  CCM_AUDIT(dump.empty(), "lock-order-acyclic",
            dump + " [" + context + "]");
  return ccm_audit_failures;
}

std::uint64_t cycles_detected() {
  auto& r = registry();
  std::scoped_lock lock(r.mu);
  return r.cycles;
}

std::string last_cycle() {
  auto& r = registry();
  std::scoped_lock lock(r.mu);
  return r.last_cycle;
}

void reset() {
  auto& r = registry();
  {
    std::scoped_lock lock(r.mu);
    r.edges.clear();
    r.cycles = 0;
    r.last_cycle.clear();
  }
  held_stack().clear();
}

}  // namespace coop::util::lockcheck
