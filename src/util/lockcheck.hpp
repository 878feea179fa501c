// lockcheck — a runtime lock-order watchdog.
//
// Every coop::util::Mutex / CountingMutex registers itself here under a
// stable name ("ccm.shard[2]", "proto.directory", "net.tcp.send[1]", ...)
// and reports its acquisitions and releases. The watchdog maintains, per
// thread, the stack of locks currently held, and globally, the acquisition-
// order graph: an edge A -> B is recorded the first time any thread attempts
// a *blocking* acquire of B while holding A. Successful try_lock()s enter
// the held set (they order later acquires) but add no edges, because a
// try_lock cannot deadlock.
//
// A cycle in that graph is a potential deadlock even if the run never hangs:
// two threads took the same pair of locks in opposite orders and only
// scheduling luck kept them alive. Cycles are detected at edge-insertion
// time and by the audit() sweep; both report through coop::audit under the
// stable invariant id "lock-order-acyclic", with a dump naming each edge in
// the cycle and the held-lock stack of the thread that created it (see
// docs/STATIC_ANALYSIS.md "Concurrency discipline" for how to read one).
//
// Cost model: disabled (the default) every hook is one relaxed atomic load.
// Enabled, every blocking acquire takes one global registry mutex — fine for
// the audited build and the CI watchdog runs, not for benchmarking. The
// audited build (-DCOOPCACHE_AUDIT=ON) enables the watchdog at startup;
// ccm_stress / ccm_node take --lockcheck to opt in explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace coop::util::lockcheck {

using LockId = std::uint32_t;

/// Turns the watchdog on or off at runtime (relaxed atomic; the switch is
/// advisory — acquisitions already in flight may be missed around a toggle,
/// and note_release tolerates releases of locks it never saw acquired).
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Registers a lock under a stable display name and returns its id. Called
/// once per mutex from the wrapper constructors; cheap, always active so a
/// mid-run set_enabled(true) still knows every lock's name.
LockId register_lock(std::string name);

/// The display name `id` was registered under.
[[nodiscard]] std::string lock_name(LockId id);

/// Hook: the calling thread is about to *block* acquiring `id`. Records
/// held -> id edges and reports a "lock-order-acyclic" violation if any new
/// edge closes a cycle (each distinct edge is checked once, on insertion).
void note_acquire(LockId id);

/// Hook: the calling thread now holds `id` (blocking acquire completed or
/// try_lock succeeded). Pushes onto the thread's held stack.
void note_acquired(LockId id);

/// Hook: the calling thread released `id`.
void note_release(LockId id);

/// Number of registered locks the calling thread holds, as tracked while
/// the watchdog is enabled (0 on a thread that took none since enabling).
/// The in-process transport's direct path checks it: a caller holding any
/// lock across a direct call reports "direct-call-unlocked".
[[nodiscard]] std::size_t held_count();

/// Audit entry point (always compiled, like the other audit() sweeps):
/// checks the whole recorded graph for cycles and reports each under
/// "lock-order-acyclic". Returns the number of violations.
std::size_t audit(const char* context);

/// Number of cycle reports since the last reset() (edge-insertion detections
/// and audit() sweeps both count).
[[nodiscard]] std::uint64_t cycles_detected();

/// The most recent cycle dump, empty if none. For tests and bench reports.
[[nodiscard]] std::string last_cycle();

/// Drops the recorded graph, the cycle counter, and the calling thread's
/// held stack (registrations and names survive). Test isolation only.
void reset();

}  // namespace coop::util::lockcheck
