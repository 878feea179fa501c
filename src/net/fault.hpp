// Deterministic fault injection at the transport seam.
//
// FaultyTransport decorates any Transport and perturbs the traffic that
// crosses it under a seeded FaultSchedule: drop, delay, duplicate, or
// reorder specific message kinds, fail calls into crashed nodes, or
// blackhole a peer for a window (a partition is just a windowed drop rule
// with a from/to filter and no kind filter — see docs/FAULTS.md).
//
// Determinism contract: a rule fires purely off counters — the Nth message
// matching its static filter, never wall-clock time or randomness at fire
// time. Run the same single-driver workload twice under the same schedule
// and the injected-event log is byte-identical (the CI fault sweep asserts
// exactly this). Seeded *generation* (FaultSchedule::generated) draws the
// rules pseudo-randomly once, up front, from kinds whose loss or duplication
// the recovery paths provably absorb, so every generated seed must leave the
// cluster's CCM_AUDIT invariants green.
//
// Injection happens on the send side only (post() and both phases of
// call()); receive() passes through untouched, so a wrapped transport keeps
// the inner delivery semantics for whatever survives the schedule. A round
// (call_all) keeps the base class's default: its calls go through
// call_impl one at a time, in round order, so the log stays replayable.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.hpp"
#include "proto/message.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::net {

enum class FaultAction : std::uint8_t {
  kDrop,       // swallow the message (request: fail the call pre-send)
  kDelay,      // hold the message inline for delay_ms
  kDuplicate,  // deliver twice (calls: two sequential round trips)
  kReorder,    // park the message; release it behind the next post
  kCrash,      // never in a rule: marks crash-swallowed traffic in the log
};

/// One match-and-perturb rule. Filters are conjunctive; an unset optional
/// matches anything. Occurrences count messages matching the *filter* (not
/// firings): the rule fires on occurrences o with o >= start and
/// (o - start) % every == 0, at most `count` times total.
struct FaultRule {
  FaultAction action = FaultAction::kDrop;
  std::optional<proto::MsgKind> kind;  // matched against the request kind
  std::optional<cache::NodeId> from;
  std::optional<cache::NodeId> to;
  /// False: perturb the outbound message. True (call() only): let the
  /// request execute, then perturb its *reply* — models a lost/slow answer
  /// to a request the peer did process (the at-least-once case).
  bool on_reply = false;
  std::uint64_t start = 0;
  std::uint64_t count = ~0ull;
  std::uint64_t every = 1;
  std::chrono::milliseconds delay{2};  // kDelay hold time
};

/// A seed plus the rule list it produced (or that was parsed explicitly).
struct FaultSchedule {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  /// Parses the compact spec format, e.g.
  ///   "drop:kind=peer-fetch,every=7;delay:kind=dir-reply,ms=5,every=13"
  /// Rules are ';'-separated, each "action:key=val,...". Keys: kind (a
  /// proto::kind_name token), from, to, reply (0/1), start, count, every,
  /// ms. Throws std::invalid_argument on malformed input.
  static FaultSchedule parse(std::string_view spec, std::uint64_t seed = 0);

  /// Draws 3..6 rules pseudo-randomly from `seed`, restricted to message
  /// kinds and windows the recovery machinery is guaranteed to absorb
  /// (every >= 3 keeps consecutive retry attempts from both being dropped;
  /// non-idempotent kinds like dir-write-claim are never touched).
  static FaultSchedule generated(std::uint64_t seed);

  /// Round-trips through parse() (modulo seed).
  [[nodiscard]] std::string to_string() const;
};

/// One injected perturbation, in global injection order.
struct FaultEvent {
  std::uint64_t index = 0;  // ordinal in the event log
  FaultAction action = FaultAction::kDrop;
  proto::MsgKind kind = proto::MsgKind::kPeerFetch;  // request kind
  bool on_reply = false;
  cache::NodeId from = cache::kInvalidNode;
  cache::NodeId to = cache::kInvalidNode;
  std::size_t rule = kNoRule;        // index into the schedule's rules
  std::uint64_t occurrence = 0;      // the rule's match counter at fire time

  static constexpr std::size_t kNoRule = ~std::size_t{0};  // crash swallows
};

/// Stable one-line rendering (what dump_events writes, one per event).
std::string event_line(const FaultEvent& event);

class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::shared_ptr<Transport> inner, FaultSchedule schedule);

  bool post(Envelope env) override;
  std::optional<Envelope> receive(cache::NodeId node) override;
  void close() override;
  [[nodiscard]] TransportStats stats() const override;
  [[nodiscard]] std::uint64_t peer_oldest_age(cache::NodeId n) const override;
  [[nodiscard]] bool peer_full(cache::NodeId n) const override;

  /// Simulates the death of node `n` at this boundary: posts touching it
  /// are swallowed (logged as kCrash events) and calls into it fail with
  /// TransportError::kPeerDown until revive_node(). The caller owns wiping
  /// the node's cluster-side state (CcmCluster::crash_node).
  void crash_node(cache::NodeId n);
  void revive_node(cache::NodeId n);
  [[nodiscard]] bool crashed(cache::NodeId n) const;

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  [[nodiscard]] std::vector<FaultEvent> events() const;
  /// Writes event_line() per injected event; false if the file won't open.
  bool dump_events(const std::string& path) const;

 protected:
  Envelope call_impl(Envelope env) override;

 private:
  enum class Phase : std::uint8_t { kPost, kCallRequest, kCallReply };

  struct Decision {
    FaultAction action = FaultAction::kDrop;
    std::chrono::milliseconds delay{0};
    bool fired = false;
  };

  /// Matches `msg` (request kind `kind` when perturbing a reply) against
  /// the schedule, advances rule counters, and logs the event if one fires.
  Decision decide(const proto::Message& msg, Phase phase) REQUIRES(mu_);
  void log_event(FaultAction action, const proto::Message& msg,
                 bool on_reply, std::size_t rule,
                 std::uint64_t occurrence) REQUIRES(mu_);

  std::shared_ptr<Transport> inner_;
  const FaultSchedule schedule_;

  mutable util::Mutex mu_{"net.fault.state"};
  std::vector<std::uint64_t> matches_ GUARDED_BY(mu_);  // per-rule
  std::vector<std::uint64_t> fired_ GUARDED_BY(mu_);    // per-rule
  std::set<cache::NodeId> crashed_ GUARDED_BY(mu_);
  std::optional<Envelope> parked_ GUARDED_BY(mu_);  // kReorder hold slot
  std::vector<FaultEvent> events_ GUARDED_BY(mu_);
  TransportStats injected_ GUARDED_BY(mu_);  // only the injected_* fields
};

}  // namespace coop::net
