#include "net/fault.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace coop::net {

namespace {

/// SplitMix64 step: the schedule generator's only randomness source (drawn
/// once, up front — never at fire time, which would break replay).
std::uint64_t next_rand(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::optional<proto::MsgKind> kind_from_name(std::string_view name) {
  for (std::uint8_t k = 0; k < proto::kMsgKindCount; ++k) {
    const auto kind = static_cast<proto::MsgKind>(k);
    if (name == proto::kind_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* action_name(FaultAction action) {
  switch (action) {
    case FaultAction::kDrop:
      return "drop";
    case FaultAction::kDelay:
      return "delay";
    case FaultAction::kDuplicate:
      return "dup";
    case FaultAction::kReorder:
      return "reorder";
    case FaultAction::kCrash:
      return "crash";
  }
  return "unknown";
}

// ---- kinds the generated schedules are allowed to touch ----
//
// The bar (docs/FAULTS.md has the per-kind analysis): a dropped request is
// re-sent by call_all_with_retry, so the kind must tolerate at-least-once
// delivery; a dropped *reply* re-executes a request the peer already
// processed, so the kind must additionally be idempotent at the receiver.
// Kinds that are neither (dir-write-claim, dir-write-begin/end) are never
// generated — hand-written schedules may still target them to study the
// failure, but no invariant guarantee attaches. dir-batch-request is only a
// request-drop target: a dropped request was never applied, so its retry is
// the first delivery whatever ops the batch carries.

constexpr proto::MsgKind kDroppableRequests[] = {
    proto::MsgKind::kPeerFetch,       proto::MsgKind::kInvalidateBlock,
    proto::MsgKind::kInvalidateFile,  proto::MsgKind::kMasterForward,
    proto::MsgKind::kDirLookup,       proto::MsgKind::kStorageRead,
    proto::MsgKind::kStorageWrite,    proto::MsgKind::kDirBatchRequest,
};

constexpr proto::MsgKind kDuplicableRequests[] = {
    proto::MsgKind::kPeerFetch,       proto::MsgKind::kInvalidateBlock,
    proto::MsgKind::kInvalidateFile,  proto::MsgKind::kMasterForward,
    proto::MsgKind::kDirLookup,       proto::MsgKind::kStorageRead,
    proto::MsgKind::kStorageWrite,
};

constexpr proto::MsgKind kReplyDroppable[] = {
    proto::MsgKind::kPeerFetch,       proto::MsgKind::kDirLookup,
    proto::MsgKind::kStorageRead,     proto::MsgKind::kDirClaimForwarded,
};

constexpr proto::MsgKind kDelayable[] = {
    proto::MsgKind::kPeerFetch,       proto::MsgKind::kPeerFetchReply,
    proto::MsgKind::kInvalidateBlock, proto::MsgKind::kInvalidateFile,
    proto::MsgKind::kMasterForward,   proto::MsgKind::kMasterForwardAck,
    proto::MsgKind::kDirLookup,       proto::MsgKind::kDirReply,
    proto::MsgKind::kStorageRead,     proto::MsgKind::kStorageData,
    proto::MsgKind::kWriteOwnership,
};

template <std::size_t N>
proto::MsgKind pick(const proto::MsgKind (&kinds)[N], std::uint64_t& state) {
  return kinds[static_cast<std::size_t>(next_rand(state) % N)];
}

}  // namespace

FaultSchedule FaultSchedule::parse(std::string_view spec,
                                   std::uint64_t seed) {
  FaultSchedule schedule;
  schedule.seed = seed;
  std::string text(spec);
  std::istringstream rules_in(text);
  std::string rule_text;
  while (std::getline(rules_in, rule_text, ';')) {
    if (rule_text.empty()) continue;
    const auto colon = rule_text.find(':');
    const std::string action = rule_text.substr(0, colon);
    FaultRule rule;
    if (action == "drop") {
      rule.action = FaultAction::kDrop;
    } else if (action == "delay") {
      rule.action = FaultAction::kDelay;
    } else if (action == "dup" || action == "duplicate") {
      rule.action = FaultAction::kDuplicate;
    } else if (action == "reorder") {
      rule.action = FaultAction::kReorder;
    } else {
      throw std::invalid_argument("FaultSchedule: unknown action '" + action +
                                  "'");
    }
    if (colon != std::string::npos) {
      std::istringstream keys_in(rule_text.substr(colon + 1));
      std::string kv;
      while (std::getline(keys_in, kv, ',')) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) {
          throw std::invalid_argument("FaultSchedule: expected key=value in '" +
                                      kv + "'");
        }
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "kind") {
          const auto kind = kind_from_name(value);
          if (!kind) {
            throw std::invalid_argument("FaultSchedule: unknown kind '" +
                                        value + "'");
          }
          rule.kind = *kind;
        } else if (key == "from") {
          rule.from = static_cast<cache::NodeId>(std::stoul(value));
        } else if (key == "to") {
          rule.to = static_cast<cache::NodeId>(std::stoul(value));
        } else if (key == "reply") {
          rule.on_reply = value != "0";
        } else if (key == "start") {
          rule.start = std::stoull(value);
        } else if (key == "count") {
          rule.count = std::stoull(value);
        } else if (key == "every") {
          rule.every = std::stoull(value);
          if (rule.every == 0) {
            throw std::invalid_argument("FaultSchedule: every=0");
          }
        } else if (key == "ms") {
          rule.delay = std::chrono::milliseconds(std::stoll(value));
        } else {
          throw std::invalid_argument("FaultSchedule: unknown key '" + key +
                                      "'");
        }
      }
    }
    schedule.rules.push_back(rule);
  }
  return schedule;
}

FaultSchedule FaultSchedule::generated(std::uint64_t seed) {
  FaultSchedule schedule;
  schedule.seed = seed;
  std::uint64_t state = seed;
  const std::size_t n = 3 + static_cast<std::size_t>(next_rand(state) % 4);
  // At most one request-drop and one reply-drop rule per kind: stacked drop
  // windows on one kind could otherwise cover every retry attempt of a call
  // and surface a failure the sweep's invariants assume cannot happen.
  std::set<std::pair<bool, proto::MsgKind>> dropped;
  while (schedule.rules.size() < n) {
    FaultRule rule;
    switch (next_rand(state) % 4) {
      case 0:
        rule.action = FaultAction::kDrop;
        rule.kind = pick(kDroppableRequests, state);
        if (!dropped.emplace(false, *rule.kind).second) continue;
        break;
      case 1:
        rule.action = FaultAction::kDrop;
        rule.on_reply = true;
        rule.kind = pick(kReplyDroppable, state);
        if (!dropped.emplace(true, *rule.kind).second) continue;
        break;
      case 2:
        rule.action = FaultAction::kDelay;
        rule.kind = pick(kDelayable, state);
        rule.delay =
            std::chrono::milliseconds(1 + static_cast<std::int64_t>(
                                              next_rand(state) % 4));
        break;
      default:
        rule.action = FaultAction::kDuplicate;
        rule.kind = pick(kDuplicableRequests, state);
        break;
    }
    rule.start = next_rand(state) % 20;
    rule.every = 3 + 2 * (next_rand(state) % 6);  // 3,5,...,13
    rule.count = 5 + next_rand(state) % 60;
    schedule.rules.push_back(rule);
  }
  return schedule;
}

std::string FaultSchedule::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& rule = rules[i];
    if (i > 0) out << ';';
    out << action_name(rule.action) << ':';
    bool first = true;
    const auto key = [&](const std::string& k, const std::string& v) {
      if (!first) out << ',';
      first = false;
      out << k << '=' << v;
    };
    if (rule.kind) key("kind", proto::kind_name(*rule.kind));
    if (rule.from) key("from", std::to_string(*rule.from));
    if (rule.to) key("to", std::to_string(*rule.to));
    if (rule.on_reply) key("reply", "1");
    if (rule.start != 0) key("start", std::to_string(rule.start));
    if (rule.count != ~0ull) key("count", std::to_string(rule.count));
    if (rule.every != 1) key("every", std::to_string(rule.every));
    if (rule.action == FaultAction::kDelay) {
      key("ms", std::to_string(rule.delay.count()));
    }
  }
  return out.str();
}

std::string event_line(const FaultEvent& event) {
  std::ostringstream out;
  out << '#' << event.index << ' ' << action_name(event.action)
      << " kind=" << proto::kind_name(event.kind)
      << " reply=" << (event.on_reply ? 1 : 0) << " from=" << event.from
      << " to=" << event.to << " rule=";
  if (event.rule == FaultEvent::kNoRule) {
    out << '-';
  } else {
    out << event.rule;
  }
  out << " occ=" << event.occurrence;
  return out.str();
}

FaultyTransport::FaultyTransport(std::shared_ptr<Transport> inner,
                                 FaultSchedule schedule)
    : inner_(std::move(inner)), schedule_(std::move(schedule)) {
  matches_.assign(schedule_.rules.size(), 0);
  fired_.assign(schedule_.rules.size(), 0);
}

void FaultyTransport::log_event(FaultAction action,
                                const proto::Message& msg, bool on_reply,
                                std::size_t rule, std::uint64_t occurrence) {
  FaultEvent event;
  event.index = events_.size();
  event.action = action;
  event.kind = msg.kind;
  event.on_reply = on_reply;
  event.from = msg.from;
  event.to = msg.to;
  event.rule = rule;
  event.occurrence = occurrence;
  events_.push_back(event);
}

FaultyTransport::Decision FaultyTransport::decide(const proto::Message& msg,
                                                  Phase phase) {
  Decision decision;
  const bool reply_phase = phase == Phase::kCallReply;
  for (std::size_t i = 0; i < schedule_.rules.size(); ++i) {
    const FaultRule& rule = schedule_.rules[i];
    if (rule.on_reply != reply_phase) continue;
    if (phase == Phase::kCallRequest &&
        rule.action == FaultAction::kReorder) {
      continue;  // a blocked caller cannot be overtaken; nothing to reorder
    }
    if (rule.kind && *rule.kind != msg.kind) continue;
    if (rule.from && *rule.from != msg.from) continue;
    if (rule.to && *rule.to != msg.to) continue;
    const std::uint64_t occurrence = matches_[i]++;
    if (decision.fired) continue;  // first firing rule wins; counters still
                                   // advance for the rest
    if (occurrence < rule.start) continue;
    if ((occurrence - rule.start) % rule.every != 0) continue;
    if (fired_[i] >= rule.count) continue;
    ++fired_[i];
    decision.fired = true;
    decision.action = rule.action;
    decision.delay = rule.delay;
    switch (rule.action) {
      case FaultAction::kDrop:
        ++injected_.injected_drops;
        break;
      case FaultAction::kDelay:
        ++injected_.injected_delays;
        break;
      case FaultAction::kDuplicate:
        ++injected_.injected_duplicates;
        break;
      case FaultAction::kReorder:
        ++injected_.injected_reorders;
        break;
      case FaultAction::kCrash:
        break;  // unreachable: parse/generated never emit kCrash rules
    }
    log_event(rule.action, msg, reply_phase, i, occurrence);
  }
  return decision;
}

Envelope FaultyTransport::call_impl(Envelope env) {
  Decision request_decision;
  {
    util::ScopedLock lock(mu_);
    if (crashed_.contains(env.msg.to) || crashed_.contains(env.msg.from)) {
      ++injected_.injected_drops;
      log_event(FaultAction::kCrash, env.msg, false, FaultEvent::kNoRule, 0);
      throw TransportError(
          TransportError::Kind::kPeerDown,
          "node " + std::to_string(env.msg.to) + " is crashed");
    }
    request_decision = decide(env.msg, Phase::kCallRequest);
  }
  const proto::Message request = env.msg;
  if (request_decision.fired) {
    switch (request_decision.action) {
      case FaultAction::kDrop:
        // Lost before it ever reached the peer: safe to retry blindly.
        throw TransportError(
            TransportError::Kind::kInjected,
            std::string("injected drop of ") + proto::kind_name(request.kind));
      case FaultAction::kDelay:
        std::this_thread::sleep_for(request_decision.delay);
        break;
      case FaultAction::kDuplicate: {
        // Sequential double delivery: the peer processes the request twice,
        // the caller sees only the second answer. Keeping the copies
        // serialized (instead of firing one async) is what keeps the event
        // log replayable under a single-driver workload.
        Envelope copy = env;
        (void)inner_->call(std::move(copy));
        break;
      }
      case FaultAction::kReorder:
      case FaultAction::kCrash:
        break;  // filtered out in decide()
    }
  }
  Envelope reply = inner_->call(std::move(env));
  Decision reply_decision;
  {
    util::ScopedLock lock(mu_);
    reply_decision = decide(request, Phase::kCallReply);
  }
  if (reply_decision.fired) {
    switch (reply_decision.action) {
      case FaultAction::kDrop:
        // The peer DID process the request — this models a lost answer, the
        // at-least-once case the idempotency fixes exist for.
        throw TransportError(TransportError::Kind::kInjected,
                             std::string("injected loss of reply to ") +
                                 proto::kind_name(request.kind));
      case FaultAction::kDelay:
        std::this_thread::sleep_for(reply_decision.delay);
        break;
      case FaultAction::kDuplicate:
      case FaultAction::kReorder:
      case FaultAction::kCrash:
        break;  // meaningless for a correlated reply; never generated
    }
  }
  return reply;
}

bool FaultyTransport::post(Envelope env) {
  Decision decision;
  std::optional<Envelope> release;
  {
    util::ScopedLock lock(mu_);
    if (crashed_.contains(env.msg.from) || crashed_.contains(env.msg.to)) {
      ++injected_.injected_drops;
      log_event(FaultAction::kCrash, env.msg, false, FaultEvent::kNoRule, 0);
      return true;  // blackholed, as if the wire to a dead box ate it
    }
    decision = decide(env.msg, Phase::kPost);
    if (decision.fired && decision.action == FaultAction::kReorder) {
      if (!parked_.has_value()) {
        parked_ = std::move(env);
        return true;  // held back; released behind the next post
      }
      decision.fired = false;  // park slot busy: pass through unperturbed
    }
    if (parked_.has_value()) {
      release = std::move(*parked_);
      parked_.reset();
    }
  }
  bool ok = true;
  if (decision.fired && decision.action == FaultAction::kDrop) {
    // swallowed — "true" because the sender has no reason to know
  } else {
    if (decision.fired && decision.action == FaultAction::kDelay) {
      std::this_thread::sleep_for(decision.delay);
    }
    if (decision.fired && decision.action == FaultAction::kDuplicate) {
      Envelope copy = env;
      (void)inner_->post(std::move(copy));
    }
    ok = inner_->post(std::move(env));
  }
  if (release.has_value()) (void)inner_->post(std::move(*release));
  return ok;
}

std::optional<Envelope> FaultyTransport::receive(cache::NodeId node) {
  return inner_->receive(node);
}

void FaultyTransport::close() {
  std::optional<Envelope> release;
  {
    util::ScopedLock lock(mu_);
    if (parked_.has_value()) {
      release = std::move(*parked_);
      parked_.reset();
    }
  }
  if (release.has_value()) (void)inner_->post(std::move(*release));
  inner_->close();
}

TransportStats FaultyTransport::stats() const {
  TransportStats stats = inner_->stats();
  util::ScopedLock lock(mu_);
  stats.injected_drops += injected_.injected_drops;
  stats.injected_delays += injected_.injected_delays;
  stats.injected_duplicates += injected_.injected_duplicates;
  stats.injected_reorders += injected_.injected_reorders;
  return stats;
}

std::uint64_t FaultyTransport::peer_oldest_age(cache::NodeId n) const {
  return inner_->peer_oldest_age(n);
}

bool FaultyTransport::peer_full(cache::NodeId n) const {
  return inner_->peer_full(n);
}

void FaultyTransport::crash_node(cache::NodeId n) {
  util::ScopedLock lock(mu_);
  crashed_.insert(n);
}

void FaultyTransport::revive_node(cache::NodeId n) {
  util::ScopedLock lock(mu_);
  crashed_.erase(n);
}

bool FaultyTransport::crashed(cache::NodeId n) const {
  util::ScopedLock lock(mu_);
  return crashed_.contains(n);
}

std::vector<FaultEvent> FaultyTransport::events() const {
  util::ScopedLock lock(mu_);
  return events_;
}

bool FaultyTransport::dump_events(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const FaultEvent& event : events()) {
    out << event_line(event) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace coop::net
