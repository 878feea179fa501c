#include "ccm/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "net/frame.hpp"
#include "util/audit.hpp"
#include "util/mutex.hpp"

namespace coop::ccm {

namespace {

cache::CoopCacheConfig to_cache_config(const CcmConfig& c) {
  cache::CoopCacheConfig cc;
  cc.nodes = c.nodes;
  cc.capacity_bytes = c.capacity_bytes;
  cc.block_bytes = c.block_bytes;
  cc.policy = c.policy;
  cc.directory = c.directory;
  return cc;
}

/// Bounded directory-race retries before falling back to an uncached read.
constexpr int kAcquireAttempts = 64;

/// Holds one of a node's workers_per_node operation slots for its scope.
class OpSlot {
 public:
  explicit OpSlot(std::counting_semaphore<>& slots) : slots_(slots) {
    slots_.acquire();
  }
  ~OpSlot() { slots_.release(); }
  OpSlot(const OpSlot&) = delete;
  OpSlot& operator=(const OpSlot&) = delete;

 private:
  std::counting_semaphore<>& slots_;
};

/// RAII root span for one client operation: mints a fresh trace id, makes it
/// the thread's ambient context (rpc() stamps it into outgoing messages),
/// and records the op slice on destruction. No-op while tracing is off.
class OpSpan {
 public:
  OpSpan(obs::RuntimeSpanLog& log, std::uint16_t node, const char* name)
      : log_(log) {
    if (!log_.enabled()) return;
    active_ = true;
    name_ = name;
    node_ = node;
    auto& ctx = obs::tls_trace_context();
    saved_ = ctx;
    ctx.trace = log_.next_id();
    ctx.span = log_.next_id();
    trace_ = ctx.trace;
    span_ = ctx.span;
    start_ = obs::runtime_wall_ns();
  }
  ~OpSpan() {
    if (!active_) return;
    log_.record({trace_, span_, 0, start_, obs::runtime_wall_ns(), node_,
                 obs::kLaneOp, name_});
    obs::tls_trace_context() = saved_;
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  obs::RuntimeSpanLog& log_;
  bool active_ = false;
  obs::TraceContext saved_{};
  std::uint64_t trace_ = 0, span_ = 0, start_ = 0;
  std::uint16_t node_ = 0;
  const char* name_ = "";
};

/// RAII handler span, on a protocol thread or the caller's: adopts the
/// incoming message's trace identity so the slice joins the sender's trace
/// (its parent is the sender's rpc-client span, which draws the
/// cross-process flow arrow), and restores the thread's own on exit.
class HandlerSpan {
 public:
  HandlerSpan(obs::RuntimeSpanLog& log, std::uint16_t node,
              const proto::Message& msg)
      : log_(log) {
    if (!log_.enabled() || msg.trace == 0) return;
    active_ = true;
    node_ = node;
    name_ = proto::kind_name(msg.kind);
    trace_ = msg.trace;
    parent_ = msg.span;
    span_ = log_.next_id();
    auto& ctx = obs::tls_trace_context();
    saved_ = ctx;
    ctx.trace = trace_;
    ctx.span = span_;
    start_ = obs::runtime_wall_ns();
  }
  ~HandlerSpan() {
    if (!active_) return;
    log_.record({trace_, span_, parent_, start_, obs::runtime_wall_ns(),
                 node_, obs::kLaneHandler, name_});
    obs::tls_trace_context() = saved_;
  }
  HandlerSpan(const HandlerSpan&) = delete;
  HandlerSpan& operator=(const HandlerSpan&) = delete;

 private:
  obs::RuntimeSpanLog& log_;
  bool active_ = false;
  obs::TraceContext saved_{};
  std::uint64_t trace_ = 0, span_ = 0, parent_ = 0, start_ = 0;
  std::uint16_t node_ = 0;
  const char* name_ = "";
};

/// Storage for one rpc_all() round of `n` calls: inline for a round of one,
/// the common case of a read's fetches, so it allocates no more than rpc(),
/// and nothing at all for an empty round.
class Round {
 public:
  explicit Round(std::size_t n) {
    if (n == 1) {
      one_.emplace();
    } else {
      many_.resize(n);
    }
  }
  [[nodiscard]] std::span<net::RoundCall> calls() {
    return one_ ? std::span(&*one_, 1) : std::span(many_);
  }

 private:
  std::optional<net::RoundCall> one_;
  std::vector<net::RoundCall> many_;
};

}  // namespace

CcmCluster::CcmCluster(const CcmConfig& config,
                       std::shared_ptr<Storage> storage)
    : CcmCluster(config, std::move(storage), CcmHosting{}) {}

CcmCluster::CcmCluster(const CcmConfig& config,
                       std::shared_ptr<Storage> storage, CcmHosting hosting)
    : config_(config), storage_(std::move(storage)) {
  if (!storage_) throw std::invalid_argument("CcmCluster: null storage");
  if (config_.nodes == 0) throw std::invalid_argument("CcmCluster: 0 nodes");
  if (config_.workers_per_node == 0 ||
      config_.workers_per_node >
          static_cast<std::size_t>(std::counting_semaphore<>::max())) {
    throw std::invalid_argument("CcmCluster: workers_per_node out of range");
  }
  writable_ = dynamic_cast<WritableStorage*>(storage_.get());

  transport_ = hosting.transport
                   ? std::move(hosting.transport)
                   : std::make_shared<net::InProcTransport>(config_.nodes);
  dir_ = hosting.directory
             ? std::move(hosting.directory)
             : std::make_shared<LocalDirectory>(
                   config_.nodes, config_.directory,
                   cache::CoopCacheConfig{}.hint_staleness);
  home_dir_ = dir_->service();
  home_ = hosting.home;

  local_nodes_ = std::move(hosting.local_nodes);
  if (local_nodes_.empty()) {
    for (std::size_t n = 0; n < config_.nodes; ++n) {
      local_nodes_.push_back(static_cast<cache::NodeId>(n));
    }
  }
  std::sort(local_nodes_.begin(), local_nodes_.end());
  local_nodes_.erase(std::unique(local_nodes_.begin(), local_nodes_.end()),
                     local_nodes_.end());
  for (const cache::NodeId n : local_nodes_) {
    if (n >= config_.nodes) {
      throw std::invalid_argument("CcmCluster: local node out of range");
    }
  }
  all_local_ = local_nodes_.size() == config_.nodes;

  // Telemetry identity + the transport seam: call() records per-kind RPC
  // samples into this process's registry (outermost transport only — a
  // FaultyTransport decorator passed in via hosting is the recording layer,
  // its inner transport stays silent).
  metrics_.set_host(local_nodes_.front());
  transport_->set_metrics(&metrics_);

  const cache::CoopCacheConfig cc = to_cache_config(config_);
  shards_.resize(config_.nodes);
  for (const cache::NodeId n : local_nodes_) {
    shards_[n] = std::make_unique<Shard>(n, cc, config_.workers_per_node);
  }
  // Every hosted node is bound before the constructor returns, so before any
  // caller can send it a request. A transport that accepts runs the node's
  // handler on each caller's thread; only a node whose transport declined
  // gets a protocol thread.
  for (const cache::NodeId n : local_nodes_) {
    if (!transport_->serve_direct(
            n, [this, n](net::Envelope& env) { return serve(n, env); })) {
      protocol_threads_.emplace_back([this, n] { protocol_loop(n); });
    }
  }
}

CcmCluster::~CcmCluster() {
  // Closing the transport ends the protocol loops and fails any later
  // direct call.
  transport_->close();
  for (auto& t : protocol_threads_) t.join();
}

CcmCluster::Shard& CcmCluster::shard_at(cache::NodeId via) const {
  if (via >= config_.nodes) throw std::out_of_range("bad node id");
  if (!shards_[via]) {
    throw std::invalid_argument("CcmCluster: node " + std::to_string(via) +
                                " is hosted by another process");
  }
  return *shards_[via];
}

net::Envelope CcmCluster::serve(cache::NodeId node, net::Envelope& env) {
  HandlerSpan span(span_log_, node, env.msg);
  Reply reply = handle_message(node, env);
  net::Envelope out;
  out.msg = reply.msg;
  out.seq = env.seq;  // correlates with the caller blocked in call()
  out.payloads = std::move(reply.payloads);
  return out;
}

void CcmCluster::protocol_loop(cache::NodeId node) {
  while (auto env = transport_->receive(node)) {
    net::Envelope out = serve(node, *env);
    if (env->seq == 0) continue;  // one-way: nobody waits for the answer
    transport_->post(std::move(out));
  }
}

CcmCluster::Reply CcmCluster::rpc(const proto::Message& msg, BlockPtr data,
                                  std::uint64_t epoch) {
  net::RoundCall call;
  call.request.msg = msg;
  call.request.epoch = epoch;
  if (data) call.request.payloads.push_back(std::move(data));
  rpc_all({&call, 1});
  if (call.error) throw *call.error;
  return {call.reply.msg, std::move(call.reply.payloads)};
}

void CcmCluster::rpc_all(std::span<net::RoundCall> calls) {
  // Runtime tracing: stamp the ambient trace identity and a client span of
  // its own into each wire message (the remote handler adopts it), and time
  // each call from the start of the round to its reply, so the slices of
  // one round overlap. Stamps are zero — and skipped entirely — when
  // tracing is off, so deterministic runs carry a byte-stable protocol.
  std::uint64_t wall0 = 0;
  std::uint64_t t0 = 0;
  if (span_log_.enabled()) {
    auto& ctx = obs::tls_trace_context();
    if (ctx.trace == 0) ctx.trace = span_log_.next_id();  // orphan RPC
    for (net::RoundCall& c : calls) {
      c.request.msg.trace = ctx.trace;
      c.request.msg.span = span_log_.next_id();
    }
    wall0 = obs::runtime_wall_ns();
    t0 = obs::runtime_now_ns();
  }
  // Bounded retry with backoff: no RPC may hang forever on a lossy link or a
  // dead peer. A request that exhausts its retries keeps its
  // net::TransportError; each call site absorbs the failure according to
  // the protocol's idempotency rules (see docs/FAULTS.md).
  net::call_all_with_retry(*transport_, calls);
  if (wall0 == 0) return;
  for (const net::RoundCall& c : calls) {
    const proto::Message& msg = c.request.msg;
    span_log_.record({msg.trace, msg.span, obs::tls_trace_context().span,
                      wall0, wall0 + (c.done_ns - t0), msg.from,
                      obs::kLaneRpcClient,
                      c.error ? "rpc-error" : proto::kind_name(msg.kind)});
  }
}

std::future<std::vector<std::byte>> CcmCluster::read_async(
    cache::NodeId via, cache::FileId file) {
  shard_at(via);
  if (file >= storage_->file_count()) throw std::out_of_range("bad file id");
  return std::async(std::launch::async,
                    [this, via, file] { return read(via, file); });
}

std::vector<std::byte> CcmCluster::read(cache::NodeId via,
                                        cache::FileId file) {
  shard_at(via);
  if (file >= storage_->file_count()) throw std::out_of_range("bad file id");
  return read_range(via, file, 0, storage_->file_size(file));
}

std::vector<std::byte> CcmCluster::read_range(cache::NodeId via,
                                              cache::FileId file,
                                              std::uint64_t offset,
                                              std::uint64_t length) {
  Shard& sh = shard_at(via);
  if (file >= storage_->file_count()) throw std::out_of_range("bad file id");
  if (offset + length > storage_->file_size(file)) {
    throw std::out_of_range("range beyond end of file");
  }
  const OpSlot slot(sh.admission);
  return execute_read(via, file, offset, length);
}

void CcmCluster::write(cache::NodeId via, cache::FileId file,
                       std::uint64_t offset, std::span<const std::byte> data) {
  Shard& sh = shard_at(via);
  if (file >= storage_->file_count()) throw std::out_of_range("bad file id");
  if (offset + data.size() > storage_->file_size(file)) {
    throw std::out_of_range("write beyond end of file");
  }
  if (writable_ == nullptr) {
    throw std::logic_error("CcmCluster::write requires a WritableStorage");
  }
  const OpSlot slot(sh.admission);
  execute_write(via, file, offset, data);
}

// ----------------------------------------------------------- protocol ----

CcmCluster::Reply CcmCluster::handle_message(cache::NodeId self,
                                             net::Envelope& env) {
  Shard& sh = *shards_[self];
  const proto::Message& msg = env.msg;

  switch (msg.kind) {
    case proto::MsgKind::kPeerFetch: {
      // One shard-lock hold serves the whole set: every block that is a
      // ready master here is touched and ships, in ascending index order;
      // every other block misses.
      const std::uint64_t want = msg.fetch_mask();
      std::uint64_t hits = 0;
      std::uint64_t bytes = 0;
      std::vector<BlockPtr> payloads;
      payloads.reserve(static_cast<std::size_t>(std::popcount(want)));
      const std::uint64_t lw0 = obs::runtime_now_ns();
      util::UniqueLock lock(sh.mu);
      metrics_.record_lock_wait(obs::runtime_now_ns() - lw0);
      for (std::uint32_t i = 0; i < proto::kFetchSetSpan; ++i) {
        const std::uint64_t bit = std::uint64_t{1} << i;
        if ((want & bit) == 0) continue;
        const cache::BlockId block{msg.block.file, msg.block.index + i};
        if (block.index < msg.block.index) break;  // past the last index
        if (!sh.state.is_master(block)) continue;  // not (or no longer) ours
        const BlockPtr* data = sh.store.find(block);
        assert(data != nullptr);
        // Only promise bytes that exist: a master still being faulted in
        // must not leave this node as a reply payload. A framed transport
        // would hold the reply until the producer finishes — and the
        // producer may itself be blocked on a fetch from the requester's
        // node, deadlocking both. A miss sends the requester back to the
        // directory; by its next attempt the fill has finished.
        if (!(*data)->is_ready()) continue;
        sh.state.touch(block, tick());
        hits |= bit;
        bytes += (*data)->bytes.size();
        payloads.push_back(*data);
      }
      if (hits != 0) {
        sh.state.publish();
        CCM_AUDIT_HOOK(audit_shard_locked(sh, self, "peer_fetch"));
      }
      return {proto::Message::peer_fetch_reply(self, msg.from, msg.block,
                                               hits, bytes),
              std::move(payloads)};
    }

    case proto::MsgKind::kMasterForward: {
      util::UniqueLock lock(sh.mu);
      // The forward keeps the sender's age (§3); merging it first keeps
      // every age this shard holds at or below this process's clock.
      merge_clock(msg.age);
      const proto::PendingForward pf{msg.block, msg.age, msg.count};
      std::vector<cache::Drop> drops;
      const auto outcome = sh.state.handle_forward(pf, drops);
      bool accepted = false;
      bool promoted = false;
      if (outcome == proto::ForwardOutcome::kPromoted) {
        if (dir_->claim_forwarded(msg.block, self, msg.from, env.epoch)) {
          accepted = promoted = true;
          // Promotion: this node's copy already shares the master's bytes.
          sh.store.try_emplace(msg.block, env.payload());
        } else {
          sh.state.demote_to_copy(msg.block);
        }
      } else if (outcome == proto::ForwardOutcome::kAccepted) {
        if (dir_->claim_forwarded(msg.block, self, msg.from, env.epoch)) {
          accepted = true;
          sh.store[msg.block] = env.payload();
        } else {
          // A rival claim or an invalidation won; undo the insert.
          sh.state.erase_entry(msg.block);
        }
      }
      std::vector<cache::BlockId> dropped;
      for (const auto& d : drops) {
        sh.store.erase(d.block);
        if (d.was_master) dropped.push_back(d.block);
      }
      drop_masters(self, dropped);
      sh.state.publish();
      CCM_AUDIT_HOOK(audit_shard_locked(sh, self, "master_forward"));
      return {proto::Message::forward_ack(self, msg.from, msg.block, accepted,
                                          promoted),
              {}};
    }

    case proto::MsgKind::kInvalidateBlock: {
      hint_clear(msg.block);
      util::UniqueLock lock(sh.mu);
      if (const auto drop = sh.state.handle_invalidate(
              msg.block, msg.has(proto::kFlagDropMaster))) {
        sh.store.erase(drop->block);
        if (drop->was_master) dir_->master_dropped(drop->block, self);
      }
      sh.state.publish();
      CCM_AUDIT_HOOK(audit_shard_locked(sh, self, "invalidate_block"));
      return {proto::Message::invalidate_ack(self, msg.from), {}};
    }

    case proto::MsgKind::kInvalidateFile: {
      hint_clear_file(msg.block.file);
      util::UniqueLock lock(sh.mu);
      std::vector<cache::BlockId> dropped;
      for (std::uint32_t b = 0; b < msg.count; ++b) {
        const cache::BlockId block{msg.block.file, b};
        if (const auto drop =
                sh.state.handle_invalidate(block, /*drop_master=*/true)) {
          sh.store.erase(drop->block);
          if (drop->was_master) dropped.push_back(drop->block);
        }
      }
      drop_masters(self, dropped);
      sh.state.publish();
      CCM_AUDIT_HOOK(audit_shard_locked(sh, self, "invalidate_file"));
      return {proto::Message::invalidate_ack(self, msg.from), {}};
    }

    case proto::MsgKind::kWriteOwnership: {
      util::UniqueLock lock(sh.mu);
      if (sh.state.relinquish_master(msg.block)) {
        auto taken = sh.store.take(msg.block);
        assert(taken.has_value());
        BlockPtr data = std::move(*taken);
        sh.state.publish();
        CCM_AUDIT_HOOK(audit_shard_locked(sh, self, "write_ownership"));
        // Same rule as kPeerFetch: never ship a buffer whose producer has
        // not finished filling it (a framed transport would sit on the
        // reply until it does). The master is relinquished either way; the
        // writer's read-modify-write base falls back to post-write-through
        // storage, which is documented idempotent.
        if (data->is_ready()) {
          return {proto::Message::write_ownership_reply(
                      self, msg.from, msg.block, /*transferred=*/true,
                      config_.block_bytes),
                  {std::move(data)}};
        }
        return {proto::Message::write_ownership_reply(
                    self, msg.from, msg.block, /*transferred=*/false, 0),
                {}};
      }
      // Already evicted / forwarded away; the writer faults in from storage.
      return {proto::Message::write_ownership_reply(self, msg.from, msg.block,
                                                    /*transferred=*/false, 0),
              {}};
    }

    // --- home-process services (remote directory / storage / barrier) ---

    case proto::MsgKind::kDirBatchRequest: {
      assert(home_dir_ != nullptr && self == home_);
      const BlockPtr request = env.payload();
      assert(request != nullptr);
      request->wait_ready();  // ready on arrival (decoded frame / in-proc)
      std::vector<proto::DirBatchResult> results;
      if (const auto req = proto::decode_dir_batch_request(request->bytes)) {
        home_dir_->apply_batch(req->node, req->items, results);
      }
      // A malformed request answers with zero results; the client sees the
      // count mismatch and fails the call.
      auto payload = proto::encode_dir_batch_reply(results);
      const auto bytes = static_cast<std::uint64_t>(payload.size());
      return {proto::Message::dir_batch_reply(
                  self, msg.from, static_cast<std::uint32_t>(results.size()),
                  bytes),
              {net::make_ready_block(std::move(payload))}};
    }

    case proto::MsgKind::kDirLookup:
    case proto::MsgKind::kDirBeginForward:
    case proto::MsgKind::kDirClaimForwarded:
    case proto::MsgKind::kDirForwardRejected:
    case proto::MsgKind::kDirWriteClaim:
    case proto::MsgKind::kDirWriteBegin:
    case proto::MsgKind::kDirWriteEnd:
    case proto::MsgKind::kDirInvalidateFile:
    case proto::MsgKind::kDirPurgeNode:
      return handle_directory(self, msg);

    case proto::MsgKind::kStorageRead: {
      assert(self == home_);
      auto data = std::make_shared<BlockData>();
      data->bytes.resize(msg.bytes);
      storage_->read(msg.block.file, msg.age, data->bytes);
      data->ready = true;
      return {proto::Message::storage_data(self, msg.from, msg.block.file,
                                           msg.bytes),
              {std::move(data)}};
    }

    case proto::MsgKind::kStorageWrite: {
      assert(self == home_);
      if (writable_ == nullptr) {
        throw std::logic_error("kStorageWrite against a read-only storage");
      }
      const BlockPtr data = env.payload();
      assert(data != nullptr);
      data->wait_ready();
      writable_->write(msg.block.file, msg.age, data->bytes);
      return {proto::Message::storage_ack(self, msg.from, msg.block.file),
              {}};
    }

    case proto::MsgKind::kBarrier: {
      assert(self == home_);
      util::ScopedLock lock(barrier_mu_);
      auto& arrived = barrier_arrivals_[msg.count];
      arrived.insert(msg.from);
      const bool granted = arrived.size() >= config_.nodes;
      return {proto::Message::barrier_reply(self, msg.from, msg.count,
                                            granted),
              {}};
    }

    case proto::MsgKind::kStatsPull: {
      // Telemetry scrape: ship this *process's* metrics snapshot (the
      // registry is shared by every node hosted here; the scraper dedupes
      // by the snapshot's host id).
      metrics_.incr(obs::RtCounter::kStatsScrape);
      auto wire = metrics_.snapshot().encode();
      const auto size = static_cast<std::uint64_t>(wire.size());
      return {proto::Message::stats_reply(self, msg.from, size),
              {net::make_ready_block(std::move(wire))}};
    }

    default:
      // Reply kinds are routed to call() waiters by the transport; anything
      // else here is a protocol error.
      assert(false && "unexpected message kind at a node handler");
      return {proto::Message::invalidate_ack(self, msg.from), {}};
  }
}

CcmCluster::Reply CcmCluster::handle_directory(cache::NodeId self,
                                               const proto::Message& msg) {
  assert(home_dir_ != nullptr && self == home_);
  proto::DirectoryService& d = *home_dir_;
  const cache::NodeId to = msg.from;
  switch (msg.kind) {
    case proto::MsgKind::kDirLookup:
      return {proto::Message::dir_reply(self, to, msg.block,
                                        d.lookup(msg.block), 0, false, false),
              {}};
    case proto::MsgKind::kDirBeginForward: {
      const auto epoch = d.begin_forward(msg.block, msg.from);
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode,
                                        epoch.value_or(0), epoch.has_value(),
                                        false),
              {}};
    }
    case proto::MsgKind::kDirClaimForwarded: {
      const bool granted = d.claim_forwarded(
          msg.block, msg.from, static_cast<cache::NodeId>(msg.count),
          msg.age);
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode, 0, granted,
                                        false),
              {}};
    }
    case proto::MsgKind::kDirForwardRejected:
      d.forward_rejected(msg.block, msg.from);
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode, 0, true, false),
              {}};
    case proto::MsgKind::kDirWriteClaim:
      return {proto::Message::dir_reply(self, to, msg.block,
                                        d.write_claim(msg.block, msg.from), 0,
                                        true, false),
              {}};
    case proto::MsgKind::kDirWriteBegin:
      d.write_begin(msg.block.file);
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode, 0, true, false),
              {}};
    case proto::MsgKind::kDirWriteEnd:
      d.write_end(msg.block.file);
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode, 0, true, false),
              {}};
    case proto::MsgKind::kDirInvalidateFile:
      d.invalidate_file(msg.block.file);
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode, 0, true, false),
              {}};
    case proto::MsgKind::kDirPurgeNode: {
      // `count` names the dead node; the purged-master count rides back in
      // the reply's epoch slot. Idempotent: a re-ask purges nothing more.
      const std::size_t purged =
          d.purge_node(static_cast<cache::NodeId>(msg.count));
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode, purged, true,
                                        false),
              {}};
    }
    default:
      assert(false && "not a directory request");
      return {proto::Message::dir_reply(self, to, msg.block,
                                        cache::kInvalidNode, 0, false, false),
              {}};
  }
}

// --------------------------------------------------------- replacement ----

void CcmCluster::drop_masters(cache::NodeId node,
                              const std::vector<cache::BlockId>& dropped) {
  if (dropped.empty()) return;
  if (dropped.size() == 1) {
    dir_->master_dropped(dropped.front(), node);
    return;
  }
  std::vector<proto::DirBatchItem> items;
  items.reserve(dropped.size());
  for (const cache::BlockId& b : dropped) {
    items.push_back({proto::DirBatchOp::kMasterDropped, b});
  }
  dir_->batch(node, items);
}

void CcmCluster::make_room_locked(util::UniqueLock<util::CountingMutex>& lock,
                                  cache::NodeId node, std::uint32_t slots) {
  Shard& sh = *shards_[node];
  assert(lock.owns_lock());
  while (true) {
    std::vector<cache::Drop> drops;
    auto pf = sh.state.make_room(slots, view_, drops);
    std::vector<cache::BlockId> dropped;
    for (const auto& d : drops) {
      sh.store.erase(d.block);
      if (d.was_master) dropped.push_back(d.block);
    }
    drop_masters(node, dropped);
    sh.state.publish();
    if (!pf) return;  // enough room (or the cache drained)

    // A master earned its second chance: ship it to a peer. The entry is
    // already erased locally; unregister it in the directory first so no
    // reader chases a block that is in flight.
    auto taken = sh.store.take(pf->block);
    assert(taken.has_value());
    BlockPtr data = std::move(*taken);
    const cache::NodeId to =
        proto::pick_forward_target(node, config_.nodes, view_);
    if (to == cache::kInvalidNode || !data->is_ready()) {
      // Nowhere to forward (a single-node cluster), or bytes still being
      // filled: no node sends bytes that are not ready, and the filler may
      // be this very caller, so waiting could only time out. The master is
      // lost; the conditional master_dropped unregisters it only if the
      // directory still names this node.
      dir_->master_dropped(pf->block, node);
      ++sh.state.stats().master_drops;
      continue;
    }
    const auto epoch = dir_->begin_forward(pf->block, node);
    if (!epoch) {
      // The directory refused: either a write claim overtook this eviction
      // (the registered master lives at the writer now) or a write to the
      // file is mid-span and these bytes may be superseded. Shipping them
      // would resurrect stale data, so the master is dropped instead. The
      // conditional master_dropped unregisters only if the directory still
      // names this node (the in-flight-write case); when a rival owns the
      // entry it is a no-op.
      dir_->master_dropped(pf->block, node);
      ++sh.state.stats().master_drops;
      continue;
    }
    lock.unlock();
    bool accepted = false;
    try {
      const Reply ack =
          rpc(proto::Message::master_forward(node, to, pf->block, pf->age,
                                             pf->slots, config_.block_bytes),
              std::move(data), *epoch);
      accepted = ack.msg.has(proto::kFlagAccepted);
    } catch (const net::TransportError&) {
      // The receiver is dead or the link ate every retry. Either the forward
      // never landed (the block is simply lost — safe, it has a disk copy) or
      // it landed and only the ack was lost, in which case forward_rejected
      // below merely skews stats: the receiver's registered claim stays.
    }
    lock.lock();
    if (accepted) {
      metrics_.incr(obs::RtCounter::kMasterForward);
    } else {
      dir_->forward_rejected(pf->block, node);
      ++sh.state.stats().master_drops;
    }
  }
}

// ---------------------------------------------------------- hint slots ----

namespace {
/// Hint values pack the epoch into 48 bits (see HintSlot); comparisons
/// against an authoritative epoch mask both sides.
constexpr std::uint64_t kHintEpochMask = (1ull << 48) - 1;
}  // namespace

std::optional<CcmCluster::Hint> CcmCluster::hint_probe(
    const cache::BlockId& b) const {
  const HintSlot& slot = hints_[hint_index(b)];
  const std::uint64_t key = cache::block_key(b) + 1;
  if (slot.key.load(std::memory_order_relaxed) != key) return std::nullopt;
  const std::uint64_t val = slot.val.load(std::memory_order_relaxed);
  // key/val are independent atomics: this pair may be torn against a
  // concurrent publish. A wrong candidate is safe — the fetch misses or the
  // batched validation refuses the insert, and the block re-chains through
  // the authoritative protocol.
  return Hint{static_cast<cache::NodeId>(val >> 48), val & kHintEpochMask};
}

void CcmCluster::hint_publish(const cache::BlockId& b, cache::NodeId master,
                              std::uint64_t epoch) {
  HintSlot& slot = hints_[hint_index(b)];
  const std::uint64_t key = cache::block_key(b) + 1;
  slot.key.store(key, std::memory_order_relaxed);
  slot.val.store((static_cast<std::uint64_t>(master) << 48) |
                     (epoch & kHintEpochMask),
                 std::memory_order_relaxed);
}

void CcmCluster::hint_clear(const cache::BlockId& b) {
  HintSlot& slot = hints_[hint_index(b)];
  const std::uint64_t key = cache::block_key(b) + 1;
  // Conditional: don't wipe a colliding block's hint.
  std::uint64_t cur = slot.key.load(std::memory_order_relaxed);
  if (cur == key) slot.key.compare_exchange_strong(cur, 0,
                                                   std::memory_order_relaxed);
}

void CcmCluster::hint_clear_file(cache::FileId file) {
  // An invalidation sweep is rare and already cluster-wide; a linear pass
  // over the fixed slot array is cheap next to it.
  for (HintSlot& slot : hints_) {
    std::uint64_t cur = slot.key.load(std::memory_order_relaxed);
    if (cur != 0 && static_cast<cache::FileId>((cur - 1) >> 32) == file) {
      slot.key.compare_exchange_strong(cur, 0, std::memory_order_relaxed);
    }
  }
}

// --------------------------------------------------------------- reads ----

std::size_t CcmCluster::fetch_set_cap(std::uint32_t block_bytes) {
  // A full reply frame holds the header, a 4-byte length per payload and the
  // payloads; keep it under the frame ceiling.
  const std::size_t room = net::kDefaultMaxFrame - 4 - net::kFrameFixedSize;
  const std::size_t fit = room / (std::size_t{block_bytes} + 4);
  return std::clamp<std::size_t>(
      fit, 1,
      std::min<std::size_t>(proto::kFetchSetSpan, net::kMaxFramePayloads));
}

void CcmCluster::acquire_run(
    cache::NodeId node, cache::FileId file, std::uint32_t first,
    std::uint32_t last, std::vector<BlockPtr>& parts,
    std::vector<std::pair<cache::BlockId, BlockPtr>>& to_read) {
  Shard& sh = *shards_[node];
  const std::size_t base = parts.size();
  parts.resize(base + (last - first + 1));  // filled per block, in order
  const auto slot_of = [&](std::uint32_t index) -> BlockPtr& {
    return parts[base + (index - first)];
  };

  struct Pending {
    std::uint32_t index;  // block index within `file`
    cache::NodeId master = cache::kInvalidNode;
    std::uint64_t epoch = 0;
    bool misdirected = false;
    bool from_hint = false;
    BlockPtr fetched;  // peer-fetch payload awaiting validation
  };

  // The blocks still unresolved: the whole run on the first attempt, then
  // the stragglers that raced a transition on the attempt before.
  std::vector<std::uint32_t> want(last - first + 1);
  std::iota(want.begin(), want.end(), first);
  for (int attempt = 0; attempt < kAcquireAttempts && !want.empty();
       ++attempt) {
    if (attempt > 0) {
      metrics_.incr(obs::RtCounter::kAcquireRetry);
      std::this_thread::yield();
    }
    std::vector<std::uint32_t> retry;

    // Pass 1 — local hits: all resident blocks share ONE shard-lock
    // acquisition.
    std::vector<Pending> pending;
    {
      const std::uint64_t lw0 = obs::runtime_now_ns();
      util::UniqueLock lock(sh.mu);
      metrics_.record_lock_wait(obs::runtime_now_ns() - lw0);
      bool any = false;
      for (const std::uint32_t b : want) {
        const cache::BlockId block{file, b};
        if (const BlockPtr* hit = sh.store.find(block)) {
          sh.state.touch(block, tick());
          metrics_.incr(obs::RtCounter::kLocalHit);
          slot_of(b) = *hit;
          any = true;
        } else {
          Pending p;
          p.index = b;
          pending.push_back(p);
        }
      }
      if (any) {
        sh.state.publish();
        CCM_AUDIT_HOOK(audit_shard_locked(sh, node, "local_hit"));
      }
    }

    // Pass 2 — resolve masters: hint slots answer for free (kPerfect mode,
    // first attempt only: a straggler raced a transition, so retries ask
    // the directory); ONE batched lookup covers the rest. First-attempt
    // authoritative answers refresh the hint slots.
    const bool use_hints =
        attempt == 0 && config_.directory == cache::DirectoryMode::kPerfect;
    std::vector<proto::DirBatchItem> lookups;
    std::vector<std::size_t> lookup_owner;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Pending& p = pending[i];
      const cache::BlockId block{file, p.index};
      if (use_hints) {
        if (const auto h = hint_probe(block);
            h && h->master != node && h->master < config_.nodes) {
          p.master = h->master;
          p.epoch = h->epoch;
          p.from_hint = true;
          metrics_.incr(obs::RtCounter::kHintHit);
          continue;
        }
      }
      lookups.push_back({proto::DirBatchOp::kLookupRead, block});
      lookup_owner.push_back(i);
    }
    if (!lookups.empty()) {
      const auto results = dir_->batch(node, lookups);
      assert(results.size() == lookups.size());
      for (std::size_t k = 0; k < results.size(); ++k) {
        Pending& p = pending[lookup_owner[k]];
        p.master = results[k].node;
        p.epoch = results[k].epoch;
        p.misdirected = results[k].has(proto::kFlagMisdirected);
        if (use_hints && p.master != cache::kInvalidNode && p.master != node) {
          hint_publish(cache::BlockId{file, p.index}, p.master, p.epoch);
        }
      }
    }

    std::vector<std::size_t> to_claim, to_fetch;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].master == cache::kInvalidNode) {
        to_claim.push_back(i);
      } else if (pending[i].master == node) {
        // Directory names us but pass 1 missed: an in-flight transition
        // (our own forward landing back, a write migration) — let the next
        // attempt settle it.
        retry.push_back(pending[i].index);
      } else {
        to_fetch.push_back(i);
      }
    }

    // Pass 3 — misses: ONE batched try_claim masters the uncached blocks.
    // The claim is issued *under the shard lock* with the inserts following
    // in the same hold: a rival writer's ownership migration
    // (kWriteOwnership needs this lock) cannot interleave between a granted
    // claim and its insert. Chunked to the cache's capacity so make_room can
    // always clear space for a chunk before its inserts.
    if (!to_claim.empty()) {
      const std::uint64_t lw1 = obs::runtime_now_ns();
      util::UniqueLock lock(sh.mu);
      metrics_.record_lock_wait(obs::runtime_now_ns() - lw1);
      const std::size_t chunk_cap =
          std::max<std::size_t>(1, sh.state.cache().capacity_blocks());
      for (std::size_t at = 0; at < to_claim.size(); at += chunk_cap) {
        const std::size_t end = std::min(to_claim.size(), at + chunk_cap);
        make_room_locked(lock, node, static_cast<std::uint32_t>(end - at));
        // make_room may bounce the lock to ship a forward: re-check the
        // store before claiming (another operation may have landed these
        // blocks).
        std::vector<std::uint32_t> claimed;
        std::vector<proto::DirBatchItem> claims;
        for (std::size_t j = at; j < end; ++j) {
          const std::uint32_t b = pending[to_claim[j]].index;
          const cache::BlockId block{file, b};
          if (const BlockPtr* hit = sh.store.find(block)) {
            sh.state.touch(block, tick());
            metrics_.incr(obs::RtCounter::kLocalHit);
            slot_of(b) = *hit;
          } else {
            claimed.push_back(b);
            claims.push_back({proto::DirBatchOp::kTryClaim, block});
          }
        }
        if (claims.empty()) continue;
        const auto granted = dir_->batch(node, claims);
        assert(granted.size() == claims.size());
        for (std::size_t k = 0; k < claimed.size(); ++k) {
          const std::uint32_t b = claimed[k];
          if (!granted[k].has(proto::kFlagGranted)) {
            retry.push_back(b);  // lost the race: retry as a fetch
            continue;
          }
          const cache::BlockId block{file, b};
          metrics_.incr(obs::RtCounter::kDiskRead);
          sh.state.insert_master(block, tick());
          auto data = std::make_shared<BlockData>();
          sh.store.try_emplace(block, data);
          to_read.emplace_back(block, data);
          slot_of(b) = data;
        }
      }
      sh.state.publish();
      CCM_AUDIT_HOOK(audit_shard_locked(sh, node, "disk_read"));
    }

    // Pass 4 — remote hits: ONE kPeerFetch per master asks for every block
    // it holds for this run (a run wider than one set, fetch_set_cap, takes
    // several), and ONE round carries every set, so a read that needs
    // several masters waits about one round trip over TCP. Each reply
    // carries each block the master still had — its own buffers in-process,
    // one iovec each over TCP. Every miss re-chains on its own. Then ONE
    // batched validation under the shard lock decides which copies may be
    // cached.
    const std::size_t set_cap = fetch_set_cap(config_.block_bytes);
    std::sort(to_fetch.begin(), to_fetch.end(),
              [&pending](std::size_t a, std::size_t b) {
                return std::tie(pending[a].master, pending[a].index) <
                       std::tie(pending[b].master, pending[b].index);
              });
    // A set is to_fetch[at, set_end(at)): one master's blocks within
    // kFetchSetSpan of the first, at most set_cap of them.
    const auto set_end = [&](std::size_t at) {
      const Pending& head = pending[to_fetch[at]];
      std::size_t end = at + 1;
      for (; end < to_fetch.size() && end - at < set_cap; ++end) {
        const Pending& p = pending[to_fetch[end]];
        if (p.master != head.master ||
            p.index - head.index >= proto::kFetchSetSpan) {
          break;
        }
      }
      return end;
    };
    std::size_t sets = 0;
    for (std::size_t at = 0; at < to_fetch.size(); at = set_end(at)) ++sets;
    Round round(sets);
    const std::span<net::RoundCall> fetches = round.calls();
    for (std::size_t at = 0, s = 0; at < to_fetch.size(); ++s) {
      const std::size_t end = set_end(at);
      const Pending& head = pending[to_fetch[at]];
      std::uint64_t mask = 0;
      bool misdirected = false;
      for (std::size_t j = at; j < end; ++j) {
        const Pending& p = pending[to_fetch[j]];
        mask |= std::uint64_t{1} << (p.index - head.index);
        misdirected |= p.misdirected;
      }
      fetches[s].request.msg = proto::Message::peer_fetch(
          node, head.master, {file, head.index}, mask, misdirected);
      at = end;
    }
    if (!fetches.empty()) rpc_all(fetches);
    std::vector<std::size_t> fetched;
    for (std::size_t at = 0, s = 0; at < to_fetch.size(); ++s) {
      const std::size_t end = set_end(at);
      const Pending& head = pending[to_fetch[at]];
      net::RoundCall& fetch = fetches[s];
      const std::uint64_t mask = fetch.request.msg.fetch_mask();
      // An unreachable master (crashed, or the link ate every retry) ships
      // nothing, and neither does a reply that does not match its set: the
      // blocks re-read the directory — a crash purge re-homes them.
      std::uint64_t hits = fetch.error ? 0 : fetch.reply.msg.fetch_mask();
      std::vector<BlockPtr>& payloads = fetch.reply.payloads;
      if ((hits & ~mask) != 0 ||
          static_cast<std::size_t>(std::popcount(hits)) != payloads.size()) {
        hits = 0;
      }
      std::size_t next = 0;
      for (std::size_t j = at; j < end; ++j) {
        Pending& p = pending[to_fetch[j]];
        if (((hits >> (p.index - head.index)) & 1) == 0) {
          // The master moved while the fetch flew, or is unreachable.
          if (p.from_hint) {
            metrics_.incr(obs::RtCounter::kHintStale);
            hint_clear(cache::BlockId{file, p.index});
          }
          retry.push_back(p.index);
          continue;
        }
        p.fetched = std::move(payloads[next++]);
        fetched.push_back(to_fetch[j]);
      }
      at = end;
    }
    // Insert in request order, not in master order.
    std::sort(fetched.begin(), fetched.end());
    if (!fetched.empty()) {
      const std::uint64_t lw2 = obs::runtime_now_ns();
      util::UniqueLock lock(sh.mu);
      metrics_.record_lock_wait(obs::runtime_now_ns() - lw2);
      const std::size_t chunk_cap =
          std::max<std::size_t>(1, sh.state.cache().capacity_blocks());
      for (std::size_t at = 0; at < fetched.size(); at += chunk_cap) {
        const std::size_t end = std::min(fetched.size(), at + chunk_cap);
        std::vector<std::size_t> insertable;
        for (std::size_t j = at; j < end; ++j) {
          Pending& p = pending[fetched[j]];
          const cache::BlockId block{file, p.index};
          if (const BlockPtr* hit = sh.store.find(block)) {
            // Another operation via this node cached it while we fetched.
            sh.state.touch(block, tick());
            metrics_.incr(obs::RtCounter::kPeerHit);
            slot_of(p.index) = *hit;
          } else {
            insertable.push_back(fetched[j]);
          }
        }
        if (insertable.empty()) continue;
        make_room_locked(lock, node,
                         static_cast<std::uint32_t>(insertable.size()));
        std::vector<proto::DirBatchItem> checks;
        std::vector<std::size_t> checked;
        for (const std::size_t i : insertable) {
          Pending& p = pending[i];
          const cache::BlockId block{file, p.index};
          if (const BlockPtr* hit = sh.store.find(block)) {
            sh.state.touch(block, tick());
            metrics_.incr(obs::RtCounter::kPeerHit);
            slot_of(p.index) = *hit;
            continue;
          }
          metrics_.incr(obs::RtCounter::kPeerHit);
          checks.push_back({proto::DirBatchOp::kValidate, block});
          checked.push_back(i);
        }
        if (checks.empty()) continue;
        // Issued with the lock held: the check and the insert must be atomic
        // against an invalidation sweep, which needs this shard lock to
        // visit us. Don't cache a copy whose master moved — or whose file
        // has a write in flight or a bumped epoch — while the fetch was in
        // flight: the writer's sweep may already have passed this node and
        // would never drop a copy planted after it.
        const auto verdicts = dir_->batch(node, checks);
        assert(verdicts.size() == checks.size());
        for (std::size_t k = 0; k < checked.size(); ++k) {
          Pending& p = pending[checked[k]];
          const cache::BlockId block{file, p.index};
          const proto::DirBatchResult& v = verdicts[k];
          // Cacheable iff the master is where we fetched from, the file
          // epoch is unchanged, and no write is mid-span — the hint path
          // compares its 48-bit stored epoch.
          const bool epoch_ok =
              p.from_hint ? ((v.epoch & kHintEpochMask) == p.epoch)
                          : (v.epoch == p.epoch);
          if (v.node == p.master && epoch_ok &&
              v.has(proto::kFlagGranted)) {
            sh.state.insert_copy(block, tick());
            sh.store[block] = p.fetched;
          } else if (p.from_hint) {
            // Stale hint: the bytes are still valid to *serve* (a read
            // racing a write may see superseded content), just not to cache.
            metrics_.incr(obs::RtCounter::kHintStale);
            if (v.node != cache::kInvalidNode && v.node != node) {
              hint_publish(block, v.node, v.epoch);  // refresh from authority
            } else {
              hint_clear(block);
            }
          }
          slot_of(p.index) = p.fetched;
        }
      }
      sh.state.publish();
      CCM_AUDIT_HOOK(audit_shard_locked(sh, node, "remote_hit"));
    }

    want = std::move(retry);
  }

  // Liveness fallback after pathological churn: serve the rest uncached.
  if (want.empty()) return;
  metrics_.incr(obs::RtCounter::kUncachedFallback, want.size());
  metrics_.incr(obs::RtCounter::kDiskRead, want.size());
  for (const std::uint32_t b : want) {
    auto data = std::make_shared<BlockData>();
    to_read.emplace_back(cache::BlockId{file, b}, data);
    slot_of(b) = data;
  }
}

std::vector<std::byte> CcmCluster::execute_read(cache::NodeId node,
                                                cache::FileId file,
                                                std::uint64_t offset,
                                                std::uint64_t length) {
  OpSpan op_span(span_log_, node, "read");
  const std::uint64_t op0 = obs::runtime_now_ns();
  if (length == 0) return {};
  const std::uint64_t file_bytes = storage_->file_size(file);
  const std::uint32_t first_block =
      static_cast<std::uint32_t>(offset / config_.block_bytes);
  const std::uint32_t last_block = static_cast<std::uint32_t>(
      (offset + length - 1) / config_.block_bytes);

  std::vector<BlockPtr> parts;
  parts.reserve(last_block - first_block + 1);
  std::vector<std::pair<cache::BlockId, BlockPtr>> to_read;
  acquire_run(node, file, first_block, last_block, parts, to_read);

  // Fault in missing blocks from Storage on this thread, outside all
  // locks. Concurrent readers of the same block wait on its ready cv.
  for (auto& [block, data] : to_read) {
    const std::uint32_t bytes =
        cache::block_bytes(file_bytes, block.index, config_.block_bytes);
    data->bytes.resize(bytes);
    if (bytes > 0) {
      storage_->read(file,
                     static_cast<std::uint64_t>(block.index) *
                         config_.block_bytes,
                     data->bytes);
    }
    {
      std::scoped_lock block_lock(data->m);
      data->ready = true;
    }
    data->cv.notify_all();
  }

  // Assemble the requested range, waiting for any blocks still in flight.
  std::vector<std::byte> out(length);
  std::uint64_t out_pos = 0;
  for (std::uint32_t b = first_block; b <= last_block; ++b) {
    BlockPtr& part = parts[b - first_block];
    part->wait_ready();
    const std::uint64_t block_start =
        static_cast<std::uint64_t>(b) * config_.block_bytes;
    const std::uint64_t copy_from = std::max(offset, block_start);
    const std::uint64_t copy_to =
        std::min(offset + length, block_start + part->bytes.size());
    if (copy_to <= copy_from) continue;
    std::memcpy(out.data() + out_pos,
                part->bytes.data() + (copy_from - block_start),
                copy_to - copy_from);
    out_pos += copy_to - copy_from;
  }
  assert(out_pos == length);
  metrics_.record_op_read(obs::runtime_now_ns() - op0);
  return out;
}

// -------------------------------------------------------------- writes ----

void CcmCluster::execute_write(cache::NodeId node, cache::FileId file,
                               std::uint64_t offset,
                               std::span<const std::byte> data) {
  OpSpan op_span(span_log_, node, "write");
  const std::uint64_t op0 = obs::runtime_now_ns();
  if (data.empty()) return;
  assert(writable_ != nullptr);  // checked at the API boundary

  const std::uint64_t file_bytes = storage_->file_size(file);
  const std::uint32_t first_block =
      static_cast<std::uint32_t>(offset / config_.block_bytes);
  const std::uint32_t last_block = static_cast<std::uint32_t>(
      (offset + data.size() - 1) / config_.block_bytes);

  Shard& sh = *shards_[node];

  // Open the write span: readers refuse to cache copies of this file until
  // write_end, closing the window where a fetched pre-write copy could be
  // inserted after the invalidation sweep below has already passed its node.
  dir_->write_begin(file);

  // Write-through to backing storage *before* installing any cached master.
  // Ordering invariant: storage must hold the new bytes before a cached
  // master of them can exist — and hence be evicted/dropped — or a
  // subsequent miss would fault the superseded bytes back in as a fresh,
  // persistent master. Read-modify-write bases below stay correct either
  // way: re-applying the written slice over post-write storage bytes is
  // idempotent.
  writable_->write(file, offset, data);

  // One entry per affected block: the superseded bytes (read-modify-write
  // base; null if the block was uncached everywhere) and the fresh
  // copy-on-write buffer now installed.
  struct PendingWrite {
    cache::BlockId block;
    BlockPtr old_data;  // may be null or not yet ready
    BlockPtr new_data;
  };
  std::vector<PendingWrite> pending;

  for (std::uint32_t b = first_block; b <= last_block; ++b) {
    const cache::BlockId block{file, b};

    // 1. Claim directory ownership first: any reader that fetches the old
    //    master from here on re-checks the directory before caching a copy,
    //    so no stale copy can outlive the invalidation pass below. Our own
    //    hint slot for the block is now wrong (the master is us) — drop it;
    //    peers drop theirs in the kInvalidateBlock sweep below.
    const cache::NodeId previous = dir_->write_claim(block, node);
    hint_clear(block);

    // 2–3. One round: invalidate every peer's (non-master) copy, and
    //    migrate ownership (with bytes) from the previous master holder.
    //    Requests to one peer leave in round order and its protocol thread
    //    serves them in that order, so the sweep reaches `previous` before
    //    the ownership request does.
    const bool migrate = previous != cache::kInvalidNode && previous != node;
    Round round(config_.nodes - 1 + (migrate ? 1 : 0));
    const std::span<net::RoundCall> calls = round.calls();
    std::size_t next = 0;
    for (std::size_t p = 0; p < config_.nodes; ++p) {
      const auto peer = static_cast<cache::NodeId>(p);
      if (peer == node) continue;
      calls[next++].request.msg = proto::Message::invalidate_block(
          node, peer, block, /*drop_master=*/false);
    }
    if (migrate) {
      calls[next].request.msg =
          proto::Message::write_ownership(node, previous, block);
    }
    rpc_all(calls);
    // A failed invalidation is absorbed: an unreachable peer under the
    // runtime's fault model is crashed — its cache (and any stale copy) died
    // with it, and its rejoin starts cold. Transient losses were already
    // healed by the retries. A failed migration proceeds without the
    // migrated bytes: the read-modify-write base falls back to
    // post-write-through storage, which already holds the new bytes
    // (idempotent re-apply).
    BlockPtr migrated;
    bool migrated_in = false;
    if (migrate && !calls.back().error &&
        calls.back().reply.msg.has(proto::kFlagTransferred)) {
      if (!calls.back().reply.payloads.empty()) {
        migrated = calls.back().reply.payloads.front();
      }
      migrated_in = true;
    }

    // 4. Install the block as a local master and swap in a fresh buffer.
    {
      const std::uint64_t lw0 = obs::runtime_now_ns();
      util::UniqueLock lock(sh.mu);
      metrics_.record_lock_wait(obs::runtime_now_ns() - lw0);
      ++sh.state.stats().writes;
      if (migrated_in) ++sh.state.stats().ownership_migrations;
      bool install = dir_->lookup(block) == node;
      if (install && !sh.state.contains(block)) {
        make_room_locked(lock, node, 1);
        // make_room may have released the lock to ship a forward; a rival
        // writer could have overtaken our claim meanwhile.
        install = dir_->lookup(block) == node;
      }
      if (install) {
        if (sh.state.contains(block)) {
          if (!sh.state.is_master(block)) sh.state.promote_to_master(block);
          sh.state.touch(block, tick());
        } else {
          sh.state.insert_master(block, tick());
        }
        auto& slot = sh.store[block];
        PendingWrite pw{block, nullptr, std::make_shared<BlockData>()};
        pw.old_data = slot ? std::move(slot) : std::move(migrated);
        slot = pw.new_data;
        pending.push_back(std::move(pw));
      }
      sh.state.publish();
      CCM_AUDIT_HOOK(audit_shard_locked(sh, node, "execute_write"));
    }
  }

  // Assemble block contents outside all locks.
  for (auto& pw : pending) {
    const std::uint32_t bytes =
        cache::block_bytes(file_bytes, pw.block.index, config_.block_bytes);
    const std::uint64_t block_start =
        static_cast<std::uint64_t>(pw.block.index) * config_.block_bytes;
    auto& out = pw.new_data->bytes;
    out.resize(bytes);

    const bool covers_whole_block =
        offset <= block_start && offset + data.size() >= block_start + bytes;
    if (!covers_whole_block) {
      // Read-modify-write base: superseded cached bytes if any, else storage.
      if (pw.old_data) {
        pw.old_data->wait_ready();
        assert(pw.old_data->bytes.size() == bytes);
        out = pw.old_data->bytes;
      } else if (bytes > 0) {
        storage_->read(file, block_start, out);
      }
    }
    // Apply the written slice.
    const std::uint64_t copy_from = std::max(offset, block_start);
    const std::uint64_t copy_to =
        std::min(offset + data.size(), block_start + bytes);
    if (copy_to > copy_from) {
      std::memcpy(out.data() + (copy_from - block_start),
                  data.data() + (copy_from - offset), copy_to - copy_from);
    }
    {
      std::scoped_lock block_lock(pw.new_data->m);
      pw.new_data->ready = true;
    }
    pw.new_data->cv.notify_all();
  }

  dir_->write_end(file);
  metrics_.record_op_write(obs::runtime_now_ns() - op0);
}

// -------------------------------------------------------- invalidation ----

void CcmCluster::invalidate(cache::FileId file) {
  if (file >= storage_->file_count()) throw std::out_of_range("bad file id");
  const std::uint32_t nblocks =
      cache::blocks_for(storage_->file_size(file), config_.block_bytes);
  // Epoch fence first: any master forward of this file still in flight is
  // rejected by claim_forwarded, so it cannot resurrect a stale block after
  // the per-node sweep below. The sweep is issued in this hosted node's
  // name (a transport needs a routable reply address).
  const cache::NodeId self = local_nodes_.front();
  metrics_.incr(obs::RtCounter::kFileInvalidation);
  dir_->invalidate_file(file);
  Round round(config_.nodes);
  const std::span<net::RoundCall> calls = round.calls();
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    calls[n].request.msg = proto::Message::invalidate_file(
        self, static_cast<cache::NodeId>(n), file, nblocks);
  }
  // A failed sweep request is absorbed: a crashed node holds no cached
  // blocks, and the epoch fence above already blocks any of its in-flight
  // forwards from resurrecting the file.
  rpc_all(calls);
}

// ------------------------------------------------------------- barrier ----

void CcmCluster::barrier(cache::NodeId via, std::uint32_t phase) {
  shard_at(via);
  while (true) {
    try {
      const Reply r = rpc(proto::Message::barrier(via, home_, phase));
      if (r.msg.has(proto::kFlagGranted)) return;
    } catch (const net::TransportError& e) {
      // Re-announcing a barrier arrival is idempotent (a std::set insert at
      // the home), so transient losses are simply re-polled; only a shutdown
      // ends the wait.
      if (!e.transient()) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ----------------------------------------------------- crash / recovery ----

std::size_t CcmCluster::crash_node(cache::NodeId node) {
  Shard& sh = shard_at(node);
  {
    util::ScopedLock lock(sh.mu);
    sh.state.reset();
    sh.store.clear();
  }
  // Shard lock released before the directory fence: purge_node may be an RPC
  // to the home process, and no lock is ever held across one.
  // Ordering is safe either way — a peer fetch that races the wipe sees
  // "not the master" and re-reads the directory.
  return dir_->purge_node(node);
}

void CcmCluster::rejoin_node(cache::NodeId node) {
  Shard& sh = shard_at(node);
  util::ScopedLock lock(sh.mu);
  sh.state.reset();
  sh.store.clear();
}

void CcmCluster::reconstruct_directory() {
  if (home_dir_ == nullptr || !all_local_) {
    throw std::logic_error(
        "reconstruct_directory: requires the directory and every shard in "
        "this process");
  }
  std::vector<std::pair<cache::BlockId, cache::NodeId>> masters;
  for (const cache::NodeId n : local_nodes_) {
    const Shard& sh = *shards_[n];
    util::ScopedLock lock(sh.mu);
    for (const auto& e : sh.state.cache().masters()) {
      masters.emplace_back(e.block, n);
    }
  }
  home_dir_->rebuild_masters(masters);
}

// --------------------------------------------------------------- stats ----

CcmStats CcmCluster::stats() const {
  CcmStats s;
  s.shards.resize(config_.nodes);
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    if (!shards_[n]) continue;  // hosted by another process
    const Shard& sh = *shards_[n];
    util::ScopedLock lock(sh.mu);
    static_cast<cache::CacheStats&>(s) += sh.state.stats();
    auto& out = s.shards[n];
    out.lock_acquired = sh.mu.acquired();
    out.lock_contended = sh.mu.contended();
    // Each lock counter is individually monotone non-decreasing between
    // reset_counts() calls (relaxed atomics tolerate transient cross-counter
    // skew, never a decrease); serialized here by sh.mu.
    assert(out.lock_acquired >= sh.lock_acquired_floor);
    assert(out.lock_contended >= sh.lock_contended_floor);
    sh.lock_acquired_floor = out.lock_acquired;
    sh.lock_contended_floor = out.lock_contended;
  }
  // The runtime counts these events in the registry alone (only the
  // simulator's serial driver counts them in NodeState's CacheStats).
  const obs::MetricsSnapshot m = metrics_.snapshot();
  const auto count = [&m](obs::RtCounter c) {
    return m.counters[static_cast<std::size_t>(c)];
  };
  s.local_hits = count(obs::RtCounter::kLocalHit);
  s.remote_hits = count(obs::RtCounter::kPeerHit);
  s.disk_reads = count(obs::RtCounter::kDiskRead);
  s.forwards_accepted = count(obs::RtCounter::kMasterForward);
  s.hint_hits = count(obs::RtCounter::kHintHit);
  s.hint_stale = count(obs::RtCounter::kHintStale);
  s.directory = dir_->ops();
  s.hint_misdirects = s.directory.hint_misdirects;
  s.dir_client = dir_->calls();
  const net::TransportStats now = transport_->stats();
  {
    util::ScopedLock lock(stats_mu_);
    s.transport = now.since(transport_base_);
  }
  std::uint64_t retries = 0;
  for (const obs::RpcKindSnapshot& k : m.rpc) retries += k.retries;
  s.transport.rpc_retries = retries;
  s.transport.rpc_failures = count(obs::RtCounter::kRpcFailure);
  return s;
}

void CcmCluster::reset_stats() {
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    if (!shards_[n]) continue;
    Shard& sh = *shards_[n];
    util::ScopedLock lock(sh.mu);
    sh.state.stats() = cache::CacheStats{};
    sh.mu.reset_counts();
    sh.lock_acquired_floor = 0;
    sh.lock_contended_floor = 0;
  }
  dir_->reset_ops();
  dir_->reset_calls();
  metrics_.reset();
  const net::TransportStats now = transport_->stats();
  util::ScopedLock lock(stats_mu_);
  transport_base_ = now;
}

void CcmCluster::enable_runtime_trace() {
  span_log_.enable(local_nodes_.front());
}

obs::MetricsSnapshot CcmCluster::scrape_cluster() {
  obs::MetricsSnapshot merged = metrics_.snapshot();
  metrics_.incr(obs::RtCounter::kStatsScrape);
  const cache::NodeId self = local_nodes_.front();
  // One registry per process, reported under its lowest hosted node id;
  // pulling from every node and deduping by that id collapses the per-node
  // fan-out back to one snapshot per process without a membership service.
  std::set<std::uint32_t> seen{merged.host};
  Round round(config_.nodes - local_nodes_.size());
  const std::span<net::RoundCall> pulls = round.calls();
  for (std::size_t n = 0, k = 0; n < config_.nodes; ++n) {
    if (shards_[n]) continue;  // hosted here: already in the local snapshot
    pulls[k++].request.msg =
        proto::Message::stats_pull(self, static_cast<cache::NodeId>(n));
  }
  rpc_all(pulls);
  for (const net::RoundCall& pull : pulls) {
    // A dead or partitioned peer costs its slice of the report, not the
    // scrape; the `processes` count in the output records the coverage.
    if (pull.error || pull.reply.payloads.empty()) continue;
    const BlockPtr& data = pull.reply.payloads.front();
    data->wait_ready();
    const auto remote = obs::MetricsSnapshot::decode(data->bytes);
    if (!remote) continue;  // version/geometry skew: drop, don't misparse
    if (!seen.insert(remote->host).second) continue;  // same process
    merged.merge(*remote);
  }
  return merged;
}

std::uint64_t CcmCluster::cached_bytes(cache::NodeId node) const {
  const Shard& sh = shard_at(node);
  util::ScopedLock lock(sh.mu);
  return sh.state.cache().used_blocks() * config_.block_bytes;
}

std::pair<std::uint64_t, bool> CcmCluster::published_summary(
    cache::NodeId node) const {
  const Shard& sh = shard_at(node);
  return {sh.state.published_oldest_age(), sh.state.published_full()};
}

// --------------------------------------------------------------- audit ----

std::size_t CcmCluster::audit_shard_locked(const Shard& sh,
                                           cache::NodeId node,
                                           const char* context) const {
  std::size_t ccm_audit_failures = 0;
  const std::string ctx = std::string(" [") + context + "]";
  const cache::NodeCache& cache = sh.state.cache();
  CCM_AUDIT(cache.used_blocks() == sh.store.size(), "ccm-store-policy-size",
            "node " + std::to_string(node) + " policy books " +
                std::to_string(cache.used_blocks()) +
                " blocks but the byte store holds " +
                std::to_string(sh.store.size()) + ctx);
  // Order-insensitive sweep over the (unordered) byte store: each check is
  // independent of iteration order.
  for (const auto& [block, data] : sh.store) {  // ccm-lint: allow(unordered-iter)
    CCM_AUDIT(cache.contains(block), "ccm-store-orphan",
              "node " + std::to_string(node) + " stores bytes for file " +
                  std::to_string(block.file) + " block " +
                  std::to_string(block.index) + " with no policy entry" + ctx);
    CCM_AUDIT(data != nullptr, "ccm-store-null",
              "node " + std::to_string(node) + " stores null bytes for file " +
                  std::to_string(block.file) + " block " +
                  std::to_string(block.index) + ctx);
  }
  ccm_audit_failures += sh.state.audit(context);
  return ccm_audit_failures;
}

std::size_t CcmCluster::audit_all_locked(const char* context) const {
  std::size_t ccm_audit_failures = 0;
  const std::string ctx = std::string(" [") + context + "]";
  for (const cache::NodeId n : local_nodes_) {
    ccm_audit_failures += audit_shard_locked(*shards_[n], n, context);
    // Cross-shard: every cached master must be registered in the directory,
    // pointing here; in hinted mode the hint layer's authoritative view must
    // agree with the directory.
    const cache::NodeCache& cache = shards_[n]->state.cache();
    for (const auto& e : cache.masters()) {
      CCM_AUDIT(dir_->lookup(e.block) == n, "cache-master-registered",
                "master of file " + std::to_string(e.block.file) + " block " +
                    std::to_string(e.block.index) + " cached at node " +
                    std::to_string(n) + " but directory says node " +
                    std::to_string(dir_->lookup(e.block)) + ctx);
      if (config_.directory == cache::DirectoryMode::kHinted && all_local_) {
        CCM_AUDIT(dir_->hint_truth(e.block) == n, "cache-hint-truth",
                  "hint truth for file " + std::to_string(e.block.file) +
                      " block " + std::to_string(e.block.index) +
                      " is node " +
                      std::to_string(dir_->hint_truth(e.block)) +
                      " but the master is cached at node " +
                      std::to_string(n) + ctx);
      }
    }
  }
  // Every cached master points at its own directory entry (checked above);
  // equal counts then make that correspondence a bijection, which rules out
  // duplicate masters and dangling directory entries — i.e. at most one
  // master copy per block cluster-wide. Only checkable when this process
  // can see every shard.
  if (all_local_) {
    std::size_t cached_masters = 0;
    for (const auto& sh : shards_) {
      cached_masters += sh->state.cache().master_count();
    }
    CCM_AUDIT(dir_->master_count() == cached_masters, "cache-single-master",
              "directory tracks " + std::to_string(dir_->master_count()) +
                  " masters but nodes cache " +
                  std::to_string(cached_masters) + ctx);
  }
  ccm_audit_failures += dir_->audit(context);
  return ccm_audit_failures;
}

std::size_t CcmCluster::audit(const char* context) const {
  // Take every hosted shard lock (index order) for a consistent view. The
  // index order makes the lockcheck graph's shard[i] -> shard[j] (i < j)
  // chain edges, which stay acyclic against every runtime acquisition.
  std::vector<std::unique_lock<util::CountingMutex>> locks;
  locks.reserve(local_nodes_.size());
  for (const cache::NodeId n : local_nodes_) {
    locks.emplace_back(shards_[n]->mu);
  }
  return audit_all_locked(context);
}

bool CcmCluster::check_consistency() const {
  return audit("check_consistency") == 0;
}

}  // namespace coop::ccm
