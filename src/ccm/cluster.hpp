// The cooperative caching middleware runtime — the deliverable the paper
// argues for: "a generic middleware layer (or library) ... usable as a
// building block for diverse distributed services".
//
// CcmCluster hosts the cluster's logical nodes — all of them in one process
// (the default), or one slice of them when several processes form the
// cluster over a socket transport. It is a library the server's own request
// threads call: read(), read_range() and write() run on the caller's thread,
// and each hosted node admits at most workers_per_node of them at once (its
// "service threads"). Each hosted node has a byte store for cached blocks
// and its own *shard* of the cooperative caching policy: a proto::NodeState
// (this node's entry books, LRU ages, and stats slice) guarded by a per-node
// lock. The cluster-wide master map is reached through a DirectoryClient — a
// local proto::DirectoryService in-process, kDir* RPCs to the node-0 process
// in a multi-process cluster. Cross-node traffic travels as proto::Message
// envelopes through a pluggable net::Transport — the exact message
// vocabulary the simulator charges with the paper's Table-1 latencies (see
// docs/MIDDLEWARE.md for the correspondence). In-process, the transport runs
// each request's handler on the sending caller's thread; over TCP (or behind
// a decorator that declines direct binding) the request is queued for the
// target node's protocol thread.
//
// Concurrency model:
//  * A read that only touches blocks resident at its own node takes that
//    node's shard lock and nothing else — no global mutex, no directory
//    lock. Per-shard acquisition/contention counters in stats() demonstrate
//    the isolation.
//  * Cross-node operations (peer fetch, master forward, invalidation, write
//    ownership transfer) are RPCs through the transport; the handler works
//    under the target's shard lock plus the directory (a strict shard →
//    directory lock order, with the directory a leaf). Operations never hold
//    a shard lock across a peer RPC, so a thread running a peer's handler on
//    the direct path holds at most that one shard lock — the lock-order
//    watchdog reports "direct-call-unlocked" otherwise.
//  * Independent requests to several nodes go out as one round (rpc_all):
//    a write's invalidation sweep with its ownership migration, a file
//    invalidation's sweep, a read's per-master fetch sets and the metrics
//    scrape. A round is issued outside every shard lock, like any RPC; over
//    TCP it costs about one round trip instead of one per request.
//  * In a multi-process cluster the directory "leaf" is itself an RPC to the
//    home process, and some are made under a shard lock (acquire_run's claim
//    and validation batches, make_room_locked, kMasterForward's
//    claim_forwarded). The wait-for graph stays acyclic: only the home
//    process hosts the directory and storage, its handlers never block on
//    another node, so every blocking chain ends there.
//  * Directory claims are conditional, so racing misses/forwards/writes
//    resolve by retry instead of blocking; a bounded retry loop falls back
//    to an uncached storage read for liveness.
//  * Storage reads happen outside all locks with per-block pending states;
//    concurrent readers of a block being faulted in block only on that
//    block.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <semaphore>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_table.hpp"
#include "cache/policy.hpp"
#include "ccm/directory_client.hpp"
#include "ccm/storage.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_trace.hpp"
#include "proto/directory_service.hpp"
#include "proto/message.hpp"
#include "proto/node_state.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::ccm {

struct CcmConfig {
  std::size_t nodes = 4;
  /// Cache memory per node, bytes.
  std::uint64_t capacity_bytes = 64ull * 1024 * 1024;
  std::uint32_t block_bytes = 8 * 1024;
  cache::Policy policy = cache::Policy::kNeverEvictMaster;
  cache::DirectoryMode directory = cache::DirectoryMode::kPerfect;
  /// Most client operations (read, read_range, write) in flight via one node
  /// at once; later callers wait for a slot. Handlers, invalidate() and
  /// barrier() take none.
  std::size_t workers_per_node = 2;
};

/// How this process participates in the cluster. Default-constructed: every
/// node lives here, over an in-process transport with a local directory (the
/// original single-process runtime, unchanged in cost).
struct CcmHosting {
  /// Node-to-node message fabric; null builds an InProcTransport.
  std::shared_ptr<net::Transport> transport;
  /// Cluster master directory; null builds a LocalDirectory. A process that
  /// is not `home` passes a RemoteDirectory (and a RemoteStorage).
  std::shared_ptr<DirectoryClient> directory;
  /// Nodes served by this process; empty means all of them.
  std::vector<cache::NodeId> local_nodes;
  /// The node whose process hosts the directory, backing storage, and
  /// barrier service in a multi-process cluster.
  cache::NodeId home = 0;
};

/// This process's runtime counters since its last reset_stats(), each event
/// counted once (docs/OBSERVABILITY.md, "Runtime telemetry", has the table).
/// A view assembled per call from the layers that own the counts:
///  * local_hits, remote_hits, disk_reads, forwards_accepted, hint_hits,
///    hint_stale and transport.rpc_retries/rpc_failures from the metrics
///    registry — the slots the kStatsPull scrape carries;
///  * the other cache::CacheStats fields from each shard's proto::NodeState;
///  * lock counts from each shard's mutex, `directory` from the home's
///    DirectoryService, `dir_client` from this process's DirectoryClient;
///  * `transport` from the transport, counted from the last reset_stats()
///    except payload_copies, which stays a lifetime count.
/// In a multi-process cluster each process reports its own slice (remote
/// shards are all-zero rows; directory ops are home-only).
struct CcmStats : cache::CacheStats {
  struct Shard {
    std::uint64_t lock_acquired = 0;
    std::uint64_t lock_contended = 0;
  };
  std::vector<Shard> shards;
  proto::DirectoryService::Ops directory;
  net::TransportStats transport;
  /// Directory-client traffic as seen from this process: single-op calls vs
  /// batch round trips (dir_client.trips() is the number batching shrinks).
  DirectoryClient::Calls dir_client;
  /// Lock-free hint-slot probes that short-circuited a directory lookup, and
  /// how many of those hints later failed their fetch or validation.
  std::uint64_t hint_hits = 0;
  std::uint64_t hint_stale = 0;
};

class CcmCluster {
 public:
  /// `storage` is the backing disk layer (shared across nodes, like the
  /// paper's files-distributed-across-all-nodes setup).
  CcmCluster(const CcmConfig& config, std::shared_ptr<Storage> storage);

  /// Multi-process form: host only `hosting.local_nodes` here, over the
  /// given transport. The home process passes the real storage and a local
  /// directory (and serves both to its peers); every other process passes
  /// RemoteStorage / RemoteDirectory proxies.
  CcmCluster(const CcmConfig& config, std::shared_ptr<Storage> storage,
             CcmHosting hosting);
  ~CcmCluster();

  CcmCluster(const CcmCluster&) = delete;
  CcmCluster& operator=(const CcmCluster&) = delete;

  /// Reads the whole file via node `via`, on the calling thread, once one
  /// of the node's workers_per_node slots is free. Thread-safe. `via` must
  /// be hosted in this process.
  std::vector<std::byte> read(cache::NodeId via, cache::FileId file);

  /// read() on a new thread; the future resolves when the bytes are
  /// assembled. Bad arguments throw here, before the thread starts. Resolve
  /// every future before destroying the cluster.
  std::future<std::vector<std::byte>> read_async(cache::NodeId via,
                                                 cache::FileId file);

  /// Reads a byte range [offset, offset+length) of `file` via `via`.
  std::vector<std::byte> read_range(cache::NodeId via, cache::FileId file,
                                    std::uint64_t offset, std::uint64_t length);

  /// Write-protocol extension (the paper's §6 future work). Writes `data` at
  /// [offset, offset+data.size()) of `file` through node `via`: the write
  /// claims directory ownership, invalidates every peer copy, migrates the
  /// master (with its bytes) to `via`, updates the cached bytes
  /// copy-on-write, and writes through to Storage (which must be a
  /// WritableStorage; throws std::logic_error otherwise). Reads racing a
  /// write see either the old or the new block content, never a mix within
  /// one block. Concurrent writers to the *same* block race last-writer-wins
  /// per layer, as in any write-through design without a serialization
  /// point; writers of disjoint blocks are fully coherent.
  void write(cache::NodeId via, cache::FileId file, std::uint64_t offset,
             std::span<const std::byte> data);

  /// Drops every cached block of `file` cluster-wide (content changed
  /// outside the caching layer). Safe to call concurrently with reads; reads
  /// already in flight may still return the superseded bytes. In-flight
  /// master forwards of the file are fenced off by a directory epoch so they
  /// cannot resurrect stale blocks.
  void invalidate(cache::FileId file);

  /// Cluster-wide rendezvous, served by the home process: blocks until every
  /// node has announced reaching `phase`. The multi-process workload drivers
  /// use it to fence their seed/run/report phases.
  void barrier(cache::NodeId via, std::uint32_t phase);

  // --- crash / recovery (fault-injection support) ---

  /// Simulates a crash of hosted node `node`: wipes its policy state and
  /// byte store (as if the process died and lost its memory) and purges the
  /// node's masters from the directory, epoch-fencing every affected file so
  /// claims/forwards the dead node still has in flight are rejected instead
  /// of resurrecting its masters. Committed writes survive: every write went
  /// through to Storage before any cached master existed. Returns how many
  /// masters the directory purged. Call with the node's workload quiesced
  /// (no operation in flight via the node); peer traffic may keep flowing.
  std::size_t crash_node(cache::NodeId node);

  /// Brings a previously crashed hosted node back cold: the shard restarts
  /// empty (idempotent — resets state again) and re-publishes its summary.
  /// The node simply resumes serving; blocks re-enter its cache through the
  /// normal miss/claim protocol.
  void rejoin_node(cache::NodeId node);

  /// Rebuilds the cluster master map from the hosted shards' caches — the
  /// recovery path when the directory itself must be reconstructed from
  /// surviving per-node state. Requires the directory in this process and
  /// every node hosted here; epoch-fences everything in flight across the
  /// rebuild. Call at quiescence (takes every shard lock, index order).
  void reconstruct_directory();

  [[nodiscard]] const CcmConfig& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return config_.nodes; }

  /// Nodes hosted in this process.
  [[nodiscard]] const std::vector<cache::NodeId>& local_nodes() const {
    return local_nodes_;
  }

  /// Counters since the last reset_stats() (see CcmStats).
  [[nodiscard]] CcmStats stats() const;
  /// Restarts every stats() counter and the metrics registry.
  void reset_stats();

  /// Bytes currently cached at `node` (block-granular accounting; the node
  /// must be hosted here).
  [[nodiscard]] std::uint64_t cached_bytes(cache::NodeId node) const;

  /// `node`'s published cache summary (oldest LRU age, fullness) — what a
  /// socket transport piggybacks on outgoing frames so remote peers can
  /// pick forward targets.
  [[nodiscard]] std::pair<std::uint64_t, bool> published_summary(
      cache::NodeId node) const;

  /// Most blocks one kPeerFetch asks for: the set's mask width
  /// (proto::kFetchSetSpan), and few enough `block_bytes` blocks that the
  /// reply frame stays under net::kDefaultMaxFrame and net::kMaxFramePayloads
  /// iovecs; at least 1. A read fetching more blocks from one master sends
  /// several sets.
  [[nodiscard]] static std::size_t fetch_set_cap(std::uint32_t block_bytes);

  /// Hinted mode: observed hint accuracy (paper cites ~98% for [18]).
  [[nodiscard]] double hint_accuracy() const { return dir_->hint_accuracy(); }

  // --- runtime telemetry (docs/OBSERVABILITY.md, "Runtime telemetry") ---

  /// This process's live metrics registry: per-MsgKind RPC latency/bytes
  /// histograms (recorded at the transport seam), the hit, disk-read,
  /// forward, hint and failure counters stats() reads back, and shard-lock
  /// wait distributions. Lock-free record path; snapshot() at any time.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// Cluster-wide metrics: this process's snapshot merged with every peer
  /// process's, pulled over kStatsPull RPCs (deduplicated by reporting host,
  /// so several nodes sharing a process count once). Unreachable peers are
  /// skipped. In a single-process cluster this is just the local snapshot.
  [[nodiscard]] obs::MetricsSnapshot scrape_cluster();

  /// Arms wall-clock span recording: every read/write op gets a root span,
  /// every rpc() a client span, every handled message a handler span, and
  /// the trace/span ids ride inside proto::Message so the slices line up
  /// across processes (export via obs::runtime_trace_json). Off by default;
  /// recording is bounded (obs::RuntimeSpanLog::kCapacity).
  void enable_runtime_trace();
  [[nodiscard]] const obs::RuntimeSpanLog& runtime_spans() const {
    return span_log_;
  }

  /// Sweeps policy/data-plane consistency across every hosted shard and the
  /// directory: every cached policy entry has bytes, every stored block has
  /// a policy entry, every master is registered, and — when every node lives
  /// in this process — exactly one master exists per block. Violations are
  /// reported through coop::audit; returns the violation count. Takes every
  /// hosted shard lock (index order); call at quiescence.
  std::size_t audit(const char* context) const;

  /// Convenience wrapper: audit("check_consistency") == 0.
  [[nodiscard]] bool check_consistency() const;

 private:
  friend struct CcmClusterTestPeer;  // test-only corruption (audit tests)

  // Payload buffers are the transport's latch-guarded blocks; inside one
  // process both ends of a transfer share the same bytes.
  using BlockData = net::BlockData;
  using BlockPtr = net::BlockPtr;
  using Store = cache::BlockTable<BlockPtr>;

  /// One node's share of the runtime: its policy slice, byte store, and the
  /// lock that guards both.
  struct Shard {
    Shard(cache::NodeId id, const cache::CoopCacheConfig& cfg,
          std::size_t max_ops)
        : mu("ccm.shard[" + std::to_string(id) + "]"),
          state(id, cfg),
          admission(static_cast<std::ptrdiff_t>(max_ops)) {}
    mutable util::CountingMutex mu;
    /// Deliberately NOT GUARDED_BY(mu): ShardView reads the published_*
    /// summary fields lock-free (they are atomics, refreshed by publish()
    /// under the lock); every other NodeState access happens with mu held.
    proto::NodeState state;
    Store store GUARDED_BY(mu);
    /// stats() monotonicity floors: the highest lock counters observed so
    /// far, asserted non-decreasing between reset_stats() calls.
    mutable std::uint64_t lock_acquired_floor GUARDED_BY(mu) = 0;
    mutable std::uint64_t lock_contended_floor GUARDED_BY(mu) = 0;
    /// workers_per_node slots, one held by each read/read_range/write in
    /// flight via this node.
    std::counting_semaphore<> admission;
  };

  /// A protocol reply: the wire message plus the payloads riding along (a
  /// fetch's blocks, an ownership transfer's bytes, an encoded answer).
  struct Reply {
    proto::Message msg;
    std::vector<BlockPtr> payloads;
  };

  /// Lock-free published view of every shard (forward-target selection).
  /// Remote nodes are answered from the transport's piggybacked summaries.
  class ShardView final : public proto::PeerView {
   public:
    explicit ShardView(const CcmCluster& owner) : owner_(owner) {}
    [[nodiscard]] std::uint64_t peer_oldest_age(
        cache::NodeId n) const override {
      if (owner_.shards_[n]) {
        return owner_.shards_[n]->state.published_oldest_age();
      }
      return owner_.transport_->peer_oldest_age(n);
    }
    [[nodiscard]] bool peer_full(cache::NodeId n) const override {
      if (owner_.shards_[n]) return owner_.shards_[n]->state.published_full();
      return owner_.transport_->peer_full(n);
    }

   private:
    const CcmCluster& owner_;
  };

  /// Serves one request addressed to hosted node `node` and returns the
  /// reply envelope: the handler span, handle_message, and the reply's seq.
  /// Both delivery paths run it — the transport's direct binding on the
  /// caller's thread, protocol_loop on the node's own thread. Handlers take
  /// this node's shard lock and the directory only — they never block on
  /// another hosted node, so cross-node request chains cannot deadlock.
  net::Envelope serve(cache::NodeId node, net::Envelope& env);
  /// Protocol-thread loop for a node whose transport declined direct
  /// binding: receive, serve, post the reply.
  void protocol_loop(cache::NodeId node);
  Reply handle_message(cache::NodeId self, net::Envelope& env);
  /// Answers kDir* RPCs against the in-process DirectoryService (home only).
  Reply handle_directory(cache::NodeId self, const proto::Message& msg);

  /// Sends `msg` to its destination node and awaits the reply; in-process
  /// the destination's handler runs on this thread. A round of one:
  /// throws the net::TransportError its retries ended in. Callers must not
  /// hold any lock.
  Reply rpc(const proto::Message& msg, BlockPtr data = nullptr,
            std::uint64_t epoch = 0);

  /// One round of independent requests (net::Transport::call_all), each
  /// retried alone under call_all_with_retry's budget; a request that still
  /// fails keeps its error. Over TCP every request leaves before any reply
  /// is awaited; in-process they run in order on this thread. Records one
  /// rpc-client span per call when tracing. Callers must not hold any lock.
  void rpc_all(std::span<net::RoundCall> calls);

  /// The hosted shard behind a public-API `via`; throws on a node this
  /// process does not serve.
  Shard& shard_at(cache::NodeId via) const;

  /// Next logical LRU age (monotonic per process; cluster-global when every
  /// node is hosted here).
  std::uint64_t tick() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Lamport merge: raises the clock to at least `age`, an age ticked by
  /// another process's clock, so every later tick() is younger than it.
  void merge_clock(std::uint64_t age) {
    std::uint64_t now = clock_.load(std::memory_order_relaxed);
    while (now < age &&
           !clock_.compare_exchange_weak(now, age, std::memory_order_relaxed)) {
    }
  }

  /// Executes one read on the calling thread.
  std::vector<std::byte> execute_read(cache::NodeId node, cache::FileId file,
                                      std::uint64_t offset,
                                      std::uint64_t length);

  /// Executes one write on the calling thread.
  void execute_write(cache::NodeId node, cache::FileId file,
                     std::uint64_t offset, std::span<const std::byte> data);

  /// Materializes blocks [first, last] of `file` at `node` per the
  /// cooperative caching protocol — local hit, peer fetch (RPC to the master
  /// holder), or a disk-read claim (appended to `to_read` for the caller to
  /// fault in) — and appends one BlockPtr per block to `parts`, in block
  /// order. Each attempt runs over the blocks still unresolved: one
  /// shard-lock pass drains the local hits, one kDirBatch lookup resolves
  /// the misses (hint slots short-circuit it per block), one batch claim
  /// under the shard lock masters the uncached ones, one kPeerFetch per
  /// master fetches the rest as a set (fetch_set_cap), and fetched copies
  /// are validated by one batched kValidate under the shard lock before
  /// insertion. Blocks that race a transition are retried, up to
  /// kAcquireAttempts passes in all; whatever is left after that is served
  /// by an uncached storage read for liveness.
  void acquire_run(cache::NodeId node, cache::FileId file, std::uint32_t first,
                   std::uint32_t last, std::vector<BlockPtr>& parts,
                   std::vector<std::pair<cache::BlockId, BlockPtr>>& to_read);

  // --- master-location hint slots (the read-mostly fast path) ---
  //
  // A fixed, power-of-two array of relaxed-atomic {key, val} pairs mapping a
  // block to its last authoritatively observed (master, epoch). A probe hit
  // skips the directory lookup entirely — no lock, no RPC; the later batched
  // kValidate (under the inserting shard's lock) is what keeps a stale hint
  // from planting an uncacheable copy, the same check a copy fetched on an
  // authoritative lookup must pass. key and val are independent
  // atomics, so a reader racing a publisher can see a torn pair; the worst
  // outcome is a wrong candidate master — a peer-fetch miss or a failed
  // validation, both of which re-chain through the authoritative protocol.
  // Slots are advisory in every mode but only *used* in kPerfect mode:
  // kHinted's staleness model lives in the DirectoryService and layering a
  // second hint tier would skew its accuracy accounting.
  struct HintSlot {
    std::atomic<std::uint64_t> key{0};  // block_key + 1; 0 = empty
    std::atomic<std::uint64_t> val{0};  // master<<48 | epoch (low 48 bits)
  };
  static constexpr std::size_t kHintSlots = 4096;  // power of two

  struct Hint {
    cache::NodeId master;
    std::uint64_t epoch;  // low 48 bits of the observed file epoch
  };
  static std::size_t hint_index(const cache::BlockId& b) {
    // A Fibonacci multiply of the packed key; cheap and good enough for
    // slots.
    return static_cast<std::size_t>(
               (cache::block_key(b) * 0x9E3779B97F4A7C15ull) >> 32) &
           (kHintSlots - 1);
  }
  [[nodiscard]] std::optional<Hint> hint_probe(const cache::BlockId& b) const;
  void hint_publish(const cache::BlockId& b, cache::NodeId master,
                    std::uint64_t epoch);
  void hint_clear(const cache::BlockId& b);
  void hint_clear_file(cache::FileId file);

  /// Unregisters a sweep's worth of dropped masters: one kDirBatch round
  /// trip when the sweep dropped more than one, a single master_dropped
  /// otherwise. Call sites hold the shard lock (the directory is the lock
  /// order's leaf).
  void drop_masters(cache::NodeId node,
                    const std::vector<cache::BlockId>& dropped);

  /// Frees `slots` at `node` per the replacement policy. Requires `lock`
  /// held on the node's shard; releases it while shipping a master forward
  /// (re-acquired before returning), so callers must re-validate any state
  /// read before the call. NO_THREAD_SAFETY_ANALYSIS (justified, 1 of 2):
  /// the unlock/relock through the guard reference is a capability
  /// hand-off Clang's analysis cannot follow.
  void make_room_locked(util::UniqueLock<util::CountingMutex>& lock,
                        cache::NodeId node, std::uint32_t slots)
      NO_THREAD_SAFETY_ANALYSIS;

  /// Shard-local audit subset (per-event hooks; caller holds the shard
  /// lock). Cross-shard invariants are checked only by audit().
  std::size_t audit_shard_locked(const Shard& sh, cache::NodeId node,
                                 const char* context) const REQUIRES(sh.mu);
  /// Full sweep; caller holds every hosted shard lock.
  /// NO_THREAD_SAFETY_ANALYSIS (justified, 2 of 2): the caller holds a
  /// dynamic set of shard locks via a vector of guards, which the analysis
  /// cannot express.
  std::size_t audit_all_locked(const char* context) const
      NO_THREAD_SAFETY_ANALYSIS;

  CcmConfig config_;
  std::shared_ptr<Storage> storage_;
  /// storage_ as a WritableStorage; null when it is read-only.
  WritableStorage* writable_ = nullptr;

  std::shared_ptr<net::Transport> transport_;
  std::shared_ptr<DirectoryClient> dir_;
  /// The in-process DirectoryService when the directory is local (serves
  /// kDir* RPCs); nullptr in non-home processes.
  proto::DirectoryService* home_dir_ = nullptr;

  std::vector<cache::NodeId> local_nodes_;
  bool all_local_ = true;
  cache::NodeId home_ = 0;

  /// Indexed by node id; null for nodes hosted by other processes.
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardView view_{*this};
  std::atomic<std::uint64_t> clock_{0};

  /// Master-location hint slots (see above); their probes count in the
  /// registry's hint-hits / hint-stale slots.
  std::array<HintSlot, kHintSlots> hints_;

  /// Runtime telemetry, and the source of stats()'s event counts: installed
  /// on the (outermost) transport at construction so call() records
  /// per-kind RPC samples into it.
  obs::MetricsRegistry metrics_;
  /// transport_->stats() at the last reset_stats(); stats().transport
  /// reports the counts since.
  mutable util::Mutex stats_mu_{"ccm.stats"};
  net::TransportStats transport_base_ GUARDED_BY(stats_mu_);
  /// Wall-clock span sink; inert until enable_runtime_trace().
  obs::RuntimeSpanLog span_log_;

  /// Barrier service state (home only): nodes that announced each phase.
  util::Mutex barrier_mu_{"ccm.barrier"};
  std::map<std::uint32_t, std::set<cache::NodeId>> barrier_arrivals_
      GUARDED_BY(barrier_mu_);

  /// Only for nodes whose transport declined serve_direct().
  std::vector<std::thread> protocol_threads_;
};

}  // namespace coop::ccm
