// The cluster's master-block directory as a standalone service object.
//
// The paper assumes a perfect directory "maintained by some external
// mechanism"; this object *is* that mechanism, for the sharded runtime and
// for the simulator's serial driver (cache::ClusterCache) alike: a small,
// separately-locked service that answers lookups, arbitrates master claims,
// and carries the hint tables of the §6 hint-based variant. Runtime nodes
// never touch each other's policy state directly — they consult the
// directory and then exchange proto::Messages.
//
// Concurrency: one internal mutex, held only for map operations (no I/O, no
// nested locks), so it is a leaf in the runtime's lock order (shard lock →
// directory). Claim operations are conditional (set-if-absent) precisely
// because a sharded runtime can race: two nodes may miss on the same block
// concurrently, and an in-flight master forward can cross an invalidation or
// a rival claim — the loser re-reads the directory and retries.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/directory.hpp"
#include "cache/policy.hpp"
#include "proto/dir_batch.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::proto {

class DirectoryService {
 public:
  /// Directory-side operation counters (exposed through runtime stats).
  struct Ops {
    std::uint64_t lookups = 0;
    std::uint64_t claims = 0;           // masters granted to disk readers
    std::uint64_t claim_conflicts = 0;  // claim lost: somebody was faster
    std::uint64_t forwards_begun = 0;
    std::uint64_t forward_claims = 0;   // forwarded masters re-registered
    std::uint64_t forward_rejects = 0;  // forwarded masters lost
    std::uint64_t masters_dropped = 0;
    std::uint64_t write_claims = 0;
    std::uint64_t hint_misdirects = 0;
    std::uint64_t masters_purged = 0;   // crash fences (purge_node)
  };

  DirectoryService(std::size_t nodes, cache::DirectoryMode mode,
                   std::uint32_t hint_staleness);

  [[nodiscard]] cache::DirectoryMode mode() const { return mode_; }

  struct ReadLookup {
    NodeId master = cache::kInvalidNode;
    /// Hinted mode: the node's hint was wrong/missing and an extra network
    /// round trip is owed before reaching `master`.
    bool misdirected = false;
    /// File epoch at lookup time. A reader must re-check it before caching
    /// fetched bytes: a write or invalidation that lands between the lookup
    /// and the insert bumps it, and caching the (superseded) fetch would
    /// plant a stale copy the write's invalidation sweep already missed.
    std::uint64_t epoch = 0;
  };

  /// Where `node` should fetch `b` from: always the true master holder. In
  /// hinted mode the node's own hint is consulted first; a missing or wrong
  /// one is reported as `misdirected` (an extra hop is owed), counted in
  /// Ops::hint_misdirects, and refreshed.
  ReadLookup lookup_for_read(NodeId node, const BlockId& b);

  /// Authoritative master holder (kInvalidNode if none).
  [[nodiscard]] NodeId lookup(const BlockId& b) const;

  /// Registers `node` as master of `b` iff no master exists (a disk reader
  /// becoming the master holder). False: somebody beat us — retry the read.
  /// Idempotent for the claimant: re-asking while already registered
  /// succeeds, so a retried claim whose first reply was lost cannot strand
  /// a master the claimant believes it failed to take.
  bool try_claim(const BlockId& b, NodeId node);

  /// Starts forwarding `b`'s master away from `from`: unregisters it so
  /// readers cannot chase a block that is in flight (they re-claim or retry
  /// instead). Hints are left untouched — the hint protocol only learns the
  /// outcome. Returns the block's file invalidation epoch, to be echoed to
  /// claim_forwarded — or nullopt, refusing to unregister, when the
  /// directory no longer names `from` (a write claim overtook the eviction)
  /// or a write to the file is in flight (an in-place re-write keeps the
  /// lookup unchanged while superseding the bytes): either way the
  /// forwarder's bytes may be stale and must not be shipped.
  std::optional<std::uint64_t> begin_forward(const BlockId& b, NodeId from);

  /// Registers the forwarded master at `to` iff the block is still
  /// unclaimed and the file has not been invalidated since `epoch` (a rival
  /// disk-read claim, a write claim, or an invalidation wins the race).
  /// `from` is the forwarding node, credited as the hint observer.
  /// Idempotent for `to`: a retried claim that already landed (same epoch)
  /// succeeds again instead of reading its own registration as a rival's.
  bool claim_forwarded(const BlockId& b, NodeId to, NodeId from,
                       std::uint64_t epoch);

  /// The destination rejected (or lost the claim for) a forwarded master:
  /// the master is gone; drop `from`'s hint.
  void forward_rejected(const BlockId& b, NodeId from);

  /// A master copy was dropped at `node` (eviction or invalidation).
  /// Conditional: only unregisters if the directory still names `node`, so a
  /// racing claim by another node is never erased.
  void master_dropped(const BlockId& b, NodeId node);

  /// Batched entry point (kDirBatchRequest): applies every item issued by
  /// `node` under ONE lock acquisition, appending one result per item in
  /// order. Per-item semantics and Ops counters are exactly the singles
  /// methods' — a batch and the same ops issued singly leave bit-identical
  /// directory state (asserted in tests/test_proto.cpp), which is also what
  /// keeps an at-least-once replay of the batch safe.
  void apply_batch(NodeId node, std::span<const DirBatchItem> items,
                   std::vector<DirBatchResult>& out);

  /// Write protocol: makes `writer` the registered master of `b`
  /// unconditionally and returns the previous holder (== writer: no
  /// re-registration). The caller migrates ownership from the previous
  /// holder and cleans up any rival claim that slipped in between. Always
  /// bumps the file's epoch — even when the writer already holds the block —
  /// so in-flight reads and forwards of the file cannot cache or re-register
  /// bytes the write supersedes.
  NodeId write_claim(const BlockId& b, NodeId writer);

  /// File invalidation fence: bumps the file's epoch so in-flight master
  /// forwards of its blocks are rejected instead of resurrecting stale data.
  void invalidate_file(FileId file);

  /// Crash fence: unregisters every master held at `node` and bumps the
  /// epoch of each affected file, so claims/forwards the dead node still
  /// has in flight carry stale epochs and are rejected rather than
  /// resurrecting its masters. Returns how many masters were purged.
  std::size_t purge_node(NodeId node);

  /// Directory reconstruction (e.g. after the directory holder itself is
  /// restarted): replaces the whole master map with `masters`, gathered
  /// from surviving per-node caches, and epoch-fences every file touched by
  /// the old or new map so anything in flight across the rebuild loses its
  /// race cleanly.
  void rebuild_masters(
      const std::vector<std::pair<BlockId, NodeId>>& masters);

  /// Write span fence. A writer brackets the whole multi-block write with
  /// write_begin/write_end; while any write to the file is in flight,
  /// read_cacheable() is false. The epoch alone cannot close this hole: a
  /// reader's entire lookup→fetch→insert can land inside the span, after the
  /// per-block write_claim bump and after the writer's invalidation sweep
  /// visited the reader's node, yet fetch bytes the writer is about to
  /// supersede. write_end also bumps the epoch so a reader whose lookup fell
  /// inside the span fails the epoch comparison after the span closes.
  void write_begin(FileId file);
  void write_end(FileId file);

  /// True when bytes of `file` fetched under a lookup that observed `epoch`
  /// are still safe to cache as a copy: no write is in flight and nothing
  /// (write claim, write completion, invalidation) bumped the epoch since.
  [[nodiscard]] bool read_cacheable(FileId file, std::uint64_t epoch) const;

  [[nodiscard]] std::uint64_t file_epoch(FileId file) const;

  /// Registered masters cluster-wide.
  [[nodiscard]] std::size_t master_count() const;

  [[nodiscard]] Ops ops() const;
  void reset_ops();

  // --- hinted mode ---
  [[nodiscard]] double hint_accuracy() const;
  /// Authoritative hint-layer location (for cross-shard audits).
  [[nodiscard]] NodeId hint_truth(const BlockId& b) const;
  /// Hint-layer internal-consistency sweep (0 in perfect mode).
  std::size_t audit(const char* context) const;

 private:
  friend struct DirectoryServiceTestPeer;  // test-only corruption (audit tests)

  // Lock-free bodies of the batchable operations: the public singles methods
  // and apply_batch() both dispatch here, so batched and single execution
  // cannot drift apart.
  ReadLookup lookup_for_read_locked(NodeId node, const BlockId& b)
      REQUIRES(mu_);
  bool try_claim_locked(const BlockId& b, NodeId node) REQUIRES(mu_);
  void master_dropped_locked(const BlockId& b, NodeId node) REQUIRES(mu_);
  std::uint64_t file_epoch_locked(FileId file) const REQUIRES(mu_);

  mutable util::Mutex mu_{"proto.directory"};
  cache::DirectoryMode mode_;  // immutable after construction
  cache::PerfectDirectory map_ GUARDED_BY(mu_);
  cache::HintedDirectory hints_ GUARDED_BY(mu_);
  std::unordered_map<FileId, std::uint64_t> epochs_ GUARDED_BY(mu_);
  std::unordered_map<FileId, std::uint32_t> writes_in_flight_ GUARDED_BY(mu_);
  Ops ops_ GUARDED_BY(mu_);
};

}  // namespace coop::proto
