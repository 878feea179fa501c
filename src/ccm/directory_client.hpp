// Where the runtime's directory lives, abstracted.
//
// CcmCluster consults the cluster-wide master directory on every miss,
// forward, write, and invalidation. In-process the directory is a local
// object (LocalDirectory wraps a proto::DirectoryService); in the
// multi-process cluster it lives in the process hosting node 0 and every
// other process reaches it with kDir* RPCs over the transport
// (RemoteDirectory). The runtime code is identical either way — it speaks
// DirectoryClient.
//
// The public protocol surface is NON-virtual: every call is counted at the
// base class — the one place — and then dispatched to the protected *_impl
// virtuals. The counters are the "directory RPC" metric the batching work
// is judged by (bench --json, the perf-smoke CI job): with a remote client
// each counted call is one wire RPC; with a local client it is one
// directory-lock acquisition — the same contended resource either way.
//
// The wait-for graph stays acyclic: RemoteDirectory calls block only on the
// home node, and the home node's directory handlers never block on anything
// (DirectoryService is a leaf lock with no I/O), so a protocol thread that
// issues a remote directory RPC mid-handler cannot deadlock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/transport.hpp"
#include "proto/dir_batch.hpp"
#include "proto/directory_service.hpp"

namespace coop::ccm {

/// The directory operations the runtime needs, mirroring
/// proto::DirectoryService (see that header for semantics).
class DirectoryClient {
 public:
  /// Snapshot of the call counters (relaxed; merged into CcmStats).
  struct Calls {
    std::uint64_t singles = 0;      // single-op protocol calls issued
    std::uint64_t batches = 0;      // kDirBatch round trips issued
    std::uint64_t batched_ops = 0;  // ops carried inside those batches
    /// Directory round trips — the number perf-smoke's trips-per-op
    /// ceiling holds (each batch is one trip no matter how many ops ride
    /// it).
    [[nodiscard]] std::uint64_t trips() const { return singles + batches; }
  };

  virtual ~DirectoryClient() = default;

  // ---- protocol surface (counted, non-virtual) ----

  proto::DirectoryService::ReadLookup lookup_for_read(
      cache::NodeId node, const cache::BlockId& b) {
    count_single();
    return lookup_for_read_impl(node, b);
  }
  cache::NodeId lookup(const cache::BlockId& b) {
    count_single();
    return lookup_impl(b);
  }
  bool try_claim(const cache::BlockId& b, cache::NodeId node) {
    count_single();
    return try_claim_impl(b, node);
  }
  std::optional<std::uint64_t> begin_forward(const cache::BlockId& b,
                                             cache::NodeId from) {
    count_single();
    return begin_forward_impl(b, from);
  }
  bool claim_forwarded(const cache::BlockId& b, cache::NodeId to,
                       cache::NodeId from, std::uint64_t epoch) {
    count_single();
    return claim_forwarded_impl(b, to, from, epoch);
  }
  void forward_rejected(const cache::BlockId& b, cache::NodeId from) {
    count_single();
    forward_rejected_impl(b, from);
  }
  void master_dropped(const cache::BlockId& b, cache::NodeId node) {
    count_single();
    master_dropped_impl(b, node);
  }
  cache::NodeId write_claim(const cache::BlockId& b, cache::NodeId writer) {
    count_single();
    return write_claim_impl(b, writer);
  }
  void invalidate_file(cache::FileId file) {
    count_single();
    invalidate_file_impl(file);
  }
  void write_begin(cache::FileId file) {
    count_single();
    write_begin_impl(file);
  }
  void write_end(cache::FileId file) {
    count_single();
    write_end_impl(file);
  }
  bool read_cacheable(cache::FileId file, std::uint64_t epoch) {
    count_single();
    return read_cacheable_impl(file, epoch);
  }
  /// Crash fence: unregisters every master at `node` and epoch-fences the
  /// affected files (see DirectoryService::purge_node). Returns the number
  /// of masters purged.
  std::size_t purge_node(cache::NodeId node) {
    count_single();
    return purge_node_impl(node);
  }

  /// Batched directory ops issued by `node`: one round trip (and, at the
  /// service, one lock acquisition) for the whole vector. Returns one
  /// result per item, in order. Safe under at-least-once retry for the same
  /// reason the singles are: every op is idempotent or conditional.
  std::vector<proto::DirBatchResult> batch(
      cache::NodeId node, std::span<const proto::DirBatchItem> items) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_ops_.fetch_add(items.size(), std::memory_order_relaxed);
    return batch_impl(node, items);
  }

  [[nodiscard]] Calls calls() const {
    Calls c;
    c.singles = singles_.load(std::memory_order_relaxed);
    c.batches = batches_.load(std::memory_order_relaxed);
    c.batched_ops = batched_ops_.load(std::memory_order_relaxed);
    return c;
  }
  void reset_calls() {
    singles_.store(0, std::memory_order_relaxed);
    batches_.store(0, std::memory_order_relaxed);
    batched_ops_.store(0, std::memory_order_relaxed);
  }

  // Observability. Remote clients return empty/neutral values — directory
  // counters and audits are read where the directory lives (the home
  // process).
  virtual proto::DirectoryService::Ops ops() = 0;
  virtual void reset_ops() = 0;
  virtual double hint_accuracy() = 0;
  virtual cache::NodeId hint_truth(const cache::BlockId& b) = 0;
  virtual std::size_t master_count() = 0;
  virtual std::size_t audit(const char* context) = 0;

  /// The in-process service when the directory is local (home process and
  /// the all-in-one runtime); nullptr behind a remote client. CcmCluster
  /// uses this to answer kDir* RPCs on the directory's behalf.
  virtual proto::DirectoryService* service() { return nullptr; }

 protected:
  virtual proto::DirectoryService::ReadLookup lookup_for_read_impl(
      cache::NodeId node, const cache::BlockId& b) = 0;
  virtual cache::NodeId lookup_impl(const cache::BlockId& b) = 0;
  virtual bool try_claim_impl(const cache::BlockId& b, cache::NodeId node) = 0;
  virtual std::optional<std::uint64_t> begin_forward_impl(
      const cache::BlockId& b, cache::NodeId from) = 0;
  virtual bool claim_forwarded_impl(const cache::BlockId& b, cache::NodeId to,
                                    cache::NodeId from,
                                    std::uint64_t epoch) = 0;
  virtual void forward_rejected_impl(const cache::BlockId& b,
                                     cache::NodeId from) = 0;
  virtual void master_dropped_impl(const cache::BlockId& b,
                                   cache::NodeId node) = 0;
  virtual cache::NodeId write_claim_impl(const cache::BlockId& b,
                                         cache::NodeId writer) = 0;
  virtual void invalidate_file_impl(cache::FileId file) = 0;
  virtual void write_begin_impl(cache::FileId file) = 0;
  virtual void write_end_impl(cache::FileId file) = 0;
  virtual bool read_cacheable_impl(cache::FileId file,
                                   std::uint64_t epoch) = 0;
  virtual std::size_t purge_node_impl(cache::NodeId node) = 0;
  virtual std::vector<proto::DirBatchResult> batch_impl(
      cache::NodeId node, std::span<const proto::DirBatchItem> items) = 0;

 private:
  void count_single() { singles_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<std::uint64_t> singles_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
};

/// The directory is in this process: thin forwarding wrapper owning the
/// DirectoryService.
class LocalDirectory final : public DirectoryClient {
 public:
  LocalDirectory(std::size_t nodes, cache::DirectoryMode mode,
                 std::uint32_t hint_staleness)
      : svc_(nodes, mode, hint_staleness) {}

  proto::DirectoryService::Ops ops() override { return svc_.ops(); }
  void reset_ops() override { svc_.reset_ops(); }
  double hint_accuracy() override { return svc_.hint_accuracy(); }
  cache::NodeId hint_truth(const cache::BlockId& b) override {
    return svc_.hint_truth(b);
  }
  std::size_t master_count() override { return svc_.master_count(); }
  std::size_t audit(const char* context) override {
    return svc_.audit(context);
  }

  proto::DirectoryService* service() override { return &svc_; }

 protected:
  proto::DirectoryService::ReadLookup lookup_for_read_impl(
      cache::NodeId node, const cache::BlockId& b) override {
    return svc_.lookup_for_read(node, b);
  }
  cache::NodeId lookup_impl(const cache::BlockId& b) override {
    return svc_.lookup(b);
  }
  bool try_claim_impl(const cache::BlockId& b, cache::NodeId node) override {
    return svc_.try_claim(b, node);
  }
  std::optional<std::uint64_t> begin_forward_impl(const cache::BlockId& b,
                                                  cache::NodeId from) override {
    return svc_.begin_forward(b, from);
  }
  bool claim_forwarded_impl(const cache::BlockId& b, cache::NodeId to,
                            cache::NodeId from, std::uint64_t epoch) override {
    return svc_.claim_forwarded(b, to, from, epoch);
  }
  void forward_rejected_impl(const cache::BlockId& b,
                             cache::NodeId from) override {
    svc_.forward_rejected(b, from);
  }
  void master_dropped_impl(const cache::BlockId& b,
                           cache::NodeId node) override {
    svc_.master_dropped(b, node);
  }
  cache::NodeId write_claim_impl(const cache::BlockId& b,
                                 cache::NodeId writer) override {
    return svc_.write_claim(b, writer);
  }
  void invalidate_file_impl(cache::FileId file) override {
    svc_.invalidate_file(file);
  }
  void write_begin_impl(cache::FileId file) override {
    svc_.write_begin(file);
  }
  void write_end_impl(cache::FileId file) override { svc_.write_end(file); }
  bool read_cacheable_impl(cache::FileId file, std::uint64_t epoch) override {
    return svc_.read_cacheable(file, epoch);
  }
  std::size_t purge_node_impl(cache::NodeId node) override {
    return svc_.purge_node(node);
  }
  std::vector<proto::DirBatchResult> batch_impl(
      cache::NodeId node,
      std::span<const proto::DirBatchItem> items) override {
    std::vector<proto::DirBatchResult> out;
    svc_.apply_batch(node, items, out);
    return out;
  }

 private:
  proto::DirectoryService svc_;
};

/// The directory lives at `home` in another process; every operation is one
/// RPC over the transport. The ops a DirBatchOp carries (lookup_for_read,
/// try_claim, master_dropped, and read_cacheable as kValidate) travel as a
/// kDirBatchRequest of one item, answered by a kDirBatchReply whose payload
/// carries the result; the rest are single kDir* requests answered with a
/// generic kDirReply.
class RemoteDirectory final : public DirectoryClient {
 public:
  RemoteDirectory(std::shared_ptr<net::Transport> transport,
                  cache::NodeId local, cache::NodeId home)
      : transport_(std::move(transport)), local_(local), home_(home) {}

  proto::DirectoryService::Ops ops() override { return {}; }
  void reset_ops() override {}
  double hint_accuracy() override { return 1.0; }
  cache::NodeId hint_truth(const cache::BlockId&) override {
    return cache::kInvalidNode;
  }
  std::size_t master_count() override { return 0; }
  std::size_t audit(const char*) override { return 0; }

 protected:
  proto::DirectoryService::ReadLookup lookup_for_read_impl(
      cache::NodeId node, const cache::BlockId& b) override;
  cache::NodeId lookup_impl(const cache::BlockId& b) override;
  bool try_claim_impl(const cache::BlockId& b, cache::NodeId node) override;
  std::optional<std::uint64_t> begin_forward_impl(const cache::BlockId& b,
                                                  cache::NodeId from) override;
  bool claim_forwarded_impl(const cache::BlockId& b, cache::NodeId to,
                            cache::NodeId from, std::uint64_t epoch) override;
  void forward_rejected_impl(const cache::BlockId& b,
                             cache::NodeId from) override;
  void master_dropped_impl(const cache::BlockId& b,
                           cache::NodeId node) override;
  cache::NodeId write_claim_impl(const cache::BlockId& b,
                                 cache::NodeId writer) override;
  void invalidate_file_impl(cache::FileId file) override;
  void write_begin_impl(cache::FileId file) override;
  void write_end_impl(cache::FileId file) override;
  bool read_cacheable_impl(cache::FileId file, std::uint64_t epoch) override;
  std::size_t purge_node_impl(cache::NodeId node) override;
  std::vector<proto::DirBatchResult> batch_impl(
      cache::NodeId node, std::span<const proto::DirBatchItem> items) override;

 private:
  /// Round-trips one request and returns the kDirReply message.
  proto::Message ask(const proto::Message& request);
  /// batch_impl() for a single op.
  proto::DirBatchResult ask_one(cache::NodeId node, proto::DirBatchOp op,
                                const cache::BlockId& b);

  std::shared_ptr<net::Transport> transport_;
  cache::NodeId local_;
  cache::NodeId home_;
};

}  // namespace coop::ccm
