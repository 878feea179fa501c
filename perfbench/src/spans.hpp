// Benchmark-side tracing: an in-memory span log plus decorators that time
// every call into a runtime layer from outside the program, through the seams
// the runtime already lets a caller inject (CcmHosting::transport,
// CcmHosting::directory, and the Storage handed to CcmCluster).
//
// One span per call: layer, call kind, recording thread, start, end, and the
// benchmark's op id where the seam exposes it (only the op layer does). Spans
// stay in per-thread buffers while the traced window runs and are collected
// once every recording thread has been joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ccm/directory_client.hpp"
#include "ccm/storage.hpp"
#include "net/transport.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kOp,       // one client operation (CcmCluster::read/write/invalidate)
  kNet,      // net::Transport::call, request kind
  kHandler,  // receive -> reply post on a protocol thread, request kind
  kDir,      // DirectoryClient protocol call, DirCall kind
  kStorage,  // Storage::read / WritableStorage::write
  kSim,      // simulator entry points (kind: SimCall)
};

/// Directory call kinds (the DirectoryClient protocol surface).
enum class DirCall : std::uint8_t {
  kLookupForRead, kLookup, kTryClaim, kBeginForward, kClaimForwarded,
  kForwardRejected, kMasterDropped, kWriteClaim, kInvalidateFile,
  kWriteBegin, kWriteEnd, kReadCacheable, kPurgeNode, kBatch,
};

enum class OpKind : std::uint8_t { kRead, kWrite, kInvalidate };
enum class StorageCall : std::uint8_t { kRead, kWrite };
enum class SimCall : std::uint8_t { kGenerate, kRunSimulation, kReplay };

inline constexpr std::uint8_t kSpanFailed = 1;  // the call threw

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
  Layer layer = Layer::kOp;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;

  [[nodiscard]] std::uint64_t duration() const { return end_ns - start_ns; }
};

/// Monotonic nanoseconds.
std::uint64_t now_ns();

/// Per-thread span buffers. record() is lock-free after a thread's first
/// span; threads() may be read only once every recording thread has been
/// joined.
class SpanLog {
 public:
  struct ThreadSpans {
    std::uint32_t thread = 0;
    bool protocol = false;  // this thread pulled requests via receive()
    std::vector<Span> spans;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(Layer layer, std::uint8_t kind, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint64_t op = 0,
              std::uint8_t flags = 0);
  /// Marks the calling thread as a protocol (message-serving) thread.
  void mark_protocol_thread();

  /// The per-thread buffers; call only once recording threads are joined.
  [[nodiscard]] const std::vector<std::unique_ptr<ThreadSpans>>& threads()
      const {
    return threads_;
  }
  [[nodiscard]] std::size_t span_count() const;

  /// Writes every span as a fixed 32-byte little-endian record (start, end,
  /// op, thread, layer, kind, flags, protocol-thread bit).
  bool write(const std::string& path) const;

 private:
  ThreadSpans& local();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;  // guards threads_ growth (registration only)
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
  const std::uint64_t generation_ = next_generation();
  static std::uint64_t next_generation();
};

/// Times a scope into `log` (nothing when the log is disabled).
class SpanTimer {
 public:
  SpanTimer(SpanLog& log, Layer layer, std::uint8_t kind)
      : log_(log), layer_(layer), kind_(kind), start_(now_ns()) {}
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  void done() { ok_ = true; }

 private:
  SpanLog& log_;
  Layer layer_;
  std::uint8_t kind_;
  std::uint64_t start_;
  bool ok_ = false;
};

/// Outermost transport: times call() per request kind and, on protocol
/// threads, the stretch from receive() to the reply's post().
class TracingTransport final : public coop::net::Transport {
 public:
  TracingTransport(std::shared_ptr<coop::net::Transport> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  bool post(coop::net::Envelope env) override;
  std::optional<coop::net::Envelope> receive(coop::cache::NodeId node) override;
  void close() override { inner_->close(); }
  [[nodiscard]] coop::net::TransportStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::uint64_t peer_oldest_age(
      coop::cache::NodeId n) const override {
    return inner_->peer_oldest_age(n);
  }
  [[nodiscard]] bool peer_full(coop::cache::NodeId n) const override {
    return inner_->peer_full(n);
  }

 protected:
  coop::net::Envelope call_impl(coop::net::Envelope env) override;

 private:
  std::shared_ptr<coop::net::Transport> inner_;
  SpanLog& log_;
};

/// Times every directory protocol call; service() still exposes the wrapped
/// LocalDirectory's service so the home node keeps answering kDir* RPCs.
class TracingDirectory final : public coop::ccm::DirectoryClient {
 public:
  TracingDirectory(std::shared_ptr<coop::ccm::DirectoryClient> inner,
                   SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  coop::proto::DirectoryService::Ops ops() override { return inner_->ops(); }
  void reset_ops() override { inner_->reset_ops(); }
  double hint_accuracy() override { return inner_->hint_accuracy(); }
  coop::cache::NodeId hint_truth(const coop::cache::BlockId& b) override {
    return inner_->hint_truth(b);
  }
  std::size_t master_count() override { return inner_->master_count(); }
  std::size_t audit(const char* context) override {
    return inner_->audit(context);
  }
  coop::proto::DirectoryService* service() override {
    return inner_->service();
  }

 protected:
  coop::proto::DirectoryService::ReadLookup lookup_for_read_impl(
      coop::cache::NodeId node, const coop::cache::BlockId& b) override;
  coop::cache::NodeId lookup_impl(const coop::cache::BlockId& b) override;
  bool try_claim_impl(const coop::cache::BlockId& b,
                      coop::cache::NodeId node) override;
  std::optional<std::uint64_t> begin_forward_impl(
      const coop::cache::BlockId& b, coop::cache::NodeId from) override;
  bool claim_forwarded_impl(const coop::cache::BlockId& b,
                            coop::cache::NodeId to, coop::cache::NodeId from,
                            std::uint64_t epoch) override;
  void forward_rejected_impl(const coop::cache::BlockId& b,
                             coop::cache::NodeId from) override;
  void master_dropped_impl(const coop::cache::BlockId& b,
                           coop::cache::NodeId node) override;
  coop::cache::NodeId write_claim_impl(const coop::cache::BlockId& b,
                                       coop::cache::NodeId writer) override;
  void invalidate_file_impl(coop::cache::FileId file) override;
  void write_begin_impl(coop::cache::FileId file) override;
  void write_end_impl(coop::cache::FileId file) override;
  bool read_cacheable_impl(coop::cache::FileId file,
                           std::uint64_t epoch) override;
  std::size_t purge_node_impl(coop::cache::NodeId node) override;
  std::vector<coop::proto::DirBatchResult> batch_impl(
      coop::cache::NodeId node,
      std::span<const coop::proto::DirBatchItem> items) override;

 private:
  std::shared_ptr<coop::ccm::DirectoryClient> inner_;
  SpanLog& log_;
};

/// Times storage reads and writes. It is itself a WritableStorage, so
/// CcmCluster::write keeps working through it.
class TracingStorage final : public coop::ccm::WritableStorage {
 public:
  TracingStorage(std::shared_ptr<coop::ccm::WritableStorage> inner,
                 SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::size_t file_count() const override {
    return inner_->file_count();
  }
  [[nodiscard]] std::uint64_t file_size(
      coop::cache::FileId file) const override {
    return inner_->file_size(file);
  }
  void read(coop::cache::FileId file, std::uint64_t offset,
            std::span<std::byte> out) const override;
  void write(coop::cache::FileId file, std::uint64_t offset,
             std::span<const std::byte> data) override;

 private:
  std::shared_ptr<coop::ccm::WritableStorage> inner_;
  SpanLog& log_;
};

// --- analysis helpers ---

/// q-quantile (q in [0,1]) of `v` by nearest rank; sorts `v`. 0 when empty.
double quantile(std::vector<std::uint64_t>& v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
