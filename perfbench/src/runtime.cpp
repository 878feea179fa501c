// The runtime workloads: closed loops of whole-file reads (plus one-block
// writes and invalidations on the mixed ones) against CcmCluster, measured
// over a timed window cut into ~1 s slices whose medians are reported.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ccm/cluster.hpp"
#include "ccm/remote_storage.hpp"
#include "ccm/storage.hpp"
#include "checks.hpp"
#include "latency.hpp"
#include "net/tcp_transport.hpp"
#include "proto/message.hpp"
#include "sim/random.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cache = coop::cache;
namespace ccm = coop::ccm;
namespace net = coop::net;
namespace obs = coop::obs;
namespace proto = coop::proto;

namespace {

constexpr std::uint32_t kBlockBytes = 8 * 1024;
constexpr std::size_t kOpsPerClient = 1 << 17;  // stream length (wraps)
constexpr std::size_t kWarmupOpsPerClient = 400;
constexpr int kSetupRepeats = 5;  // setup_s is the median of these
constexpr std::uint64_t kFailedLatency = ~std::uint32_t{0};  // ~4.3 s

struct Shape {
  bool tcp = false;
  std::size_t nodes = 4;
  std::size_t files = 48;
  std::uint32_t file_blocks = 4;
  std::size_t cache_blocks = 64;  // per node
  std::size_t workers = 2;        // per node
  std::uint64_t write_pct = 0;
  std::uint64_t invalidate_pct = 0;
  std::size_t clients = 4;
  bool client_owns_node = false;  // client c drives only node c

  [[nodiscard]] std::uint32_t file_bytes() const {
    return file_blocks * kBlockBytes;
  }
  [[nodiscard]] bool writes() const { return write_pct > 0; }
};

Shape shape_of(const std::string& name) {
  Shape s;
  if (name == "read-hot") return s;
  if (name == "mixed-spill") {
    s.files = 192;
    s.write_pct = 20;
    s.invalidate_pct = 2;
    return s;
  }
  if (name == "tcp-mixed") {
    s.tcp = true;
    s.nodes = 3;
    s.files = 36;
    s.write_pct = 20;
    s.invalidate_pct = 2;
    s.clients = 3;
    s.client_owns_node = true;
    return s;
  }
  throw std::invalid_argument("not a runtime workload: " + name);
}

struct Op {
  OpKind kind = OpKind::kRead;
  std::uint8_t content = 0;  // writes: first byte of the written block
  cache::NodeId via = 0;
  cache::FileId file = 0;
  std::uint32_t block = 0;  // writes: block index within the file
};

/// Client `c`'s operation stream, drawn from the workload seed. Writers are
/// partitioned: client c only writes files f with f % clients == c, so no
/// two clients ever write the same block.
std::vector<Op> client_ops(const Shape& s, std::size_t clients, std::size_t c,
                           std::uint64_t seed) {
  coop::sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + c + 1);
  std::vector<Op> ops(kOpsPerClient);
  for (Op& op : ops) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(s.files));
    const auto drawn = static_cast<cache::NodeId>(rng.uniform_int(s.nodes));
    op.via = s.client_owns_node ? static_cast<cache::NodeId>(c) : drawn;
    const std::uint64_t roll = rng.uniform_int(100);
    if (roll < s.write_pct) {
      op.kind = OpKind::kWrite;
      op.file = static_cast<cache::FileId>(f - f % clients + c);
      op.block = static_cast<std::uint32_t>(rng.uniform_int(s.file_blocks));
      op.content = static_cast<std::uint8_t>(rng.uniform_int(256));
    } else if (roll < s.write_pct + s.invalidate_pct) {
      op.kind = OpKind::kInvalidate;
      op.file = f;
    } else {
      op.kind = OpKind::kRead;
      op.file = f;
    }
  }
  return ops;
}

/// One cluster in-process, or one CcmCluster per node over loopback TCP.
/// With a span log every layer seam gets its tracing decorator.
class Deployment {
 public:
  Deployment(const Shape& s, SpanLog* log) : shape_(s) {
    const std::vector<std::uint32_t> sizes(s.files, s.file_bytes());
    storage_ = std::make_shared<ccm::BufferStorage>(sizes);
    ccm::CcmConfig cfg;
    cfg.nodes = s.nodes;
    cfg.block_bytes = kBlockBytes;
    cfg.capacity_bytes = s.cache_blocks * kBlockBytes;
    cfg.workers_per_node = s.workers;

    // The decorated storage is itself writable, or CcmCluster::write throws.
    auto traced_storage =
        [log](std::shared_ptr<ccm::WritableStorage> st)
        -> std::shared_ptr<ccm::Storage> {
      if (!log) return st;
      return std::make_shared<TracingStorage>(std::move(st), *log);
    };
    // Wraps the home's LocalDirectory; service() still reaches it, so the
    // home keeps answering kDir* RPCs.
    auto local_directory = [&cfg,
                            log]() -> std::shared_ptr<ccm::DirectoryClient> {
      if (!log) return nullptr;  // CcmCluster builds its own
      return std::make_shared<TracingDirectory>(
          std::make_shared<ccm::LocalDirectory>(
              cfg.nodes, cfg.directory,
              cache::CoopCacheConfig{}.hint_staleness),
          *log);
    };

    if (!s.tcp) {
      ccm::CcmHosting hosting;
      if (log) {
        hosting.transport = std::make_shared<TracingTransport>(
            std::make_shared<net::InProcTransport>(s.nodes), *log);
      }
      hosting.directory = local_directory();
      clusters_.push_back(std::make_unique<ccm::CcmCluster>(
          cfg, traced_storage(storage_), std::move(hosting)));
      return;
    }

    // Loopback mesh: every node listens on an ephemeral port, then all
    // dial/accept concurrently.
    std::vector<std::shared_ptr<net::TcpTransport>> tcp;
    std::vector<net::TcpPeer> peers;
    for (std::size_t n = 0; n < s.nodes; ++n) {
      net::TcpConfig tc;
      tc.local_node = static_cast<cache::NodeId>(n);
      tc.nodes = s.nodes;
      tcp.push_back(std::make_shared<net::TcpTransport>(tc));
      peers.push_back({"127.0.0.1", tcp.back()->listen_port()});
    }
    {
      std::vector<std::exception_ptr> errors(s.nodes);
      std::vector<std::thread> mesh;
      for (std::size_t n = 0; n < s.nodes; ++n) {
        mesh.emplace_back([&peers, &errors, n, t = tcp[n]] {
          try {
            t->connect_peers(peers);
          } catch (...) {
            errors[n] = std::current_exception();
          }
        });
      }
      for (auto& t : mesh) t.join();
      for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }
    for (std::size_t n = 0; n < s.nodes; ++n) {
      const auto node = static_cast<cache::NodeId>(n);
      // The tracing decorator is the outermost transport, where CcmCluster
      // installs its metrics registry.
      std::shared_ptr<net::Transport> transport = tcp[n];
      if (log) transport = std::make_shared<TracingTransport>(transport, *log);
      ccm::CcmHosting hosting;
      hosting.transport = transport;
      hosting.local_nodes = {node};
      hosting.home = 0;
      std::shared_ptr<ccm::Storage> storage;
      if (n == 0) {
        storage = traced_storage(storage_);
        hosting.directory = local_directory();
      } else {
        storage = traced_storage(
            std::make_shared<ccm::RemoteStorage>(transport, node, 0, sizes));
        hosting.directory =
            std::make_shared<ccm::RemoteDirectory>(transport, node, 0);
        if (log) {
          hosting.directory =
              std::make_shared<TracingDirectory>(hosting.directory, *log);
        }
      }
      clusters_.push_back(
          std::make_unique<ccm::CcmCluster>(cfg, storage, std::move(hosting)));
      ccm::CcmCluster* cluster = clusters_.back().get();
      tcp[n]->set_summary_source(
          [cluster, node] { return cluster->published_summary(node); });
    }
  }

  ~Deployment() {
    // Peers first: their shutdown still talks to the home node.
    while (!clusters_.empty()) clusters_.pop_back();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] ccm::CcmCluster& at(cache::NodeId node) {
    return *clusters_[shape_.tcp ? node : 0];
  }
  [[nodiscard]] const std::vector<std::unique_ptr<ccm::CcmCluster>>&
  clusters() const {
    return clusters_;
  }
  [[nodiscard]] ccm::BufferStorage& storage() { return *storage_; }

  /// Seeds every file with pattern(file_bytes, file id).
  void seed_files() {
    for (std::size_t f = 0; f < shape_.files; ++f) {
      const auto via = static_cast<cache::NodeId>(f % shape_.nodes);
      at(via).write(via, static_cast<cache::FileId>(f), 0,
                    pattern(shape_.file_bytes(), static_cast<std::uint8_t>(f)));
    }
  }

 private:
  Shape shape_;
  std::shared_ptr<ccm::BufferStorage> storage_;
  std::vector<std::unique_ptr<ccm::CcmCluster>> clusters_;
};

/// The public counters of every cluster in a deployment, summed.
struct LayerCounters {
  cache::CacheStats totals;
  std::uint64_t lock_acquired = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t hint_hits = 0;
  std::uint64_t hint_stale = 0;
  ccm::DirectoryClient::Calls dir_client;
  proto::DirectoryService::Ops dir_ops;
  obs::MetricsSnapshot metrics;
  net::TransportStats transport;

  static LayerCounters of(const Deployment& dep) {
    LayerCounters c;
    bool first = true;
    for (const auto& cl : dep.clusters()) {
      const ccm::CcmStats s = cl->stats();
      c.totals.local_hits += s.local_hits;
      c.totals.remote_hits += s.remote_hits;
      c.totals.disk_reads += s.disk_reads;
      c.totals.forwards_attempted += s.forwards_attempted;
      c.totals.forwards_accepted += s.forwards_accepted;
      for (const auto& sh : s.shards) {
        c.lock_acquired += sh.lock_acquired;
        c.lock_contended += sh.lock_contended;
      }
      c.hint_hits += s.hint_hits;
      c.hint_stale += s.hint_stale;
      c.dir_client.singles += s.dir_client.singles;
      c.dir_client.batches += s.dir_client.batches;
      c.dir_client.batched_ops += s.dir_client.batched_ops;
      c.dir_ops.lookups += s.directory.lookups;
      c.dir_ops.claims += s.directory.claims;
      c.dir_ops.claim_conflicts += s.directory.claim_conflicts;
      c.transport.sent += s.transport.sent;
      c.transport.flushes += s.transport.flushes;
      c.transport.bytes_sent += s.transport.bytes_sent;
      c.transport.rpc_retries += s.transport.rpc_retries;
      const obs::MetricsSnapshot m = cl->metrics().snapshot();
      if (first) {
        c.metrics = m;
        first = false;
      } else {
        c.metrics.merge(m);
      }
    }
    return c;
  }
};

/// What the clients saw over one timed window, per ~1 s slice.
struct Window {
  std::uint64_t start_ns = 0;
  std::uint64_t slice_ns = 1;
  std::size_t slices = 1;
  std::vector<std::uint64_t> completed;  // per slice
  std::vector<LatencyHist> read_ns;   // per slice
  std::vector<LatencyHist> write_ns;  // per slice
  std::vector<ProcSample> marks;  // process/host counters at slice bounds
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  explicit Window(double seconds)
      : slices(std::max<std::size_t>(1, static_cast<std::size_t>(
                                            std::lround(seconds)))),
        completed(slices, 0),
        read_ns(slices),
        write_ns(slices),
        marks(slices + 1) {
    slice_ns = static_cast<std::uint64_t>(seconds * 1e9 /
                                          static_cast<double>(slices));
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(slice_ns) * static_cast<double>(slices) / 1e9;
  }
  [[nodiscard]] double slice_seconds() const {
    return static_cast<double>(slice_ns) / 1e9;
  }
  [[nodiscard]] std::uint64_t completed_total() const {
    std::uint64_t n = 0;
    for (const auto c : completed) n += c;
    return n;
  }
};

/// A client's cursor into its stream plus what it observed in one phase.
struct Client {
  const std::vector<Op>* ops = nullptr;
  std::size_t pos = 0;
  std::vector<std::uint64_t> completed;
  std::vector<LatencyHist> read_ns;
  std::vector<LatencyHist> write_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

class Runner {
 public:
  Runner(const Shape& s, std::size_t clients, std::uint64_t seed)
      : shape_(s), clients_(clients), checker_(kBlockBytes), writes_(256) {
    for (std::size_t c = 0; c < clients; ++c) {
      streams_.push_back(client_ops(s, clients, c, seed));
    }
    for (std::size_t b = 0; b < writes_.size(); ++b) {
      writes_[b] = pattern(kBlockBytes, static_cast<std::uint8_t>(b));
    }
    for (std::size_t f = 0; f < s.files; ++f) {
      seeded_.push_back(pattern(s.file_bytes(), static_cast<std::uint8_t>(f)));
    }
  }

  /// Builds, seeds and warms a deployment; returns its set-up seconds.
  double set_up(std::unique_ptr<Deployment>& dep, SpanLog* log) {
    const std::uint64_t t0 = now_ns();
    dep = std::make_unique<Deployment>(shape_, log);
    dep->seed_files();
    std::vector<Client> warm(clients_);
    run_clients(*dep, warm, nullptr, nullptr, kWarmupOpsPerClient, nullptr);
    for (const Client& c : warm) {
      if (c.failed != 0) {
        throw std::runtime_error("warm-up op failed: " + c.problems.front());
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  /// Runs every client closed-loop for `seconds` (after warm-up).
  Window measure(Deployment& dep, double seconds, SpanLog* log) {
    std::vector<Client> clients(clients_);
    for (Client& c : clients) c.pos = kWarmupOpsPerClient;  // after warm-up
    Window w(seconds);
    std::atomic<bool> stop{false};
    w.marks.front() = sample_proc();
    w.start_ns = now_ns();
    std::thread timer([&stop, &w] {
      for (std::size_t i = 1; i <= w.slices; ++i) {
        const std::uint64_t due = w.start_ns + i * w.slice_ns;
        const std::uint64_t now = now_ns();
        if (due > now) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(static_cast<std::int64_t>(due - now)));
        }
        w.marks[i] = sample_proc();
      }
      stop.store(true, std::memory_order_relaxed);
    });
    run_clients(dep, clients, &w, &stop, 0, log);
    timer.join();
    for (const Client& c : clients) {
      for (std::size_t i = 0; i < w.slices; ++i) {
        w.completed[i] += c.completed[i];
        w.read_ns[i].merge(c.read_ns[i]);
        w.write_ns[i].merge(c.write_ns[i]);
      }
      w.attempted += c.attempted;
      w.failed += c.failed;
      for (const auto& p : c.problems) {
        if (w.problems.size() < 8) w.problems.push_back(p);
      }
    }
    return w;
  }

  /// After the window: every file read through every node must equal
  /// storage (and, on read-hot, the seeded bytes); every cluster must pass
  /// its consistency audit. Failures count against the run.
  void verify(Deployment& dep, Report& r) {
    std::vector<std::byte> truth;
    for (std::size_t f = 0; f < shape_.files; ++f) {
      const auto file = static_cast<cache::FileId>(f);
      truth.resize(shape_.file_bytes());
      dep.storage().read(file, 0, truth);
      if (!shape_.writes() && !exact_ok(truth, seeded_[f])) {
        r.problem("storage of file " + std::to_string(f) +
                  " differs from its seeded bytes");
      }
      for (std::size_t n = 0; n < shape_.nodes; ++n) {
        const auto node = static_cast<cache::NodeId>(n);
        ++r.attempted;
        try {
          if (!exact_ok(dep.at(node).read(node, file), truth)) {
            ++r.failed;
            r.problem("post-run read of file " + std::to_string(f) +
                      " via node " + std::to_string(n) +
                      " differs from storage");
          }
        } catch (const std::exception& e) {
          ++r.failed;
          r.problem(std::string("post-run read threw: ") + e.what());
        }
      }
    }
    for (const auto& c : dep.clusters()) {
      if (!c->check_consistency()) r.problem("check_consistency() failed");
    }
  }

 private:
  /// Runs the clients until `stop` (or `limit` ops each when stop is null).
  void run_clients(Deployment& dep, std::vector<Client>& clients, Window* w,
                   const std::atomic<bool>* stop, std::size_t limit,
                   SpanLog* log) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      Client& cl = clients[c];
      cl.ops = &streams_[c];
      const std::size_t slices = w ? w->slices : 1;
      cl.completed.assign(slices, 0);
      cl.read_ns.assign(slices, LatencyHist{});
      cl.write_ns.assign(slices, LatencyHist{});
      threads.emplace_back([this, &dep, &cl, w, stop, limit, log, c] {
        client_loop(dep, cl, w, stop, limit, log, c);
      });
    }
    for (auto& t : threads) t.join();
  }

  void client_loop(Deployment& dep, Client& cl, const Window* w,
                   const std::atomic<bool>* stop, std::size_t limit,
                   SpanLog* log, std::size_t client) {
    const std::vector<Op>& ops = *cl.ops;
    std::uint64_t op_id = static_cast<std::uint64_t>(client) << 40;
    for (std::size_t done = 0;; ++done) {
      if (stop ? stop->load(std::memory_order_relaxed) : done == limit) break;
      const Op& op = ops[cl.pos++ % ops.size()];
      ccm::CcmCluster& cluster = dep.at(op.via);
      bool ok = true;
      std::string problem;
      std::vector<std::byte> bytes;
      const std::uint64_t t0 = now_ns();
      try {
        switch (op.kind) {
          case OpKind::kRead:
            bytes = cluster.read(op.via, op.file);
            break;
          case OpKind::kWrite:
            cluster.write(op.via, op.file,
                          std::uint64_t{op.block} * kBlockBytes,
                          writes_[op.content]);
            break;
          case OpKind::kInvalidate:
            cluster.invalidate(op.file);
            break;
        }
      } catch (const std::exception& e) {
        ok = false;
        problem = std::string("op threw: ") + e.what();
      }
      const std::uint64_t t1 = now_ns();
      if (log) {
        log->record(Layer::kOp, static_cast<std::uint8_t>(op.kind), t0, t1,
                    ++op_id, ok ? 0 : kSpanFailed);
      }
      if (ok && op.kind == OpKind::kRead) {
        const bool good = shape_.writes()
                              ? checker_.file_ok(bytes, shape_.file_bytes())
                              : exact_ok(bytes, seeded_[op.file]);
        if (!good) {
          ok = false;
          problem = "read of file " + std::to_string(op.file) + " returned " +
                    std::to_string(bytes.size()) +
                    " bytes that fail the byte check";
        }
      }
      ++cl.attempted;
      if (!ok) {
        ++cl.failed;
        if (cl.problems.size() < 4) cl.problems.push_back(problem);
      }
      if (!w || t1 < w->start_ns) continue;
      const std::uint64_t slice = (t1 - w->start_ns) / w->slice_ns;
      if (slice >= w->slices) continue;  // completed after the window
      if (ok) ++cl.completed[slice];
      // A failed op counts as missing every latency figure.
      const std::uint64_t lat =
          ok ? std::min(t1 - t0, kFailedLatency - 1) : kFailedLatency;
      if (op.kind == OpKind::kRead) cl.read_ns[slice].add(lat);
      if (op.kind == OpKind::kWrite) cl.write_ns[slice].add(lat);
    }
  }

  Shape shape_;
  std::size_t clients_;
  BlockShapeChecker checker_;
  std::vector<std::vector<Op>> streams_;
  std::vector<std::vector<std::byte>> writes_;  // one block per first byte
  std::vector<std::vector<std::byte>> seeded_;  // per file
};

// The gated throughput and latencies take each window's best 1 s slice: the
// most completions, the lowest latency percentile. Neighbouring VMs on a
// shared host only ever slow a slice down (in bursts of seconds, with CPU
// steal up to a quarter of the time), so the best slice is the steadiest
// estimate of what the program itself does; the whole-window figures are
// reported beside them as window_*. CPU per operation hardly moves with
// steal and is taken over the whole window.

/// Lowest per-slice latency quantile, µs.
double best_slice_quantile_us(const std::vector<LatencyHist>& s, double q) {
  double best = 0.0;
  for (const LatencyHist& h : s) {
    if (h.count() == 0) continue;
    const double us = h.quantile(q) / 1000.0;
    if (best == 0.0 || us < best) best = us;
  }
  return best;
}

double best_slice_ops_per_s(const Window& w) {
  return static_cast<double>(
             *std::max_element(w.completed.begin(), w.completed.end())) /
         w.slice_seconds();
}

/// Every slice of the window in one histogram.
LatencyHist pooled(const std::vector<LatencyHist>& s) {
  LatencyHist all;
  for (const LatencyHist& h : s) all.merge(h);
  return all;
}

template <typename F>
std::string per_slice(std::size_t slices, F&& value) {
  std::string out;
  for (std::size_t i = 0; i < slices; ++i) {
    if (i) out += ',';
    out += std::to_string(value(i));
  }
  return out;
}

void add_window_metrics(const Shape& s, const Window& w, Report& r) {
  const double ops = static_cast<double>(w.completed_total());
  const ProcSample& start = w.marks.front();
  const ProcSample& end = w.marks.back();
  r.add("ops_per_s", best_slice_ops_per_s(w), "1/s");
  r.add("read_p50_us", best_slice_quantile_us(w.read_ns, 0.50), "us");
  r.add("read_p99_us", best_slice_quantile_us(w.read_ns, 0.99), "us");
  const LatencyHist reads = pooled(w.read_ns);
  const LatencyHist writes = pooled(w.write_ns);
  r.add("read_samples", static_cast<double>(reads.count()), "count");
  if (s.writes()) {
    r.add("write_p50_us", best_slice_quantile_us(w.write_ns, 0.50), "us");
    r.add("write_p99_us", best_slice_quantile_us(w.write_ns, 0.99), "us");
    r.add("write_samples", static_cast<double>(writes.count()), "count");
  }
  r.add("cpu_us_per_op",
        ops > 0 ? (end.cpu_s - start.cpu_s) * 1e6 / ops : 0.0, "us");
  r.add("error_rate",
        w.attempted ? static_cast<double>(w.failed) /
                          static_cast<double>(w.attempted)
                    : 0.0,
        "fraction");
  r.add("window_ops_per_s", ops / w.seconds(), "1/s");
  r.add("window_read_p50_us", reads.quantile(0.50) / 1000.0, "us");
  r.add("window_read_p99_us", reads.quantile(0.99) / 1000.0, "us");
  if (s.writes()) {
    r.add("window_write_p50_us", writes.quantile(0.50) / 1000.0, "us");
    r.add("window_write_p99_us", writes.quantile(0.99) / 1000.0, "us");
  }
  r.add("host.steal_share", steal_share(start, end), "fraction");
  r.note("ops_per_slice",
         per_slice(w.slices, [&w](std::size_t i) { return w.completed[i]; }));
  r.note("steal_per_slice", per_slice(w.slices, [&w](std::size_t i) {
           return steal_share(w.marks[i], w.marks[i + 1]);
         }));
  r.attempted += w.attempted;
  r.failed += w.failed;
  for (const auto& p : w.problems) r.problem(p);
}

/// Per-layer metrics of a traced window, from the spans plus the public
/// counters (reset at window start). With an empty log and zero counters
/// every metric reads 0 (layers a workload does not run).
void add_layer_metrics(const SpanLog& log, const LayerCounters& c,
                       std::int64_t vcsw, Report& r) {
  // --- from spans ---
  std::uint64_t ops = 0;
  double op_ns = 0.0;
  std::vector<std::uint64_t> write_op_ns;
  std::vector<std::uint64_t> net_ns;
  std::vector<std::uint64_t> handler_ns;
  std::vector<std::uint64_t> dir_ns;
  std::vector<std::uint64_t> storage_read_ns;
  std::vector<std::uint64_t> storage_write_ns;
  std::map<std::uint8_t, std::vector<std::uint64_t>> net_by_kind;
  // Op-thread (non-protocol) time inside the seams, by layer; net time that
  // ran inside a directory or storage call is the net layer's, not theirs.
  double seam_net = 0.0;
  double seam_dir = 0.0;
  double seam_storage = 0.0;

  for (const auto& t : log.threads()) {
    std::vector<Span> seam;
    for (const Span& sp : t->spans) {
      switch (sp.layer) {
        case Layer::kOp:
          ++ops;
          op_ns += static_cast<double>(sp.duration());
          if (sp.kind == static_cast<std::uint8_t>(OpKind::kWrite)) {
            write_op_ns.push_back(sp.duration());
          }
          break;
        case Layer::kNet:
          net_ns.push_back(sp.duration());
          net_by_kind[sp.kind].push_back(sp.duration());
          break;
        case Layer::kHandler:
          handler_ns.push_back(sp.duration());
          break;
        case Layer::kDir:
          dir_ns.push_back(sp.duration());
          break;
        case Layer::kStorage:
          if (t->protocol) break;  // the home serving a peer's storage RPC
          (sp.kind == static_cast<std::uint8_t>(StorageCall::kRead)
               ? storage_read_ns
               : storage_write_ns)
              .push_back(sp.duration());
          break;
        case Layer::kSim:
          break;
      }
      if (!t->protocol && (sp.layer == Layer::kNet || sp.layer == Layer::kDir ||
                           sp.layer == Layer::kStorage)) {
        seam.push_back(sp);
      }
    }
    // Calls on one thread nest or are disjoint: walk them in start order
    // (outer first on ties) and split each outer call's time by layer.
    std::sort(seam.begin(), seam.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.end_ns > b.end_ns;
    });
    std::uint64_t outer_end = 0;
    Layer outer = Layer::kNet;
    for (const Span& sp : seam) {
      const auto d = static_cast<double>(sp.duration());
      if (sp.start_ns >= outer_end) {
        outer_end = sp.end_ns;
        outer = sp.layer;
        (sp.layer == Layer::kNet   ? seam_net
         : sp.layer == Layer::kDir ? seam_dir
                                   : seam_storage) += d;
      } else if (sp.layer == Layer::kNet && outer != Layer::kNet) {
        seam_net += d;
        (outer == Layer::kDir ? seam_dir : seam_storage) -= d;
      }
    }
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double per_op = ops ? 1.0 / static_cast<double>(ops) : 0.0;
  const double self_ns = op_ns - seam_net - seam_dir - seam_storage;
  r.add("ccm.self_us_per_op", self_ns * per_op / 1000.0, "us");
  r.add("ccm.self_share", ratio(self_ns, op_ns), "ratio");
  r.add("net.share", ratio(seam_net, op_ns), "ratio");
  r.add("dir.share", ratio(seam_dir, op_ns), "ratio");
  r.add("storage.share", ratio(seam_storage, op_ns), "ratio");
  r.add("ccm.write_us_p50", quantile(write_op_ns, 0.50) / 1000.0, "us");
  r.add("ccm.write_us_p99", quantile(write_op_ns, 0.99) / 1000.0, "us");

  const double net_p50 = quantile(net_ns, 0.50) / 1000.0;
  const double handler_p50 = quantile(handler_ns, 0.50) / 1000.0;
  r.add("net.calls_per_op", static_cast<double>(net_ns.size()) * per_op,
        "count");
  r.add("net.call_us_p50", net_p50, "us");
  r.add("net.call_us_p99", quantile(net_ns, 0.99) / 1000.0, "us");
  r.add("net.handler_us_p50", handler_p50, "us");
  r.add("net.wire_us_p50", net_p50 > handler_p50 ? net_p50 - handler_p50 : 0.0,
        "us");
  // Every request kind, so each workload's report has the same names; the
  // kinds carrying under 1% of calls are listed in the info block.
  std::string minor_kinds;
  for (std::uint8_t k = 0; k < proto::kMsgKindCount; ++k) {
    const auto kind = static_cast<proto::MsgKind>(k);
    if (proto::is_reply(kind)) continue;
    std::vector<std::uint64_t>& v = net_by_kind[k];
    const std::string name = proto::kind_name(kind);
    r.add("net.calls_per_op." + name, static_cast<double>(v.size()) * per_op,
          "count");
    r.add("net.call_us_p50." + name, quantile(v, 0.50) / 1000.0, "us");
    if (!v.empty() && v.size() * 100 < net_ns.size()) {
      if (!minor_kinds.empty()) minor_kinds += ',';
      minor_kinds += name;
    }
  }
  r.note("net.kinds_under_1pct", minor_kinds);
  r.add("dir.trips_per_op", static_cast<double>(dir_ns.size()) * per_op,
        "count");
  r.add("dir.call_us_p50", quantile(dir_ns, 0.50) / 1000.0, "us");
  r.add("dir.call_us_p99", quantile(dir_ns, 0.99) / 1000.0, "us");
  r.add("storage.reads_per_op",
        static_cast<double>(storage_read_ns.size()) * per_op, "count");
  r.add("storage.read_us_p50", quantile(storage_read_ns, 0.50) / 1000.0,
        "us");
  r.add("storage.writes_per_op",
        static_cast<double>(storage_write_ns.size()) * per_op, "count");
  r.add("storage.write_us_p50", quantile(storage_write_ns, 0.50) / 1000.0,
        "us");

  // --- from the public counters ---
  const auto blocks = static_cast<double>(c.totals.block_accesses());
  r.add("ccm.local_hit_ratio",
        ratio(static_cast<double>(c.totals.local_hits), blocks), "ratio");
  r.add("ccm.remote_hit_ratio",
        ratio(static_cast<double>(c.totals.remote_hits), blocks), "ratio");
  r.add("ccm.disk_read_ratio",
        ratio(static_cast<double>(c.totals.disk_reads), blocks), "ratio");
  r.add("ccm.hint_hit_ratio",
        ratio(static_cast<double>(c.hint_hits),
              static_cast<double>(c.hint_hits + c.dir_ops.lookups)),
        "ratio");
  r.add("ccm.hint_stale_ratio",
        ratio(static_cast<double>(c.hint_stale),
              static_cast<double>(c.hint_hits)),
        "ratio");
  r.add("ccm.forwards_per_op",
        static_cast<double>(c.totals.forwards_attempted) * per_op, "count");
  r.add("ccm.forward_accept_ratio",
        ratio(static_cast<double>(c.totals.forwards_accepted),
              static_cast<double>(c.totals.forwards_attempted)),
        "ratio");
  r.add("ccm.uncached_fallbacks_per_op",
        static_cast<double>(c.metrics.counters[static_cast<std::size_t>(
            obs::RtCounter::kUncachedFallback)]) *
            per_op,
        "count");
  r.add("ccm.lock_contention_ratio",
        ratio(static_cast<double>(c.lock_contended),
              static_cast<double>(c.lock_acquired)),
        "ratio");
  r.add("ccm.lock_wait_us_p99", c.metrics.lock_wait_ns.percentile(0.99) / 1000.0,
        "us");
  r.add("dir.ops_per_trip",
        ratio(static_cast<double>(c.dir_client.singles +
                                  c.dir_client.batched_ops),
              static_cast<double>(c.dir_client.trips())),
        "count");
  r.add("dir.claim_conflict_ratio",
        ratio(static_cast<double>(c.dir_ops.claim_conflicts),
              static_cast<double>(c.dir_ops.claims + c.dir_ops.claim_conflicts)),
        "ratio");
  const auto sent = static_cast<double>(c.transport.sent);
  r.add("net.msgs_per_op", sent * per_op, "count");
  r.add("net.msgs_per_flush", ratio(sent, static_cast<double>(c.transport.flushes)),
        "count");
  r.add("net.bytes_per_op", static_cast<double>(c.transport.bytes_sent) * per_op,
        "B");
  r.add("net.rpc_retries_per_op",
        static_cast<double>(c.transport.rpc_retries) * per_op, "count");
  r.add("proc.vcsw_per_op", static_cast<double>(vcsw) * per_op, "count");
  r.add("trace.ops", static_cast<double>(ops), "count");
}

/// `after` minus `before` for the transport fields the layer metrics use
/// (TransportStats is not reset by reset_stats()).
LayerCounters window_counters(const Deployment& dep,
                              const net::TransportStats& before) {
  LayerCounters c = LayerCounters::of(dep);
  c.transport.sent -= before.sent;
  c.transport.flushes -= before.flushes;
  c.transport.bytes_sent -= before.bytes_sent;
  return c;
}

}  // namespace

bool is_runtime_workload(const std::string& name) {
  return name == "read-hot" || name == "mixed-spill" || name == "tcp-mixed";
}

void add_absent_runtime_layers(Report& r) {
  const SpanLog empty;
  add_layer_metrics(empty, LayerCounters{}, 0, r);
}

Report run_runtime(const Options& o) {
  const Shape shape = shape_of(o.workload);
  const std::size_t clients = o.clients ? o.clients : shape.clients;
  if (shape.writes() && shape.files % clients != 0) {
    throw std::invalid_argument("partitioned writers need files % clients == 0");
  }
  if (shape.client_owns_node && clients != shape.nodes) {
    throw std::invalid_argument("tcp-mixed runs one client per node");
  }
  Report r;
  r.workload = o.workload;
  r.trace = o.trace;
  note_host(r);
  r.note("clients", std::to_string(clients));
  Runner runner(shape, clients, o.seed);

  if (!o.trace) {
    std::vector<double> setups;
    std::unique_ptr<Deployment> dep;
    for (int i = 0; i < kSetupRepeats; ++i) {
      dep.reset();  // tear-down is not set-up time
      setups.push_back(runner.set_up(dep, nullptr));
    }
    const Window w = runner.measure(*dep, o.seconds, nullptr);
    add_window_metrics(shape, w, r);
    r.add("setup_s", median(setups), "s");
    runner.verify(*dep, r);
    dep.reset();
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  // Traced run: an untraced half-window for reference, then a traced
  // half-window on a fresh deployment with every seam decorated.
  const double half = o.seconds / 2;
  double untraced_ops_per_s = 0.0;
  {
    std::unique_ptr<Deployment> dep;
    runner.set_up(dep, nullptr);
    const Window w = runner.measure(*dep, half, nullptr);
    untraced_ops_per_s = best_slice_ops_per_s(w);
    r.attempted += w.attempted;
    r.failed += w.failed;
    for (const auto& p : w.problems) r.problem(p);
  }
  SpanLog log;
  std::unique_ptr<Deployment> dep;
  runner.set_up(dep, &log);
  for (const auto& c : dep->clusters()) c->reset_stats();
  const net::TransportStats before = LayerCounters::of(*dep).transport;
  log.set_enabled(true);
  const Window w = runner.measure(*dep, half, &log);
  log.set_enabled(false);
  const LayerCounters counters = window_counters(*dep, before);
  r.attempted += w.attempted;
  r.failed += w.failed;
  for (const auto& p : w.problems) r.problem(p);
  runner.verify(*dep, r);
  dep.reset();  // joins every recording thread before the spans are read

  add_layer_metrics(log, counters, w.marks.back().vcsw - w.marks.front().vcsw,
                    r);
  add_overhead_metrics(best_slice_ops_per_s(w), untraced_ops_per_s, r);
  r.add("cache.access_ns", 0.0, "ns");     // simulator layers: not run here
  r.add("trace.generate_ms", 0.0, "ms");
  r.add("spans", static_cast<double>(log.span_count()), "count");
  write_spans(o, log, r);
  return r;
}

}  // namespace perfbench
