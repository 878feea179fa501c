// The simulator workload: the Figure-2 cell Rutgers / CC-NEM / 8 nodes /
// 32 MB per node, run whole through server::run_simulation on one thread,
// plus a replay of the same request stream through the policy engine alone
// (cache::ClusterCache::access), whose time per read stands in for a
// client's read latency. The trace is the preset's fixed one, so every seed
// simulates the same cell and must reproduce its results/fig2.csv row.
#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "cache/coop_cache.hpp"
#include "checks.hpp"
#include "harness/experiment.hpp"
#include "server/cluster.hpp"
#include "spans.hpp"
#include "trace/presets.hpp"
#include "trace/synthetic.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace cache = coop::cache;
namespace server = coop::server;
namespace trace = coop::trace;

constexpr std::size_t kRequests = 80000;  // Figure 2's request count
constexpr std::size_t kNodes = 8;
constexpr std::uint64_t kMemoryMb = 32;
constexpr int kSetupRepeats = 15;  // setup_s is the median of these

/// Everything built before timing starts.
struct Model {
  trace::Trace trace;
  server::ClusterConfig config;
  cache::CoopCacheConfig cache;
  double generate_ms = 0.0;
};

Model build_model(SpanLog& log) {
  Model m;
  trace::SyntheticSpec spec = trace::rutgers_spec();
  spec.num_requests = kRequests;
  const std::uint64_t t0 = now_ns();
  m.trace = trace::generate(spec);
  const std::uint64_t t1 = now_ns();
  log.record(Layer::kSim, static_cast<std::uint8_t>(SimCall::kGenerate), t0,
             t1);
  m.generate_ms = static_cast<double>(t1 - t0) / 1e6;
  m.config = coop::harness::figure_config(server::SystemKind::kCcNem, kNodes,
                                          kMemoryMb << 20);
  // The cache the simulator's CcmServer builds for this config.
  m.cache.nodes = m.config.nodes;
  m.cache.capacity_bytes = m.config.memory_per_node;
  m.cache.block_bytes = m.config.params.block_bytes;
  m.cache.policy = cache::Policy::kNeverEvictMaster;
  m.cache.directory = m.config.directory;
  m.cache.hint_staleness = m.config.hint_staleness;
  return m;
}

/// Replays the request stream through a fresh ClusterCache, round-robin over
/// the nodes as the simulator's dispatcher spreads it. With `rounds`, each
/// dispatch round (one read per node) is timed into it, divided by the
/// node count. Returns the whole replay's nanoseconds.
std::uint64_t replay(const Model& m, std::vector<std::uint64_t>* rounds,
                     Report& r) {
  cache::ClusterCache cc(m.cache);
  const auto& requests = m.trace.requests;
  const std::size_t nodes = m.cache.nodes;
  const std::uint64_t t0 = now_ns();
  std::uint64_t round_start = t0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const trace::FileId file = requests[i];
    cc.access(static_cast<cache::NodeId>(i % nodes), file,
              m.trace.files.size_bytes(file));
    if (rounds && i % nodes == nodes - 1) {
      const std::uint64_t now = now_ns();
      rounds->push_back((now - round_start) / nodes);
      round_start = now;
    }
  }
  const std::uint64_t elapsed = now_ns() - t0;
  if (!cc.check_invariants()) r.problem("ClusterCache replay broke invariants");
  return elapsed;
}

struct Window {
  std::vector<double> ops_per_s;      // per simulation
  double cpu_s = 0.0;                 // CPU of every simulation
  std::vector<double> read_p50_us;    // per replay
  std::vector<double> read_p99_us;    // per replay
  std::vector<double> access_ns;      // per replay, whole-replay mean
  std::size_t read_samples = 0;
  ProcSample start;
  ProcSample end;
};

/// Runs simulation + replay pairs for `seconds`: at least one, and no pair
/// that the previous pair's duration says would end past the window.
Window measure(const Model& m, const SimRow& expected, double seconds,
               bool time_rounds, SpanLog* log, Report& r) {
  Window w;
  w.start = sample_proc();
  const std::uint64_t begin = now_ns();
  const auto end = begin + static_cast<std::uint64_t>(seconds * 1e9);
  const auto requests = static_cast<double>(m.trace.requests.size());
  std::uint64_t pair_ns = 0;
  do {
    const ProcSample a = sample_proc();
    const std::uint64_t t0 = now_ns();
    const server::RunMetrics run = server::run_simulation(m.config, m.trace);
    const std::uint64_t t1 = now_ns();
    const ProcSample b = sample_proc();
    if (log) {
      log->record(Layer::kSim,
                  static_cast<std::uint8_t>(SimCall::kRunSimulation), t0, t1);
    }
    ++r.attempted;
    const SimRow got{coop::util::fixed(run.throughput_rps, 2),
                     run.remote_block_fetches, run.master_forwards};
    if (!(got == expected)) {
      ++r.failed;
      r.problem("simulated row " + got.throughput_rps + " req/s, " +
                std::to_string(got.remote_block_fetches) + " fetches, " +
                std::to_string(got.master_forwards) +
                " forwards differs from results/fig2.csv (" +
                expected.throughput_rps + ", " +
                std::to_string(expected.remote_block_fetches) + ", " +
                std::to_string(expected.master_forwards) + ")");
    }
    w.ops_per_s.push_back(requests / (static_cast<double>(t1 - t0) / 1e9));
    w.cpu_s += b.cpu_s - a.cpu_s;

    std::vector<std::uint64_t> rounds;
    const std::uint64_t r0 = now_ns();
    const std::uint64_t ns = replay(m, time_rounds ? &rounds : nullptr, r);
    if (log) {
      log->record(Layer::kSim, static_cast<std::uint8_t>(SimCall::kReplay),
                  r0, r0 + ns);
    }
    w.access_ns.push_back(static_cast<double>(ns) / requests);
    if (time_rounds) {
      w.read_samples += rounds.size();
      w.read_p50_us.push_back(quantile(rounds, 0.50) / 1000.0);
      w.read_p99_us.push_back(quantile(rounds, 0.99) / 1000.0);
    }
    pair_ns = now_ns() - t0;
  } while (now_ns() + pair_ns <= end);
  w.end = sample_proc();
  return w;
}

SimRow expected_row(const std::string& csv_path) {
  std::ifstream csv(csv_path);
  if (!csv) throw std::runtime_error("cannot read " + csv_path);
  const auto row = fig2_row(csv, "rutgers", "CC-NEM", std::to_string(kNodes),
                            std::to_string(kMemoryMb));
  if (!row) {
    throw std::runtime_error(csv_path + " has no rutgers/CC-NEM/8/32 row");
  }
  return *row;
}

}  // namespace

Report run_sim(const Options& o) {
  Report r;
  r.workload = o.workload;
  r.trace = o.trace;
  note_host(r);
  const SimRow expected = expected_row(o.fig2_csv);
  SpanLog log;
  log.set_enabled(o.trace);

  std::vector<double> setups;
  std::vector<double> generate_ms;
  Model model;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t t0 = now_ns();
    model = build_model(log);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    generate_ms.push_back(model.generate_ms);
  }

  // As on the runtime workloads, the gated figures are the window's best:
  // the fastest simulation, the quickest replay.
  auto best_high = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  auto best_low = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  if (!o.trace) {
    const Window w = measure(model, expected, o.seconds, true, nullptr, r);
    r.add("ops_per_s", best_high(w.ops_per_s), "1/s");
    r.add("read_p50_us", best_low(w.read_p50_us), "us");
    r.add("read_p99_us", best_low(w.read_p99_us), "us");
    r.add("read_samples", static_cast<double>(w.read_samples), "count");
    const auto simulated = static_cast<double>(model.trace.requests.size() *
                                               w.ops_per_s.size());
    r.add("cpu_us_per_op", w.cpu_s * 1e6 / simulated, "us");
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("error_rate",
          static_cast<double>(r.failed) / static_cast<double>(r.attempted),
          "fraction");
    r.add("window_ops_per_s", median(w.ops_per_s), "1/s");
    r.add("simulations", static_cast<double>(w.ops_per_s.size()), "count");
    r.add("host.steal_share", steal_share(w.start, w.end), "fraction");
    return r;
  }

  // Traced run: an untraced half-window for reference, then a half-window
  // with every simulator entry point timed into the span log.
  log.set_enabled(false);
  const Window plain =
      measure(model, expected, o.seconds / 2, false, nullptr, r);
  log.set_enabled(true);
  const Window traced = measure(model, expected, o.seconds / 2, false, &log, r);
  log.set_enabled(false);
  r.add("cache.access_ns", best_low(traced.access_ns), "ns");
  r.add("trace.generate_ms", median(generate_ms), "ms");
  add_overhead_metrics(best_high(traced.ops_per_s), best_high(plain.ops_per_s),
                       r);
  add_absent_runtime_layers(r);
  r.add("spans", static_cast<double>(log.span_count()), "count");
  write_spans(o, log, r);
  return r;
}

}  // namespace perfbench
