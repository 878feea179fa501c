// perfbench: the repository benchmark's native binary. run.py builds and
// invokes it; it can also be run by hand:
//
//   perfbench --workload=read-hot --seed=1 --seconds=10 --trace=0
//   perfbench --self-test
//
// Flags:
//   --workload=NAME   read-hot | mixed-spill | tcp-mixed | sim-rutgers
//   --seed=N          workload seed (operation streams are drawn from it)
//   --seconds=S       length of the timed window
//   --trace=0|1       1 = the traced run: per-layer metrics from spans
//   --clients=N       override the workload's client-thread count (studies)
//   --spans-dir=DIR   where the traced run writes its spans
//   --fig2-csv=PATH   the Figure-2 results sim-rutgers must reproduce
//   --self-test       check the output checkers, then exit
//
// The last stdout line is one JSON object with every metric measured.
#include <sys/resource.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "checks.hpp"
#include "spans.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string Report::json() const {
  coop::util::JsonWriter j;
  j.begin_object();
  j.key("workload").value(workload);
  j.key("trace").value(trace);
  j.key("correct").value(correct);
  j.key("attempted").value(attempted);
  j.key("failed").value(failed);
  j.key("problems").begin_array();
  for (const auto& p : problems) j.value(p);
  j.end_array();
  j.key("metrics").begin_object();
  for (const auto& m : metrics) {
    j.key(m.name).begin_object();
    j.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
    j.key("unit").value(m.unit);
    j.end_object();
  }
  j.end_object();
  j.key("info").begin_object();
  for (const auto& [k, v] : info) j.key(k).value(v);
  j.end_object();
  j.end_object();
  return j.str();
}

ProcSample sample_proc() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  s.vcsw = ru.ru_nvcsw;
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal guest guest_nice" (guest time is already inside user).
  std::ifstream stat("/proc/stat");
  std::string label;
  if (stat >> label && label == "cpu") {
    std::uint64_t field = 0;
    for (int i = 0; i < 8 && (stat >> field); ++i) {
      s.jiffies += field;
      if (i == 7) s.steal = field;
    }
  }
  return s;
}

double steal_share(const ProcSample& a, const ProcSample& b) {
  if (b.jiffies <= a.jiffies) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.jiffies - a.jiffies);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void note_host(Report& r) {
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.note("compiler", PERFBENCH_COMPILER);
  r.note("build_type", PERFBENCH_BUILD_TYPE);
}

void add_overhead_metrics(double traced_ops_per_s, double untraced_ops_per_s,
                          Report& r) {
  r.add("tracing.ops_per_s", traced_ops_per_s, "1/s");
  r.add("tracing.untraced_ops_per_s", untraced_ops_per_s, "1/s");
  r.add("tracing.overhead_ratio",
        traced_ops_per_s > 0 ? untraced_ops_per_s / traced_ops_per_s - 1.0
                             : 0.0,
        "ratio");
}

void write_spans(const Options& o, const SpanLog& log, Report& r) {
  if (o.spans_dir.empty()) return;
  std::filesystem::create_directories(o.spans_dir);
  const std::string path = o.spans_dir + "/" + o.workload + ".spans";
  if (log.write(path)) {
    r.note("spans_file", path);
  } else {
    r.note("spans_file", "write failed: " + path);
  }
}

int self_test() {
  constexpr std::size_t kBlock = 8192;
  const BlockShapeChecker checker(kBlock);
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };

  const auto seeded = pattern(4 * kBlock, 5);
  expect(checker.file_ok(seeded, seeded.size()), "seeded file passes");
  auto written = seeded;
  const auto block = pattern(kBlock, 200);
  std::copy(block.begin(), block.end(), written.begin() + 2 * kBlock);
  expect(checker.file_ok(written, written.size()),
         "file with one rewritten block passes");

  auto torn = written;
  const auto other = pattern(kBlock, 77);
  std::copy(other.begin() + kBlock / 2, other.end(),
            torn.begin() + 2 * kBlock + kBlock / 2);
  expect(!checker.file_ok(torn, torn.size()), "torn block is rejected");
  auto flipped = seeded;
  flipped[3 * kBlock + 17] ^= std::byte{1};
  expect(!checker.file_ok(flipped, flipped.size()),
         "single flipped byte is rejected");

  const std::vector<std::byte> short_read(seeded.begin(), seeded.end() - 1);
  expect(!checker.file_ok(short_read, seeded.size()),
         "wrong length is rejected (shape check)");
  expect(!exact_ok(short_read, seeded), "wrong length is rejected (exact)");
  expect(!exact_ok(written, seeded), "changed bytes are rejected (exact)");
  expect(exact_ok(seeded, seeded), "identical bytes pass (exact)");

  std::istringstream csv(
      "trace,system,nodes,memory_mb,throughput_rps,remote_block_fetches,"
      "master_forwards\n"
      "rutgers,L2S,8,32,2000.00,0,0\n"
      "rutgers,CC-NEM,8,32,1287.91,69605,47576\n");
  const auto row = fig2_row(csv, "rutgers", "CC-NEM", "8", "32");
  const SimRow want{"1287.91", 69605, 47576};
  expect(row && *row == want, "fig2 row is found and parsed");
  expect(!(SimRow{"1287.92", 69605, 47576} == want),
         "simulator row with other throughput is rejected");
  expect(!(SimRow{"1287.91", 69604, 47576} == want),
         "simulator row with other fetch count is rejected");
  expect(!(SimRow{"1287.91", 69605, 47577} == want),
         "simulator row with other forward count is rejected");
  std::istringstream missing("trace,system\nrutgers,CC-NEM\n");
  expect(!fig2_row(missing, "rutgers", "CC-NEM", "8", "32"),
         "csv without the row is rejected");
  std::cout << "self-test: " << (failures == 0 ? "ok" : "FAILED") << "\n";
  return failures;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const coop::util::Flags flags(argc, argv);
  if (flags.has("self-test")) return self_test() == 0 ? 0 : 1;

  Options o;
  o.workload = flags.get("workload");
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  o.seconds = flags.get_double("seconds", 10.0);
  o.trace = flags.get_int("trace", 0) != 0;
  const std::int64_t clients = flags.get_int("clients", 0);
  o.spans_dir = flags.get("spans-dir");
  o.fig2_csv = flags.get("fig2-csv", o.fig2_csv);
  if (o.seconds <= 0.0 || o.seconds > 600.0) {
    std::cerr << "perfbench: --seconds must be in (0, 600]\n";
    return 2;
  }
  if (clients < 0 || clients > 64) {
    std::cerr << "perfbench: --clients must be in [0, 64]\n";
    return 2;
  }
  o.clients = static_cast<std::size_t>(clients);

  try {
    Report r;
    if (is_runtime_workload(o.workload)) {
      r = run_runtime(o);
    } else if (o.workload == "sim-rutgers") {
      r = run_sim(o);
    } else {
      std::cerr << "perfbench: unknown --workload '" << o.workload
                << "' (read-hot, mixed-spill, tcp-mixed, sim-rutgers)\n";
      return 2;
    }
    std::cout << r.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
