// What one perfbench run prints: every metric it measured (name, value,
// unit), whether the program's outputs checked out, and host facts. run.py
// picks the metrics BENCHMARK.json declares for the final result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::string workload;
  bool trace = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few correctness failures
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void problem(std::string what) {
    correct = false;
    if (problems.size() < 8) problems.push_back(std::move(what));
  }

  /// One-line JSON object.
  [[nodiscard]] std::string json() const;
};

/// Process counters over a timed window.
struct ProcSample {
  double cpu_s = 0.0;         // user + system CPU of this process
  std::int64_t vcsw = 0;      // voluntary context switches
  std::uint64_t steal = 0;    // host-wide /proc/stat steal jiffies
  std::uint64_t jiffies = 0;  // host-wide /proc/stat total jiffies
};
ProcSample sample_proc();

/// Steal share of host CPU time between two samples (0 when unreadable).
double steal_share(const ProcSample& a, const ProcSample& b);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Host facts every report carries (nproc, compiler, build type).
void note_host(Report& r);

}  // namespace perfbench
