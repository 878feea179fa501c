// The four benchmark workloads. The runtime ones (read-hot, mixed-spill,
// tcp-mixed) drive CcmCluster in closed loops; sim-rutgers runs the
// simulator's Figure-2 cell. See perfbench/NOTES.md for why each exists.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

class SpanLog;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Client-thread override for steadiness studies; 0 = the workload's own.
  std::size_t clients = 0;
  /// Where the traced run writes its spans; empty = do not write.
  std::string spans_dir;
  /// results/fig2.csv, whose rutgers/CC-NEM/8/32 row sim-rutgers reproduces.
  std::string fig2_csv = "results/fig2.csv";
};

bool is_runtime_workload(const std::string& name);
Report run_runtime(const Options& options);
Report run_sim(const Options& options);

/// Every workload's traced report carries every per-layer metric; layers a
/// workload does not run read 0.
void add_absent_runtime_layers(Report& r);

/// The traced-vs-untraced throughput pair and their ratio.
void add_overhead_metrics(double traced_ops_per_s, double untraced_ops_per_s,
                          Report& r);

/// Writes the traced run's spans under options.spans_dir (if set).
void write_spans(const Options& options, const SpanLog& log, Report& r);

/// Checks the output checkers themselves; returns the number of failures.
int self_test();

}  // namespace perfbench
