// ccm-lint — project-specific simulation-safety linter.
//
// The repository's headline guarantee is byte-for-byte deterministic figures
// (PR 1), and the protocol accounting behind Figures 2-6 must stay exact.
// General-purpose tools cannot see those contracts, so this linter enforces
// them lexically over src/, bench/, tests/, and tools/:
//
//   unordered-iter      iteration (range-for, .begin()) over a
//                       std::unordered_map/unordered_set — iteration order is
//                       implementation-defined, so any such loop that feeds
//                       CSV/JSON output, metrics, or eviction ordering breaks
//                       reproducibility. Flagged everywhere; audited
//                       order-insensitive sweeps are suppressed explicitly.
//   raw-random          rand()/srand()/std::mt19937/random_device & friends
//                       outside src/sim/random.* — all workload randomness
//                       must flow through the seeded, portable Rng.
//   wall-clock          time()/clock()/gettimeofday/std::chrono clocks
//                       outside src/sim/random.* — simulation time is
//                       logical; wall-clock reads are allowed only in audited
//                       diagnostics (suppression file).
//   fp-accum-unordered  float/double accumulation (+=, -=, *=) inside a loop
//                       that iterates an unordered container — combines FP
//                       non-associativity with unspecified order, the exact
//                       bug class the index-keyed executor was built to kill.
//   cout-library        std::cout / printf / puts in library code (src/) —
//                       libraries must return data, not print it; the
//                       report/CLI layers are audited exceptions.
//   blocking-under-lock blocking waits (Mailbox send/receive/*_for,
//                       Transport::call / call_all, rpc() / rpc_all(),
//                       storage read/write I/O,
//                       this_thread sleeps) inside a lock-guard scope in
//                       src/ — a parked thread holding a mutex is the seed
//                       of every convoy and deadlock the runtime's lock
//                       discipline forbids. `guard.unlock()` suspends the
//                       scope, `guard.lock()` resumes it.
//   raw-mutex           a `std::mutex` (or timed/recursive/shared variant)
//                       spelled directly in src/ccm or src/net — runtime
//                       locks must be coop::util::Mutex/CountingMutex so
//                       they carry thread-safety annotations and register
//                       with the lock-order watchdog (src/util/lockcheck).
//
// The analysis is a two-pass lexical scan (no real parser): pass 1 collects
// unordered-container type aliases and variable names (with a simple taint
// propagation through `auto` bindings and containers-of-unordered); pass 2
// applies the rules. Heuristic by design — the suppression file
// (tools/lint/suppressions.txt) records every audited exception with its
// justification, and `// ccm-lint: allow(<rule>)` suppresses a single line.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ccmlint {

struct SourceFile {
  std::string path;     // repo-relative, '/'-separated
  std::string content;  // raw bytes
};

struct Finding {
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string token;  // the offending identifier (suppression key)
  std::string message;
  bool suppressed = false;
};

/// One audited exception from the suppression file.
struct Suppression {
  std::string path_substr;  // matches if finding.path contains it
  std::string rule;
  std::string token;  // "*" matches any token
  std::string reason;
  std::size_t uses = 0;  // findings matched (unused entries are reported)
};

struct Result {
  std::vector<Finding> findings;  // all findings, suppressed ones marked
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  std::size_t unsuppressed = 0;
  // Pass-1 output, exposed for --explain-taint and the lint tests.
  std::vector<std::string> aliases;  // type names resolving to unordered
  std::vector<std::string> tainted;  // variable names holding/containing them
};

/// Replaces comments, string literals, and char literals with spaces
/// (newlines preserved so line numbers survive). Handles raw strings.
std::string strip_code(const std::string& src);

/// Parses the suppression file format: one entry per line,
/// `path-substring rule token # justification`; '#' starts a comment; blank
/// lines ignored. Returns entries; on malformed lines appends to `errors`.
std::vector<Suppression> parse_suppressions(const std::string& text,
                                            std::vector<std::string>& errors);

/// Lints `files` as one corpus (tainted names are collected globally so a
/// member declared in a header is caught when iterated in a .cpp).
/// Suppressions are matched and their use counts updated.
Result lint(const std::vector<SourceFile>& files,
            std::vector<Suppression>& suppressions);

/// All rule ids, for --list-rules and tests.
const std::vector<std::string>& rule_ids();

/// Outcome of fix_cout_library on one file.
struct FixResult {
  std::string content;        // rewritten file bytes (== input when no-op)
  std::size_t rewrites = 0;   // `cout` references rewritten to report_out()
  std::size_t unfixable = 0;  // cout-library findings left for a human
};

/// Auto-fixes the cout-library rule: every unsuppressed `cout` finding in
/// `file` (taken from a prior lint() over the same contents) is rewritten
/// from `std::cout` / `cout` to `coop::util::report_out()`, and
/// `#include "util/report_sink.hpp"` is inserted after the file's last
/// include when anything was rewritten. printf/puts findings and
/// `using std::cout;` declarations are not mechanically fixable and are
/// counted in `unfixable`. Idempotent: fixing already-fixed content is a
/// no-op, since report_out() never trips the rule.
FixResult fix_cout_library(const SourceFile& file,
                           const std::vector<Finding>& findings);

}  // namespace ccmlint
