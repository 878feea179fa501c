// Output checks for the benchmark workloads.
//
// Every block the mixed workloads seed or write has the shape
// b[j] == (b[0] + 7*j) mod 256 (ccm_bench::pattern over a block-aligned
// range), so a block stitched from two different writes fails the check.
// read-hot never writes after seeding, so its reads must equal the seeded
// bytes exactly. sim-rutgers must reproduce its row of results/fig2.csv.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <istream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// pattern(n, seed)[i] = (seed + 7*i) mod 256 — the seeded and written
/// content. Same rule as bench/ccm_workload.hpp's pattern(), copied so that
/// a change to the repository's own benches cannot change these inputs.
inline std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return out;
}

/// Checks blocks against the pattern shape with one memcmp per block: since
/// 7 is invertible mod 256, a valid block starting with b0 equals the
/// 7-stride ramp shifted by s = b0 * 7^-1 (mod 256).
class BlockShapeChecker {
 public:
  explicit BlockShapeChecker(std::size_t block_bytes)
      : block_bytes_(block_bytes), ramp_(pattern(block_bytes + 256, 0)) {}

  [[nodiscard]] bool block_ok(std::span<const std::byte> block) const {
    const auto b0 = static_cast<unsigned>(block[0]);
    const unsigned shift = (b0 * kInverse7) & 0xFF;
    return std::memcmp(block.data(), ramp_.data() + shift, block.size()) == 0;
  }

  /// A whole-file read: right length and every block well formed.
  [[nodiscard]] bool file_ok(std::span<const std::byte> bytes,
                             std::size_t expected_size) const {
    if (bytes.size() != expected_size) return false;
    for (std::size_t off = 0; off < bytes.size(); off += block_bytes_) {
      const std::size_t n = std::min(block_bytes_, bytes.size() - off);
      if (!block_ok(bytes.subspan(off, n))) return false;
    }
    return true;
  }

 private:
  static constexpr unsigned kInverse7 = 183;  // 7 * 183 == 1 (mod 256)
  static_assert((7 * kInverse7) % 256 == 1);

  std::size_t block_bytes_;
  std::vector<std::byte> ramp_;
};

/// read-hot: a read must reproduce the file's seeded bytes exactly.
[[nodiscard]] inline bool exact_ok(std::span<const std::byte> bytes,
                                   std::span<const std::byte> expected) {
  return bytes.size() == expected.size() &&
         std::memcmp(bytes.data(), expected.data(), bytes.size()) == 0;
}

/// The Figure-2 fields one simulator cell must reproduce. Throughput is kept
/// as the CSV spells it (two decimals), so the comparison is exact text.
struct SimRow {
  std::string throughput_rps;
  std::uint64_t remote_block_fetches = 0;
  std::uint64_t master_forwards = 0;

  friend bool operator==(const SimRow&, const SimRow&) = default;
};

/// Finds the (trace, system, nodes, memory_mb) row of a results/fig2.csv
/// stream; nullopt when the header or the row is missing or malformed.
inline std::optional<SimRow> fig2_row(std::istream& csv,
                                      const std::string& trace,
                                      const std::string& system,
                                      const std::string& nodes,
                                      const std::string& memory_mb) {
  auto split = [](const std::string& line) {
    std::vector<std::string> out;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, ',');) out.push_back(cell);
    return out;
  };
  std::string line;
  if (!std::getline(csv, line)) return std::nullopt;
  const auto header = split(line);
  auto column = [&header](const char* name) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    return std::nullopt;
  };
  const auto c_trace = column("trace"), c_system = column("system"),
             c_nodes = column("nodes"), c_mem = column("memory_mb"),
             c_tput = column("throughput_rps"),
             c_fetch = column("remote_block_fetches"),
             c_fwd = column("master_forwards");
  if (!c_trace || !c_system || !c_nodes || !c_mem || !c_tput || !c_fetch ||
      !c_fwd) {
    return std::nullopt;
  }
  while (std::getline(csv, line)) {
    const auto row = split(line);
    if (row.size() != header.size()) continue;
    if (row[*c_trace] != trace || row[*c_system] != system ||
        row[*c_nodes] != nodes || row[*c_mem] != memory_mb) {
      continue;
    }
    try {
      return SimRow{row[*c_tput], std::stoull(row[*c_fetch]),
                    std::stoull(row[*c_fwd])};
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
