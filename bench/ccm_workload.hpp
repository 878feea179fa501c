// The mixed read/write/invalidate workload shared by the CCM runtime
// drivers: ccm_stress (all nodes in one process) and ccm_node (one node per
// process over TCP). Both binaries must consume the *same* RNG streams and
// issue the *same* write sequences so that, in deterministic-writes mode,
// the final backing-storage bytes of a multi-process run are byte-identical
// to an in-process run of the same parameters — that equality is the
// loopback cluster's acceptance check.
//
// Determinism argument: storage content is only changed by writes, and with
// `deterministic_writes` each driver's writes are remapped onto a private
// slice of the file set (driver d writes file (f % (files/drivers)) *
// drivers + d), so no two drivers ever write the same file. Within a driver
// the writes are sequential and their (file, offset, content) sequence
// depends only on the RNG seed and iteration index — never on scheduling,
// cache state, or which node served the op. Reads and invalidations touch
// caches, not storage. Hence the final bytes are a pure function of the
// workload parameters.
//
// Read check: every seeded or written block is a run of pattern(), so each
// block a read returns must have the shape b[j] == (b[0] + 7*j) mod 256,
// whatever mix of writes it saw — a torn, misplaced or stale-buffer block
// breaks it. run_driver checks every read against that shape (and the file
// against its length) and returns the number of reads that failed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "sim/random.hpp"

namespace ccm_bench {

inline std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return out;
}

/// The 256 block-sized patterns, one per first byte, so a returned block is
/// checked with one memcmp — a per-byte compare is slow enough to show in
/// the driver's throughput.
class ReadCheck {
 public:
  explicit ReadCheck(std::uint32_t block_bytes) : block_bytes_(block_bytes) {
    table_.reserve(256 * std::size_t{block_bytes});
    for (unsigned first = 0; first < 256; ++first) {
      const auto block =
          pattern(block_bytes, static_cast<std::uint8_t>(first));
      table_.insert(table_.end(), block.begin(), block.end());
    }
  }

  /// True when `file` is `file_bytes` long and every block has the
  /// pattern() shape.
  [[nodiscard]] bool ok(std::span<const std::byte> file,
                        std::uint64_t file_bytes) const {
    if (file.size() != file_bytes) return false;
    for (std::size_t at = 0; at < file.size(); at += block_bytes_) {
      const std::size_t len = std::min<std::size_t>(block_bytes_,
                                                    file.size() - at);
      const auto first = std::to_integer<std::size_t>(file[at]);
      if (std::memcmp(file.data() + at, table_.data() + first * block_bytes_,
                      len) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  std::size_t block_bytes_;
  std::vector<std::byte> table_;  // 256 blocks, indexed by first byte
};

struct Workload {
  std::size_t nodes = 4;
  std::size_t files = 48;
  std::uint32_t file_blocks = 4;
  std::uint32_t block_bytes = 8 * 1024;
  std::size_t drivers = 4;
  int iters = 2000;
  std::int64_t write_pct = 20;
  std::int64_t invalidate_pct = 2;
  std::uint64_t seed = 1;
  /// Partition write targets per driver so final storage bytes are
  /// schedule-independent (see file comment). Requires files % drivers == 0.
  bool deterministic_writes = false;

  [[nodiscard]] std::uint32_t file_bytes() const {
    return file_blocks * block_bytes;
  }

  void validate() const {
    if (deterministic_writes && (drivers == 0 || files % drivers != 0)) {
      throw std::invalid_argument(
          "deterministic writes need files % drivers == 0");
    }
  }

  /// The file driver `d` actually writes when it rolled a write against `f`.
  [[nodiscard]] coop::cache::FileId write_target(std::size_t d,
                                                 coop::cache::FileId f) const {
    if (!deterministic_writes) return f;
    const std::size_t per_driver = files / drivers;
    return static_cast<coop::cache::FileId>((f % per_driver) * drivers + d);
  }

  /// Seeds every file with its deterministic initial content, spreading the
  /// writes over `vias` (hosted nodes). Both runtimes seed identically —
  /// content depends only on the file id.
  void seed_files(coop::ccm::CcmCluster& cluster,
                  const std::vector<coop::cache::NodeId>& vias) const {
    for (std::size_t f = 0; f < files; ++f) {
      cluster.write(vias[f % vias.size()],
                    static_cast<coop::cache::FileId>(f), 0,
                    pattern(file_bytes(), static_cast<std::uint8_t>(f)));
    }
  }

  /// Runs driver `d`'s operation stream against `cluster` and returns how
  /// many of its reads failed `check` (see the file comment). `force_via`
  /// pins every op to one hosted node (multi-process mode) — the RNG still
  /// draws the via so the stream stays aligned with the in-process run.
  std::uint64_t run_driver(coop::ccm::CcmCluster& cluster, std::size_t d,
                           std::optional<coop::cache::NodeId> force_via,
                           const ReadCheck& check) const {
    std::uint64_t read_check_failures = 0;
    coop::sim::Rng rng(seed * 1000 + d);
    for (int i = 0; i < iters; ++i) {
      const auto f =
          static_cast<coop::cache::FileId>(rng.uniform_int(files));
      const auto drawn =
          static_cast<coop::cache::NodeId>(rng.uniform_int(nodes));
      const coop::cache::NodeId via = force_via.value_or(drawn);
      const auto roll = static_cast<std::int64_t>(rng.uniform_int(100));
      if (roll < write_pct) {
        const std::uint64_t off = rng.uniform_int(file_blocks) * block_bytes;
        const auto len =
            std::min<std::uint64_t>(block_bytes, file_bytes() - off);
        cluster.write(via, write_target(d, f), off,
                      pattern(static_cast<std::size_t>(len),
                              static_cast<std::uint8_t>(f + i)));
      } else if (roll < write_pct + invalidate_pct) {
        cluster.invalidate(f);
      } else if (!check.ok(cluster.read(via, f), file_bytes())) {
        ++read_check_failures;
      }
    }
    return read_check_failures;
  }
};

/// Writes every file's bytes, concatenated in file-id order, to `path`
/// (the storage-equality artifact compared between runtimes).
inline bool dump_storage(const coop::ccm::Storage& storage,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  std::vector<std::byte> buf;
  for (std::size_t f = 0; f < storage.file_count(); ++f) {
    const auto file = static_cast<coop::cache::FileId>(f);
    buf.resize(storage.file_size(file));
    storage.read(file, 0, buf);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  return static_cast<bool>(out);
}

}  // namespace ccm_bench
