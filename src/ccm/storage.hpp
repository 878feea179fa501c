// Pluggable backing storage for the middleware runtime.
//
// The cooperative caching layer sits between a service and its disks; Storage
// is the disk abstraction. Implementations must be thread-safe: the runtime
// issues reads from many node threads concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/types.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::ccm {

class Storage {
 public:
  virtual ~Storage() = default;

  /// Number of files. Valid FileIds are [0, file_count()).
  [[nodiscard]] virtual std::size_t file_count() const = 0;

  /// Size of a file in bytes.
  [[nodiscard]] virtual std::uint64_t file_size(cache::FileId file) const = 0;

  /// Reads file bytes [offset, offset + out.size()) into `out`. The range is
  /// guaranteed by callers to lie within the file.
  virtual void read(cache::FileId file, std::uint64_t offset,
                    std::span<std::byte> out) const = 0;
};

/// Storage that also accepts writes (required by CcmCluster::write).
class WritableStorage : public Storage {
 public:
  /// Writes `data` at [offset, offset + data.size()); the range is
  /// guaranteed by callers to lie within the file.
  virtual void write(cache::FileId file, std::uint64_t offset,
                     std::span<const std::byte> data) = 0;
};

/// Mutable in-memory storage backed by real buffers. Files are initialized
/// with the same deterministic content as MemStorage (so read-side integrity
/// checks carry over) and can be overwritten. Sizes are fixed at
/// construction, so file_count() and file_size() take no lock; the lock
/// guards only the bytes.
class BufferStorage final : public WritableStorage {
 public:
  explicit BufferStorage(const std::vector<std::uint32_t>& file_sizes);

  [[nodiscard]] std::size_t file_count() const override {
    return sizes_.size();
  }
  [[nodiscard]] std::uint64_t file_size(cache::FileId file) const override;
  void read(cache::FileId file, std::uint64_t offset,
            std::span<std::byte> out) const override;
  void write(cache::FileId file, std::uint64_t offset,
             std::span<const std::byte> data) override;

 private:
  const std::vector<std::uint32_t> sizes_;
  mutable util::Mutex mu_{"ccm.storage.buffer"};
  std::vector<std::vector<std::byte>> files_ GUARDED_BY(mu_);
};

/// Synthetic in-memory storage with deterministic per-byte content, so tests
/// and examples can verify end-to-end data integrity without touching disk.
class MemStorage final : public Storage {
 public:
  explicit MemStorage(std::vector<std::uint32_t> file_sizes);

  [[nodiscard]] std::size_t file_count() const override {
    return sizes_.size();
  }
  [[nodiscard]] std::uint64_t file_size(cache::FileId file) const override;
  void read(cache::FileId file, std::uint64_t offset,
            std::span<std::byte> out) const override;

  /// The deterministic content byte at (file, offset) — what read() returns;
  /// exposed so tests can verify integrity independently.
  [[nodiscard]] static std::byte content_at(cache::FileId file,
                                            std::uint64_t offset);

 private:
  std::vector<std::uint32_t> sizes_;
};

/// Serves real files from a directory tree. Files are enumerated once at
/// construction in sorted path order (so FileId assignment is deterministic)
/// and read with pread-style positioned I/O.
class FileStorage final : public Storage {
 public:
  /// Recursively enumerates regular files under `root`. Throws
  /// std::runtime_error if the directory cannot be read.
  explicit FileStorage(const std::string& root);

  [[nodiscard]] std::size_t file_count() const override {
    return paths_.size();
  }
  [[nodiscard]] std::uint64_t file_size(cache::FileId file) const override;
  void read(cache::FileId file, std::uint64_t offset,
            std::span<std::byte> out) const override;

  [[nodiscard]] const std::string& path_of(cache::FileId file) const;

 private:
  std::vector<std::string> paths_;
  std::vector<std::uint64_t> sizes_;
};

}  // namespace coop::ccm
