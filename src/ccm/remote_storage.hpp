// Backing storage proxied over the transport.
//
// In the multi-process cluster the real store (a BufferStorage) lives in the
// process hosting node 0, mirroring the directory. Peer processes mount a
// RemoteStorage: reads become kStorageRead RPCs answered with the bytes in a
// kStorageData payload, writes ship their bytes in a kStorageWrite payload
// and block until the home's kStorageAck — preserving CcmCluster's
// write-through ordering (storage holds the new bytes before any cached
// master of them exists).
//
// File geometry (count and sizes) is passed to the constructor rather than
// fetched: every process derives it from the same workload seed, and keeping
// it local means file_size() — called on every read path — costs no RPC.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ccm/storage.hpp"
#include "net/transport.hpp"

namespace coop::ccm {

class RemoteStorage final : public WritableStorage {
 public:
  RemoteStorage(std::shared_ptr<net::Transport> transport,
                cache::NodeId local, cache::NodeId home,
                std::vector<std::uint32_t> file_sizes)
      : transport_(std::move(transport)),
        local_(local),
        home_(home),
        sizes_(std::move(file_sizes)) {}

  [[nodiscard]] std::size_t file_count() const override {
    return sizes_.size();
  }
  [[nodiscard]] std::uint64_t file_size(cache::FileId file) const override;

  void read(cache::FileId file, std::uint64_t offset,
            std::span<std::byte> out) const override;
  void write(cache::FileId file, std::uint64_t offset,
             std::span<const std::byte> data) override;

 private:
  std::shared_ptr<net::Transport> transport_;
  cache::NodeId local_;
  cache::NodeId home_;
  std::vector<std::uint32_t> sizes_;
};

}  // namespace coop::ccm
