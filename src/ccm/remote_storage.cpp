#include "ccm/remote_storage.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace coop::ccm {

std::uint64_t RemoteStorage::file_size(cache::FileId file) const {
  if (file >= sizes_.size()) {
    throw std::out_of_range("RemoteStorage: bad file id");
  }
  return sizes_[file];
}

void RemoteStorage::read(cache::FileId file, std::uint64_t offset,
                         std::span<std::byte> out) const {
  if (out.empty()) return;
  net::Envelope env;
  env.msg =
      proto::Message::storage_read(local_, home_, file, offset, out.size());
  // Bounded retry: a re-read is idempotent and must not hang on a lossy link.
  const net::Envelope reply =
      net::call_with_retry(*transport_, std::move(env));
  const net::BlockPtr data = reply.payload();
  if (!data || data->bytes.size() != out.size()) {
    throw std::runtime_error("RemoteStorage: short read from home node");
  }
  std::memcpy(out.data(), data->bytes.data(), out.size());
}

void RemoteStorage::write(cache::FileId file, std::uint64_t offset,
                          std::span<const std::byte> data) {
  if (data.empty()) return;
  net::Envelope env;
  env.msg =
      proto::Message::storage_write(local_, home_, file, offset, data.size());
  env.payloads.push_back(net::make_ready_block(
      std::vector<std::byte>(data.begin(), data.end())));
  // Blocks until the kStorageAck. Retrying a write whose ack was lost
  // re-applies the same bytes at the same offset — idempotent.
  net::call_with_retry(*transport_, std::move(env));
}

}  // namespace coop::ccm
