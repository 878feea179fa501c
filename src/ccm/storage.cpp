#include "ccm/storage.hpp"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace coop::ccm {

MemStorage::MemStorage(std::vector<std::uint32_t> file_sizes)
    : sizes_(std::move(file_sizes)) {}

std::uint64_t MemStorage::file_size(cache::FileId file) const {
  assert(file < sizes_.size());
  return sizes_[file];
}

std::byte MemStorage::content_at(cache::FileId file, std::uint64_t offset) {
  // Cheap deterministic mix of (file, offset).
  std::uint64_t x = (static_cast<std::uint64_t>(file) << 40) ^ offset;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return static_cast<std::byte>(x & 0xFF);
}

void MemStorage::read(cache::FileId file, std::uint64_t offset,
                      std::span<std::byte> out) const {
  assert(file < sizes_.size());
  assert(offset + out.size() <= sizes_[file]);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = content_at(file, offset + i);
  }
}

BufferStorage::BufferStorage(const std::vector<std::uint32_t>& file_sizes)
    : sizes_(file_sizes) {
  files_.reserve(sizes_.size());
  for (std::size_t f = 0; f < sizes_.size(); ++f) {
    std::vector<std::byte> content(sizes_[f]);
    for (std::size_t i = 0; i < content.size(); ++i) {
      content[i] =
          MemStorage::content_at(static_cast<cache::FileId>(f), i);
    }
    files_.push_back(std::move(content));
  }
}

std::uint64_t BufferStorage::file_size(cache::FileId file) const {
  assert(file < sizes_.size());
  return sizes_[file];
}

void BufferStorage::read(cache::FileId file, std::uint64_t offset,
                         std::span<std::byte> out) const {
  util::ScopedLock lock(mu_);
  assert(file < files_.size());
  assert(offset + out.size() <= files_[file].size());
  std::copy_n(files_[file].begin() + static_cast<std::ptrdiff_t>(offset),
              out.size(), out.begin());
}

void BufferStorage::write(cache::FileId file, std::uint64_t offset,
                          std::span<const std::byte> data) {
  util::ScopedLock lock(mu_);
  assert(file < files_.size());
  assert(offset + data.size() <= files_[file].size());
  std::copy(data.begin(), data.end(),
            files_[file].begin() + static_cast<std::ptrdiff_t>(offset));
}

FileStorage::FileStorage(const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    throw std::runtime_error("FileStorage: not a directory: " + root);
  }
  for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
    if (entry.is_regular_file(ec)) paths_.push_back(entry.path().string());
  }
  if (ec) throw std::runtime_error("FileStorage: cannot enumerate " + root);
  std::sort(paths_.begin(), paths_.end());
  sizes_.reserve(paths_.size());
  for (const auto& p : paths_) {
    sizes_.push_back(static_cast<std::uint64_t>(fs::file_size(p)));
  }
}

std::uint64_t FileStorage::file_size(cache::FileId file) const {
  assert(file < sizes_.size());
  return sizes_[file];
}

const std::string& FileStorage::path_of(cache::FileId file) const {
  assert(file < paths_.size());
  return paths_[file];
}

void FileStorage::read(cache::FileId file, std::uint64_t offset,
                       std::span<std::byte> out) const {
  assert(file < paths_.size());
  std::ifstream f(paths_[file], std::ios::binary);
  if (!f) throw std::runtime_error("FileStorage: cannot open " + paths_[file]);
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(reinterpret_cast<char*>(out.data()),
         static_cast<std::streamsize>(out.size()));
  if (f.gcount() != static_cast<std::streamsize>(out.size())) {
    throw std::runtime_error("FileStorage: short read on " + paths_[file]);
  }
}

}  // namespace coop::ccm
