// Quickstart: embed the cooperative caching middleware in ten lines.
//
// Builds a 4-node in-process cluster over synthetic storage, reads a few
// files through different nodes, and shows how the cache reacts (disk reads
// -> remote hits -> local hits).
#include <cstddef>
#include <iostream>

#include "ccm/cluster.hpp"
#include "ccm/storage.hpp"
#include "util/format.hpp"

int main() {
  using namespace coop;

  // 1. Describe the cluster: 4 nodes, 1 MiB of cache memory each.
  ccm::CcmConfig config;
  config.nodes = 4;
  config.capacity_bytes = 1 << 20;
  config.policy = cache::Policy::kNeverEvictMaster;  // the paper's CC-NEM

  // 2. Plug in storage. MemStorage fakes 16 files (64 KiB each); swap in
  //    ccm::FileStorage to serve a real directory tree.
  std::vector<std::uint32_t> sizes(16, 64 * 1024);
  auto storage = std::make_shared<ccm::MemStorage>(std::move(sizes));

  // 3. Start the cluster. It starts no threads of its own: every read below
  //    runs on this thread.
  ccm::CcmCluster cluster(config, storage);

  // 4. Read through any node; the middleware finds the bytes wherever they
  //    are cheapest: local memory, a peer's memory, or storage.
  const auto a = cluster.read(/*via=*/0, /*file=*/7);  // disk -> node 0
  const auto b = cluster.read(/*via=*/2, /*file=*/7);  // peer fetch from 0
  const auto c = cluster.read(/*via=*/2, /*file=*/7);  // local hit on 2
  std::cout << "read " << a.size() << " bytes three times (identical: "
            << std::boolalpha << (a == b && b == c) << ")\n";

  // 5. Inspect what happened.
  const auto s = cluster.stats();
  std::cout << "block accesses: " << s.block_accesses()
            << "  local hits: " << s.local_hits
            << "  remote hits: " << s.remote_hits
            << "  disk reads: " << s.disk_reads << "\n";
  for (cache::NodeId n = 0; n < 4; ++n) {
    std::cout << "node " << n << " caches "
              << util::human_bytes(cluster.cached_bytes(n)) << "\n";
  }
  return 0;
}
