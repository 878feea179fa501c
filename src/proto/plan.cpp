#include "proto/plan.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace coop::proto {

namespace {

/// The set a group's one peer fetch names: its lowest block, and a mask of
/// the group's blocks within kFetchSetSpan of it. The simulator charges
/// hops, not fields, so a group wider than that still costs one fetch.
std::pair<BlockId, std::uint64_t> fetch_set(const std::vector<BlockId>& blocks) {
  const BlockId first = *std::min_element(
      blocks.begin(), blocks.end(),
      [](const BlockId& a, const BlockId& b) { return a.index < b.index; });
  std::uint64_t mask = 0;
  for (const BlockId& b : blocks) {
    if (b.file == first.file && b.index - first.index < kFetchSetSpan) {
      mask |= std::uint64_t{1} << (b.index - first.index);
    }
  }
  return {first, mask};
}

}  // namespace

TransferPlan build_transfer_plan(NodeId requester,
                                 const cache::AccessResult& plan,
                                 const PlanContext& ctx) {
  TransferPlan out;

  struct Partial {
    std::vector<BlockId> blocks;
    std::uint64_t bytes = 0;
    bool misdirected = false;
  };
  // Ordered grouping: ascending provider id, independent of fetch order.
  std::map<NodeId, Partial> remote;
  std::map<NodeId, Partial> disk;

  const std::uint64_t file_bytes =
      plan.fetches.empty() ? 0
                           : ctx.file_bytes_of(plan.fetches[0].block.file);

  for (const auto& f : plan.fetches) {
    const std::uint64_t bytes =
        ctx.whole_file
            ? file_bytes
            : cache::block_bytes(file_bytes, f.block.index, ctx.block_bytes);
    switch (f.source) {
      case cache::Source::kLocalHit:
        break;  // in memory already: covered by the request's CPU cost
      case cache::Source::kRemoteHit: {
        auto& g = remote[f.provider];
        g.blocks.push_back(f.block);
        g.bytes += bytes;
        g.misdirected |= f.misdirected;
        break;
      }
      case cache::Source::kDiskRead: {
        auto& g = disk[f.provider];
        g.blocks.push_back(f.block);
        g.bytes += bytes;
        g.misdirected |= f.misdirected;
        break;
      }
    }
  }

  const auto charge_blocks = [&](const Partial& g) -> std::uint64_t {
    return ctx.whole_file
               ? cache::blocks_for(file_bytes, ctx.block_bytes)
               : g.blocks.size();
  };

  for (auto& [provider, g] : remote) {
    TransferGroup tg;
    tg.provider = provider;
    tg.charge_blocks = charge_blocks(g);
    tg.blocks = std::move(g.blocks);
    tg.bytes = g.bytes;
    tg.misdirected = g.misdirected;
    const auto [first, mask] = fetch_set(tg.blocks);
    if (tg.misdirected) {
      // Stale hint: the probe reaches the wrong node, bounces back, and the
      // fetch is re-sent to the true holder — three control hops.
      tg.control.push_back(
          Message::peer_fetch(requester, provider, first, mask, true));
      tg.control.push_back(Message::redirect(provider, requester, first));
      tg.control.push_back(
          Message::peer_fetch(requester, provider, first, mask, false));
    } else {
      tg.control.push_back(
          Message::peer_fetch(requester, provider, first, mask, false));
    }
    tg.bulk = Message::peer_fetch_reply(provider, requester, first, mask,
                                        tg.bytes);
    out.remote.push_back(std::move(tg));
  }

  for (auto& [home, g] : disk) {
    TransferGroup tg;
    tg.provider = home;
    tg.charge_blocks = charge_blocks(g);
    tg.blocks = std::move(g.blocks);
    tg.bytes = g.bytes;
    tg.misdirected = g.misdirected;
    const BlockId& first = tg.blocks.front();
    if (home != requester) {
      tg.control.push_back(Message::home_read(
          requester, home, first,
          static_cast<std::uint32_t>(tg.blocks.size())));
      tg.bulk = Message::block_data(home, requester, first,
                                    static_cast<std::uint32_t>(
                                        tg.blocks.size()),
                                    tg.bytes);
    }
    out.disk.push_back(std::move(tg));
  }

  out.forwards.reserve(plan.forwards.size());
  for (const auto& fw : plan.forwards) {
    ForwardStep step;
    step.forward = fw;
    step.bytes = ctx.whole_file ? ctx.file_bytes_of(fw.block.file)
                                : ctx.block_bytes;
    if (fw.to != cache::kInvalidNode) {
      step.message = Message::master_forward(fw.from, fw.to, fw.block,
                                             /*age=*/0, /*slots=*/1,
                                             step.bytes);
    }
    out.forwards.push_back(std::move(step));
  }

  return out;
}

}  // namespace coop::proto
