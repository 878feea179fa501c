// Web server built on the cooperative caching middleware (the paper's
// system under test).
//
// Request path (§3 + Table 1): parse -> process file request (per-block CPU)
// -> consult ClusterCache -> execute the resulting plan (peer fetches over
// the LAN, disk reads at home nodes, asynchronous master forwards) -> serve
// the response. The policy transition is applied instantaneously at plan
// time, matching the paper's optimistic perfect-directory assumptions; the
// simulator then charges all the latencies and occupancies the plan implies.
#pragma once

#include <memory>
#include <vector>

#include "cache/coop_cache.hpp"
#include "hw/network.hpp"
#include "hw/node.hpp"
#include "proto/plan.hpp"
#include "server/server.hpp"

namespace coop::server {

class CcmServer final : public Server {
 public:
  /// `nodes` must outlive the server. `cache_config.nodes` must equal
  /// `nodes.size()`. `home_of` optionally overrides the file-to-home-disk
  /// placement (defaults to file-id modulo nodes).
  CcmServer(sim::Engine& engine, hw::Network& network,
            std::vector<std::unique_ptr<hw::Node>>& nodes,
            const trace::FileSet& files,
            const cache::CoopCacheConfig& cache_config,
            const hw::ModelParams& params,
            std::function<cache::NodeId(cache::FileId)> home_of = {});

  void handle(NodeId node, trace::FileId file, const RequestInfo& req,
              sim::Callback on_served) override;
  using Server::handle;

  void reset_stats() override { cache_.reset_stats(); }

  void attach_timeline(obs::Timeline* timeline) override {
    timeline_ = timeline;
  }

  [[nodiscard]] double local_hit_rate() const override {
    return cache_.stats().local_hit_rate();
  }
  [[nodiscard]] double remote_hit_rate() const override {
    return cache_.stats().remote_hit_rate();
  }
  [[nodiscard]] std::uint64_t remote_block_fetches() const override {
    return cache_.stats().remote_hits;
  }
  [[nodiscard]] std::uint64_t master_forwards() const override {
    return cache_.stats().forwards_attempted;
  }
  [[nodiscard]] std::uint64_t hint_misdirects() const override {
    return cache_.stats().hint_misdirects;
  }

  [[nodiscard]] const cache::ClusterCache& cache() const { return cache_; }

 private:
  /// Executes fetches/forwards of `plan`; `on_all_blocks` fires when every
  /// block of the request is in `node`'s memory. `span` is the request's
  /// fetch-phase span (inactive when untraced); transfer groups branch off it.
  void execute_plan(NodeId node, cache::AccessResult plan, obs::SpanCtx span,
                    sim::Callback on_all_blocks);

  /// Charges the control messages `(*msgs)[i..]` as network control hops, in
  /// order, then fires `done`. `keep` pins the TransferPlan the messages
  /// live in for the duration of the chain.
  void send_control_chain(std::shared_ptr<proto::TransferPlan> keep,
                          const std::vector<proto::Message>* msgs,
                          std::size_t i, sim::Callback done);

  sim::Engine& engine_;
  hw::Network& network_;
  std::vector<std::unique_ptr<hw::Node>>& nodes_;
  const trace::FileSet& files_;
  hw::ModelParams params_;
  cache::ClusterCache cache_;
  obs::Timeline* timeline_ = nullptr;
};

}  // namespace coop::server
