#include "server/ccm_server.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "obs/timeline.hpp"

namespace coop::server {

namespace {

/// Barrier: fires `done` after `expected` calls to `arrive()`.
struct Join {
  std::size_t remaining;
  sim::Callback done;

  static std::shared_ptr<Join> make(std::size_t expected, sim::Callback done) {
    auto j = std::make_shared<Join>();
    j->remaining = expected;
    j->done = std::move(done);
    if (expected == 0 && j->done) {
      // Degenerate barrier: complete immediately.
      auto cb = std::move(j->done);
      cb();
    }
    return j;
  }

  void arrive() {
    assert(remaining > 0);
    if (--remaining == 0 && done) {
      auto cb = std::move(done);
      cb();
    }
  }
};

}  // namespace

CcmServer::CcmServer(sim::Engine& engine, hw::Network& network,
                     std::vector<std::unique_ptr<hw::Node>>& nodes,
                     const trace::FileSet& files,
                     const cache::CoopCacheConfig& cache_config,
                     const hw::ModelParams& params,
                     std::function<cache::NodeId(cache::FileId)> home_of)
    : engine_(engine),
      network_(network),
      nodes_(nodes),
      files_(files),
      params_(params),
      cache_(cache_config, std::move(home_of)) {
  assert(cache_config.nodes == nodes.size());
  assert(cache_config.block_bytes == params.block_bytes);
}

void CcmServer::handle(NodeId node, trace::FileId file, const RequestInfo& req,
                       sim::Callback on_served) {
  hw::Node& self = *nodes_[node];
  const std::uint64_t size = files_.size_bytes(file);
  const std::uint32_t nblocks = cache::blocks_for(size, params_.block_bytes);
  const obs::SpanCtx root = req.span;

  const obs::SpanCtx parse =
      root.begin("cpu.parse", obs::Resource::kCpu, node, params_.parse_ms);
  self.cpu().submit(params_.parse_ms, [this, node, file, size, nblocks, root,
                                       parse,
                                       done = std::move(on_served)]() mutable {
    parse.end();
    hw::Node& me = *nodes_[node];
    const obs::SpanCtx process =
        root.begin("cpu.process", obs::Resource::kCpu, node,
                   params_.process_request_ms(nblocks));
    me.cpu().submit(
        params_.process_request_ms(nblocks),
        [this, node, file, size, root, process,
         done2 = std::move(done)]() mutable {
          process.end();
          // Policy transition (instantaneous, per the paper's optimistic
          // directory assumptions); then charge everything it implies.
          auto plan = cache_.access(node, file, size);
          if (timeline_ != nullptr) {
            std::uint64_t hits = 0;
            std::uint64_t misses = 0;
            for (const auto& f : plan.fetches) {
              if (f.source == cache::Source::kDiskRead) {
                ++misses;
              } else {
                ++hits;
              }
            }
            timeline_->add_cache_access(node, engine_.now(), hits, misses);
          }
          const obs::SpanCtx fetch =
              root.begin("fetch", obs::Resource::kPhase, node);
          execute_plan(
              node, std::move(plan), fetch,
              [this, node, size, root, fetch,
               done3 = std::move(done2)]() mutable {
                fetch.end();
                hw::Node& n = *nodes_[node];
                const obs::SpanCtx serve = root.begin(
                    "cpu.serve", obs::Resource::kCpu, node,
                    params_.serve_ms(size));
                n.cpu().submit(
                    params_.serve_ms(size),
                    [this, node, size, root, serve,
                     done4 = std::move(done3)]() mutable {
                      serve.end();
                      const obs::SpanCtx respond =
                          root.begin("net.respond", obs::Resource::kNicTx,
                                     node, 0.0, size);
                      network_.respond_to_client(
                          *nodes_[node], size,
                          [respond, done5 = std::move(done4)]() mutable {
                            respond.end();
                            if (done5) done5();
                          });
                    });
              });
        });
  });
}

void CcmServer::send_control_chain(std::shared_ptr<proto::TransferPlan> keep,
                                   const std::vector<proto::Message>* msgs,
                                   std::size_t i, sim::Callback done) {
  if (i >= msgs->size()) {
    if (done) done();
    return;
  }
  const proto::Message& m = (*msgs)[i];
  network_.send_control(
      *nodes_[m.from], *nodes_[m.to],
      [this, keep = std::move(keep), msgs, i,
       done = std::move(done)]() mutable {
        send_control_chain(std::move(keep), msgs, i + 1, std::move(done));
      });
}

void CcmServer::execute_plan(NodeId node, cache::AccessResult plan,
                             obs::SpanCtx span, sim::Callback on_all_blocks) {
  hw::Node& self = *nodes_[node];
  // Whole-file mode: one fetch entry stands for the file's full block
  // footprint (transfers carry the whole file; per-block CPU costs still
  // apply to every real block).
  const bool whole_file = cache_.config().whole_file;

  // Lower the policy actions to the CCM wire protocol: one transfer group
  // per provider, each with its control-message sequence and bulk payload.
  // The simulator charges exactly these messages — the same vocabulary the
  // threaded runtime transports (docs/MIDDLEWARE.md).
  proto::PlanContext pctx;
  pctx.block_bytes = params_.block_bytes;
  pctx.whole_file = whole_file;
  pctx.file_bytes_of = [this](cache::FileId f) {
    return files_.size_bytes(f);
  };
  auto tplan = std::make_shared<proto::TransferPlan>(
      proto::build_transfer_plan(node, plan, pctx));

  auto join =
      Join::make(tplan->remote.size() + tplan->disk.size(),
                 std::move(on_all_blocks));

  // --- Peer fetches: control msg(s) -> peer CPU -> bulk transfer -> cache. ---
  for (const auto& tg : tplan->remote) {
    const NodeId provider = tg.provider;
    hw::Node& peer = *nodes_[provider];
    const std::uint64_t k = tg.charge_blocks;
    const std::uint64_t bytes = tg.bytes;
    const obs::SpanCtx g =
        span.branch("fetch.remote", obs::Resource::kNicRx, node, bytes);
    if (g.active()) {
      std::string detail = "provider=" + std::to_string(provider) +
                           " blocks=" + std::to_string(k);
      if (tg.misdirected) detail += " misdirected";
      g.note(std::move(detail));
    }
    // Whole-file transfers are long enough to be worth phase-level spans
    // (serve at the peer, wire time, caching here); block-mode traces keep
    // their original single-span shape.
    const bool sub_spans = whole_file && g.active();
    auto after_control = [this, &peer, &self, k, bytes, node, provider, g,
                          sub_spans, join]() {
      const obs::SpanCtx serve =
          sub_spans ? g.begin("wholefile.serve", obs::Resource::kCpu, provider,
                              params_.serve_peer_block_ms *
                                  static_cast<double>(k))
                    : obs::SpanCtx{};
      peer.cpu().submit(
          params_.serve_peer_block_ms * static_cast<double>(k),
          [this, &peer, &self, k, bytes, node, provider, g, serve, sub_spans,
           join]() {
            serve.end();
            const obs::SpanCtx ship =
                sub_spans ? g.begin("wholefile.ship", obs::Resource::kNicTx,
                                    provider, 0.0, bytes)
                          : obs::SpanCtx{};
            network_.send(peer, self, bytes, [this, &self, k, bytes, node,
                                              provider, g, ship, sub_spans,
                                              join]() {
              ship.end();
              if (timeline_ != nullptr) {
                timeline_->add_bytes(provider, obs::Resource::kNicTx,
                                     engine_.now(), bytes);
                timeline_->add_bytes(node, obs::Resource::kNicRx,
                                     engine_.now(), bytes);
              }
              const obs::SpanCtx cache_cpu =
                  sub_spans ? g.begin("wholefile.cache", obs::Resource::kCpu,
                                      node,
                                      params_.cache_block_ms *
                                          static_cast<double>(k))
                            : obs::SpanCtx{};
              self.cpu().submit(
                  params_.cache_block_ms * static_cast<double>(k),
                  [g, cache_cpu, join]() {
                    cache_cpu.end();
                    g.end();
                    join->arrive();
                  });
            });
          });
    };
    send_control_chain(tplan, &tg.control, 0, std::move(after_control));
  }

  // --- Disk reads at the home node (possibly this node). ---
  for (const auto& tg : tplan->disk) {
    const NodeId home = tg.provider;
    hw::Node& reader = *nodes_[home];
    const std::uint64_t bytes = tg.bytes;
    const std::uint64_t k = tg.charge_blocks;

    const obs::SpanCtx g =
        span.branch("fetch.disk", obs::Resource::kDisk, home, bytes);
    if (g.active()) {
      g.note("home=" + std::to_string(home) +
             " blocks=" + std::to_string(k));
    }
    const bool sub_spans = whole_file && g.active();
    auto do_reads = [this, &reader, &self, blocks = &tg.blocks, tplan, bytes,
                     k, g, sub_spans, join, home, node, whole_file]() mutable {
      const obs::SpanCtx read =
          sub_spans ? g.begin("wholefile.read", obs::Resource::kDisk, home,
                              0.0, bytes)
                    : obs::SpanCtx{};
      auto after_reads = [this, &reader, &self, bytes, k, g, read, sub_spans,
                          join, home, node]() {
        read.end();
        if (home == node) {
          // Local disk: bus into memory, then per-block cache cost.
          self.bus().submit(params_.bus_ms(bytes), [this, &self, k, g,
                                                    sub_spans, join, node]() {
            const obs::SpanCtx cache_cpu =
                sub_spans ? g.begin("wholefile.cache", obs::Resource::kCpu,
                                    node,
                                    params_.cache_block_ms *
                                        static_cast<double>(k))
                          : obs::SpanCtx{};
            self.cpu().submit(params_.cache_block_ms * static_cast<double>(k),
                              [g, cache_cpu, join]() {
                                cache_cpu.end();
                                g.end();
                                join->arrive();
                              });
          });
        } else {
          // Remote home: ship the blocks over, then cache them here.
          const obs::SpanCtx ship =
              sub_spans ? g.begin("wholefile.ship", obs::Resource::kNicTx,
                                  home, 0.0, bytes)
                        : obs::SpanCtx{};
          network_.send(reader, self, bytes, [this, &self, k, bytes, g, ship,
                                              sub_spans, home, node, join]() {
            ship.end();
            if (timeline_ != nullptr) {
              timeline_->add_bytes(home, obs::Resource::kNicTx, engine_.now(),
                                   bytes);
              timeline_->add_bytes(node, obs::Resource::kNicRx, engine_.now(),
                                   bytes);
            }
            const obs::SpanCtx cache_cpu =
                sub_spans ? g.begin("wholefile.cache", obs::Resource::kCpu,
                                    node,
                                    params_.cache_block_ms *
                                        static_cast<double>(k))
                          : obs::SpanCtx{};
            self.cpu().submit(params_.cache_block_ms * static_cast<double>(k),
                              [g, cache_cpu, join]() {
                                cache_cpu.end();
                                g.end();
                                join->arrive();
                              });
          });
        }
      };
      // Blocks are demand-read one at a time, so concurrent request streams
      // interleave at the disk exactly as in the paper's §5 analysis.
      const std::uint64_t fb =
          blocks->empty() ? 0 : files_.size_bytes((*blocks)[0].file);
      std::vector<hw::BlockRead> seq;
      if (whole_file && !blocks->empty()) {
        const std::uint32_t nb = cache::blocks_for(fb, params_.block_bytes);
        seq.reserve(nb);
        for (std::uint32_t i = 0; i < nb; ++i) {
          seq.push_back(hw::BlockRead{
              (*blocks)[0].file, i,
              cache::block_bytes(fb, i, params_.block_bytes)});
        }
      } else {
        seq.reserve(blocks->size());
        for (const auto& b : *blocks) {
          seq.push_back(hw::BlockRead{
              b.file, b.index,
              cache::block_bytes(fb, b.index, params_.block_bytes)});
        }
      }
      hw::read_sequence(reader.disk(), std::move(seq), std::move(after_reads));
    };

    send_control_chain(tplan, &tg.control, 0, std::move(do_reads));
  }

  // --- Master forwards: asynchronous, off the request's critical path. ---
  for (const auto& step : tplan->forwards) {
    const cache::Forward fw = step.forward;
    hw::Node& from = *nodes_[fw.from];
    const std::uint64_t fw_bytes = step.bytes;
    // Traced forwards keep the request in flight until the transfer lands;
    // the tracer only commits the request once every span has closed.
    obs::SpanCtx f;
    if (span.active() && step.message.has_value()) {
      f = span.branch("forward.master", obs::Resource::kNicTx, fw.from,
                      fw_bytes);
      if (f.active()) f.note("to=" + std::to_string(fw.to));
    }
    from.cpu().submit(params_.evict_master_ms,
                      [this, fw, &from, fw_bytes, f]() {
                        if (fw.to == cache::kInvalidNode) return;
                        sim::Callback on_landed;
                        if (f.active()) on_landed = [f]() { f.end(); };
                        network_.send(from, *nodes_[fw.to], fw_bytes,
                                      std::move(on_landed));
                      });
  }
}

}  // namespace coop::server
