// The transport layer: the Mailbox queue and its backpressure, wire framing
// robustness (truncation, corruption, reassembly), the InProc/Tcp Transport
// implementations, and the end-to-end check that a CcmCluster split across
// three TCP transports computes byte-identical storage to the in-process
// runtime. Frame-corruption tests assert the failure contract: malformed
// input poisons the stream (drop the connection) and never crashes or
// delivers a partial message.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ccm/cluster.hpp"
#include "ccm/directory_client.hpp"
#include "ccm/remote_storage.hpp"
#include "ccm/storage.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/mailbox.hpp"
#include "net/pending_calls.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "proto/dir_batch.hpp"
#include "sim/random.hpp"
#include "util/mutex.hpp"

namespace coop::ccm {

struct CcmClusterTestPeer {
  static std::uint64_t clock_value(const CcmCluster& c) {
    return c.clock_.load(std::memory_order_relaxed);
  }
  /// The youngest age node `n`'s shard holds; 0 when it holds nothing.
  static std::uint64_t youngest_age(const CcmCluster& c, std::size_t n) {
    CcmCluster::Shard& sh = *c.shards_[n];
    util::UniqueLock lock(sh.mu);
    std::uint64_t youngest = 0;
    for (const auto& e : sh.state.cache().masters()) {
      youngest = std::max(youngest, e.age);
    }
    for (const auto& e : sh.state.cache().copies()) {
      youngest = std::max(youngest, e.age);
    }
    return youngest;
  }
  /// Node `n`'s cached buffer for `b`; null when it caches none.
  static net::BlockPtr cached(const CcmCluster& c, std::size_t n,
                              const cache::BlockId& b) {
    CcmCluster::Shard& sh = *c.shards_[n];
    util::UniqueLock lock(sh.mu);
    const net::BlockPtr* data = sh.store.find(b);
    return data == nullptr ? nullptr : *data;
  }
  /// Puts `data` in place of node `n`'s buffer for `b`; returns the old one.
  static net::BlockPtr swap_cached(const CcmCluster& c, std::size_t n,
                                   const cache::BlockId& b,
                                   net::BlockPtr data) {
    CcmCluster::Shard& sh = *c.shards_[n];
    util::UniqueLock lock(sh.mu);
    net::BlockPtr* cached = sh.store.find(b);
    if (cached == nullptr) throw std::out_of_range("swap_cached: not cached");
    std::swap(*cached, data);
    return data;
  }
  /// Points the hint slot of `b` at `master`.
  static void plant_hint(CcmCluster& c, const cache::BlockId& b,
                         cache::NodeId master) {
    c.hint_publish(b, master, 0);
  }
};

}  // namespace coop::ccm

namespace coop {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------- Mailbox ----

TEST(Mailbox, SendReceiveOrder) {
  net::Mailbox<int> mb;
  mb.send(1);
  mb.send(2);
  EXPECT_EQ(mb.receive().value(), 1);
  EXPECT_EQ(mb.receive().value(), 2);
}

TEST(Mailbox, CloseDrainsThenEnds) {
  net::Mailbox<int> mb;
  mb.send(7);
  mb.close();
  EXPECT_FALSE(mb.send(8));
  EXPECT_EQ(mb.receive().value(), 7);
  EXPECT_FALSE(mb.receive().has_value());
}

TEST(Mailbox, CrossThreadHandoff) {
  net::Mailbox<int> mb("test.mailbox", 4);
  std::atomic<int> sum{0};
  std::thread consumer([&] {
    while (auto v = mb.receive()) sum += *v;
  });
  for (int i = 1; i <= 100; ++i) mb.send(i);
  mb.close();
  consumer.join();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(Mailbox, BoundedCapacityBlocksProducer) {
  net::Mailbox<int> mb("test.mailbox", 1);
  mb.send(1);
  std::atomic<bool> second_sent{false};
  std::thread producer([&] {
    mb.send(2);
    second_sent = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(second_sent.load());
  EXPECT_EQ(mb.receive().value(), 1);
  producer.join();
  EXPECT_TRUE(second_sent.load());
}

// ------------------------------------------------------------- framing ----

net::Envelope make_envelope(std::uint64_t seq, std::size_t payload = 0) {
  net::Envelope env;
  env.msg = proto::Message::barrier(/*from=*/1, /*home=*/0, /*phase=*/3);
  env.seq = seq;
  env.epoch = 42;
  if (payload > 0) {
    std::vector<std::byte> bytes(payload);
    for (std::size_t i = 0; i < payload; ++i) {
      bytes[i] = static_cast<std::byte>(i & 0xFF);
    }
    env.payloads.push_back(net::make_ready_block(std::move(bytes)));
  }
  return env;
}

TEST(Frame, HandshakeRoundtripAndRejection) {
  const auto hs = net::encode_handshake(5);
  ASSERT_EQ(hs.size(), net::kHandshakeSize);
  const auto peer = net::decode_handshake(hs);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(*peer, 5);

  auto bad_magic = hs;
  bad_magic[0] = std::byte{0xFF};
  EXPECT_FALSE(net::decode_handshake(bad_magic).has_value());

  auto bad_version = hs;
  bad_version[4] = std::byte{0xEE};
  EXPECT_FALSE(net::decode_handshake(bad_version).has_value());
}

TEST(Frame, RoundtripWithAndWithoutPayload) {
  net::FrameReader reader;
  const auto a = net::encode_frame(make_envelope(9), 1234, true);
  const auto b = net::encode_frame(make_envelope(10, 96), proto::kNoAge,
                                   false);
  ASSERT_TRUE(reader.feed(a));
  ASSERT_TRUE(reader.feed(b));

  auto fa = reader.next();
  ASSERT_TRUE(fa.has_value());
  EXPECT_EQ(fa->env.msg.kind, proto::MsgKind::kBarrier);
  EXPECT_EQ(fa->env.msg.from, 1);
  EXPECT_EQ(fa->env.msg.count, 3u);
  EXPECT_EQ(fa->env.seq, 9u);
  EXPECT_EQ(fa->env.epoch, 42u);
  EXPECT_TRUE(fa->env.payloads.empty());
  EXPECT_EQ(fa->sender_age, 1234u);
  EXPECT_TRUE(fa->sender_full);

  auto fb = reader.next();
  ASSERT_TRUE(fb.has_value());
  ASSERT_EQ(fb->env.payloads.size(), 1u);
  const net::BlockPtr data = fb->env.payload();
  EXPECT_TRUE(data->is_ready());  // wire decodes are always ready
  ASSERT_EQ(data->bytes.size(), 96u);
  EXPECT_EQ(data->bytes[95], std::byte{95});
  EXPECT_EQ(fb->sender_age, proto::kNoAge);
  EXPECT_FALSE(fb->sender_full);

  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.poisoned());
}

TEST(Frame, ReassemblesAcrossArbitraryReadBoundaries) {
  std::vector<std::byte> stream;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    const auto f =
        net::encode_frame(make_envelope(s, (s % 2) ? 33 : 0), s * 10, false);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  // Every chunk size from pathological (1 byte) past the header size.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}}) {
    net::FrameReader reader;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      ASSERT_TRUE(reader.feed({stream.data() + off, n}));
    }
    for (std::uint64_t s = 1; s <= 6; ++s) {
      auto f = reader.next();
      ASSERT_TRUE(f.has_value()) << "chunk=" << chunk << " frame=" << s;
      EXPECT_EQ(f->env.seq, s);
      EXPECT_EQ(f->sender_age, s * 10);
    }
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(Frame, TruncatedFrameIsHeldNotDelivered) {
  const auto f = net::encode_frame(make_envelope(1, 50), 0, false);
  net::FrameReader reader;
  ASSERT_TRUE(reader.feed({f.data(), f.size() - 10}));
  EXPECT_FALSE(reader.next().has_value());  // no partial delivery
  EXPECT_FALSE(reader.poisoned());          // just incomplete, not malformed
  EXPECT_GT(reader.buffered(), 0u);
  ASSERT_TRUE(reader.feed({f.data() + f.size() - 10, 10}));
  EXPECT_TRUE(reader.next().has_value());
}

TEST(Frame, CorruptLengthPrefixPoisons) {
  // Too-short length: below the fixed header size.
  {
    auto f = net::encode_frame(make_envelope(1), 0, false);
    f[0] = std::byte{1};
    f[1] = f[2] = f[3] = std::byte{0};
    net::FrameReader reader;
    EXPECT_FALSE(reader.feed(f));
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.feed(f));  // stays poisoned
  }
  // Absurd length: past the frame ceiling.
  {
    auto f = net::encode_frame(make_envelope(1), 0, false);
    f[0] = f[1] = f[2] = f[3] = std::byte{0xFF};
    net::FrameReader reader(/*max_frame_bytes=*/1 << 16);
    EXPECT_FALSE(reader.feed(f));
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(reader.next().has_value());
  }
}

/// make_envelope(seq) carrying one ready payload of each size in `sizes`,
/// every byte of payload i equal to i + 1.
net::Envelope make_multi_envelope(std::uint64_t seq,
                                  const std::vector<std::size_t>& sizes) {
  net::Envelope env = make_envelope(seq);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    env.payloads.push_back(net::make_ready_block(std::vector<std::byte>(
        sizes[i], static_cast<std::byte>(i + 1))));
  }
  return env;
}

TEST(Frame, PayloadLengthDisagreementPoisons) {
  // The payload count ends the fixed header (after the u32 length prefix,
  // flags/age/seq/epoch and the proto message); the length table follows.
  constexpr std::size_t kCountOff = 4 + net::kFrameFixedSize - 4;
  constexpr std::size_t kTableOff = 4 + net::kFrameFixedSize;
  const auto good = net::encode_frame(make_multi_envelope(1, {16, 9}), 0,
                                      false);
  const auto poisons = [](const std::vector<std::byte>& f) {
    net::FrameReader reader;
    EXPECT_FALSE(reader.feed(f));
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(reader.next().has_value());
  };
  // A per-payload length one past, or one short of, what the frame holds.
  for (const std::uint8_t len : {std::uint8_t{17}, std::uint8_t{15}}) {
    auto f = good;
    f[kTableOff] = std::byte{len};
    poisons(f);
  }
  // A payload count that disagrees with the table the frame holds, or that
  // no frame may carry.
  for (const std::uint8_t count : {std::uint8_t{1}, std::uint8_t{3}}) {
    auto f = good;
    f[kCountOff] = std::byte{count};
    poisons(f);
  }
  auto f = good;
  f[kCountOff] = std::byte{net::kMaxFramePayloads + 1};
  poisons(f);
}

// A frame of several payloads, one of them empty, followed by a second
// frame: split into two feeds at every byte boundary, it comes out whole,
// and nothing stays buffered.
TEST(Frame, MultiPayloadFrameReassemblesAtEverySplit) {
  const std::vector<std::size_t> sizes = {40, 0, 300, 7};
  auto stream = net::encode_frame(make_multi_envelope(1, sizes), 5, true);
  const std::size_t first_size = stream.size();
  EXPECT_EQ(first_size, 4 + net::kFrameFixedSize + 4 * sizes.size() + 347);
  const auto tail = net::encode_frame(make_envelope(2, 3), 6, false);
  stream.insert(stream.end(), tail.begin(), tail.end());
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    net::FrameReader reader;
    const std::span<const std::byte> all(stream);
    ASSERT_TRUE(reader.feed(all.first(cut)));
    // Only a partial frame is buffered.
    const std::size_t partial = cut < first_size      ? cut
                                : cut < stream.size() ? cut - first_size
                                                      : 0;
    EXPECT_EQ(reader.buffered(), partial) << "cut=" << cut;
    ASSERT_TRUE(reader.feed(all.subspan(cut)));
    auto f = reader.next();
    ASSERT_TRUE(f.has_value()) << "cut=" << cut;
    EXPECT_EQ(f->env.seq, 1u);
    EXPECT_EQ(f->sender_age, 5u);
    ASSERT_EQ(f->env.payloads.size(), sizes.size()) << "cut=" << cut;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(f->env.payloads[i]->bytes,
                std::vector<std::byte>(sizes[i],
                                       static_cast<std::byte>(i + 1)))
          << "cut=" << cut << " payload=" << i;
    }
    auto g = reader.next();
    ASSERT_TRUE(g.has_value()) << "cut=" << cut;
    EXPECT_EQ(g->env.seq, 2u);
    ASSERT_EQ(g->env.payloads.size(), 1u);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(Frame, GarbageMessageBytesPoisonWithoutDroppingEarlierFrames) {
  const auto good = net::encode_frame(make_envelope(1), 0, false);
  auto bad = net::encode_frame(make_envelope(2), 0, false);
  for (std::size_t i = 4 + 25; i < 4 + 25 + proto::kWireSize; ++i) {
    bad[i] = std::byte{0xFF};  // trash the proto message bytes
  }
  std::vector<std::byte> stream(good.begin(), good.end());
  stream.insert(stream.end(), bad.begin(), bad.end());
  net::FrameReader reader;
  EXPECT_FALSE(reader.feed(stream));
  // The valid frame ahead of the corruption still comes out; nothing after.
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->env.seq, 1u);
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.next().has_value());
}

/// A kDirBatchRequest envelope whose payload is a real encoded batch, the
/// way RemoteDirectory ships one.
net::Envelope make_batch_envelope(std::uint64_t seq, std::size_t items_n) {
  std::vector<proto::DirBatchItem> items;
  for (std::size_t i = 0; i < items_n; ++i) {
    items.push_back({static_cast<proto::DirBatchOp>(i %
                         proto::kDirBatchOpCount),
                     {static_cast<cache::FileId>(i / 4),
                      static_cast<std::uint32_t>(i % 4)},
                     0});
  }
  auto payload = proto::encode_dir_batch_request(2, items);
  net::Envelope env;
  env.msg = proto::Message::dir_batch_request(
      2, 0, static_cast<std::uint32_t>(items.size()), payload.size());
  env.seq = seq;
  env.epoch = 42;
  env.payloads.push_back(net::make_ready_block(std::move(payload)));
  return env;
}

TEST(Frame, DirBatchPayloadSurvivesFraming) {
  net::FrameReader reader;
  ASSERT_TRUE(reader.feed(net::encode_frame(make_batch_envelope(5, 9), 0,
                                            false)));
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->env.msg.kind, proto::MsgKind::kDirBatchRequest);
  ASSERT_NE(f->env.payload(), nullptr);
  const auto req = proto::decode_dir_batch_request(f->env.payload()->bytes);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->node, 2);
  ASSERT_EQ(req->items.size(), 9u);
  EXPECT_EQ(req->items[3].op, proto::DirBatchOp::kValidate);
  EXPECT_EQ(req->items[5].block.file, 1u);
}

// Deterministic seeded fuzz of the reassembler: whatever arrives — bit
// flips, truncation, duplicated chunks, spliced garbage, arbitrary slice
// boundaries — the reader either delivers well-formed frames or poisons the
// stream. It never crashes, never loops, and never delivers past a poison.
// Dir-batch frames ride in the mix: whenever one survives reassembly, its
// payload goes through the strict batch decoder, which must reject or parse
// — never crash — whatever the mutations left behind.
TEST(Frame, SeededFuzzPoisonsButNeverCrashes) {
  sim::Rng rng(20260808);
  std::size_t poisoned_streams = 0;
  std::size_t delivered_frames = 0;
  std::size_t decoded_batches = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::byte> stream;
    const std::size_t frames = 1 + rng.uniform_int(4);
    for (std::size_t i = 0; i < frames; ++i) {
      net::Envelope env;
      if (rng.uniform_int(3) == 0) {
        env = make_batch_envelope(i + 1, 1 + rng.uniform_int(12));
      } else {
        const std::size_t payload =
            rng.uniform_int(3) == 0 ? 1 + rng.uniform_int(64) : 0;
        env = make_envelope(i + 1, payload);
      }
      const auto f = net::encode_frame(env, rng.uniform_int(1000),
                                       rng.uniform_int(2) == 1);
      stream.insert(stream.end(), f.begin(), f.end());
    }
    switch (rng.uniform_int(4)) {
      case 0:  // flip a few bytes anywhere (headers included)
        for (int k = 0; k < 3; ++k) {
          stream[rng.uniform_int(stream.size())] ^=
              static_cast<std::byte>(1 + rng.uniform_int(255));
        }
        break;
      case 1:  // truncate mid-frame
        stream.resize(1 + rng.uniform_int(stream.size()));
        break;
      case 2: {  // duplicate a chunk in place
        const std::size_t at = rng.uniform_int(stream.size());
        const std::size_t len =
            std::min(stream.size() - at,
                     static_cast<std::size_t>(1 + rng.uniform_int(40)));
        const std::vector<std::byte> chunk(
            stream.begin() + static_cast<std::ptrdiff_t>(at),
            stream.begin() + static_cast<std::ptrdiff_t>(at + len));
        stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                      chunk.begin(), chunk.end());
        break;
      }
      default: {  // splice garbage bytes
        std::vector<std::byte> junk(1 + rng.uniform_int(64));
        for (auto& b : junk) {
          b = static_cast<std::byte>(rng.uniform_int(256));
        }
        const std::size_t at = rng.uniform_int(stream.size() + 1);
        stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                      junk.begin(), junk.end());
        break;
      }
    }
    net::FrameReader reader;
    std::size_t off = 0;
    bool ok = true;
    while (off < stream.size() && ok) {
      const std::size_t n =
          std::min(stream.size() - off,
                   static_cast<std::size_t>(1 + rng.uniform_int(48)));
      ok = reader.feed(std::span<const std::byte>(stream).subspan(off, n));
      off += n;
      while (auto f = reader.next()) {
        ++delivered_frames;
        if (f->env.msg.kind == proto::MsgKind::kDirBatchRequest &&
            f->env.payload() != nullptr) {
          // Strict payload decode under fuzz: nullopt or a parse whose item
          // count matches its own header — never a crash or over-read.
          if (const auto req =
                  proto::decode_dir_batch_request(f->env.payload()->bytes)) {
            ++decoded_batches;
            EXPECT_LE(req->items.size(), proto::kDirBatchMaxItems);
          }
        }
      }
    }
    if (reader.poisoned()) {
      ++poisoned_streams;
      EXPECT_FALSE(reader.feed(stream));          // stays poisoned
      EXPECT_FALSE(reader.next().has_value());    // delivers nothing more
    }
  }
  // The sweep must exercise both outcomes, or it is not testing anything —
  // and some batch payloads must survive intact to prove the decode ran.
  EXPECT_GT(poisoned_streams, 0u);
  EXPECT_GT(delivered_frames, 0u);
  EXPECT_GT(decoded_batches, 0u);
}

// ---------------------------------------------------------- transports ----

/// Answers a kBarrier request at `node` with a granted barrier_reply,
/// bouncing any payload back.
net::Envelope echo_reply(cache::NodeId node, const net::Envelope& env) {
  net::Envelope out;
  out.msg = proto::Message::barrier_reply(node, env.msg.from, env.msg.count,
                                          true);
  out.seq = env.seq;
  out.payloads = env.payloads;
  return out;
}

/// Serves `transport`'s inbound queue with echo_reply until the transport
/// closes.
void echo_server(net::Transport& transport, cache::NodeId node) {
  while (auto env = transport.receive(node)) {
    transport.post(echo_reply(node, *env));
  }
}

// A reply reaches only the call whose seq it echoes, and only once: a
// duplicate, or one that arrives after its call gave up, finds nobody
// waiting. Failing one destination fails only the calls addressed to it.
TEST(PendingCalls, RepliesAndFailuresReachOnlyTheirOwnCalls) {
  net::PendingCalls table("test.pending");
  const auto opened = [&table](cache::NodeId to, std::uint32_t phase) {
    net::Envelope env;
    env.msg = proto::Message::barrier(0, to, phase);
    table.open(env);
    return env;
  };
  const auto failure = [&table](std::uint64_t seq) {
    try {
      (void)table.wait(seq, 10ms);
    } catch (const net::TransportError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "call " << seq << " was answered";
    return net::TransportError::Kind::kInjected;
  };
  const net::Envelope answered = opened(1, 1);
  const net::Envelope dropped = opened(1, 2);
  const net::Envelope silent = opened(2, 3);
  EXPECT_NE(answered.seq, dropped.seq);

  EXPECT_TRUE(table.complete(echo_reply(1, answered)));
  EXPECT_FALSE(table.complete(echo_reply(1, answered)));  // duplicate
  EXPECT_EQ(table.wait(answered.seq, 1s).msg.count, 1u);

  table.fail(1);
  EXPECT_EQ(failure(dropped.seq), net::TransportError::Kind::kPeerDown);
  EXPECT_EQ(failure(silent.seq), net::TransportError::Kind::kTimeout);
  EXPECT_FALSE(table.complete(echo_reply(2, silent)));  // too late
  EXPECT_EQ(table.completed(), 1u);
  EXPECT_EQ(table.timeouts(), 1u);

  table.close();
  try {
    (void)opened(1, 4);
    ADD_FAILURE() << "a closed table must refuse new calls";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kShutdown);
  }
}

TEST(InProcTransport, CallRoundtripAndStats) {
  net::InProcTransport t(2);
  std::thread server([&] { echo_server(t, 1); });
  net::Envelope req;
  req.msg = proto::Message::barrier(0, 1, 7);
  const net::Envelope reply = t.call(std::move(req));
  EXPECT_EQ(reply.msg.kind, proto::MsgKind::kBarrierReply);
  EXPECT_EQ(reply.msg.count, 7u);
  EXPECT_EQ(t.stats().rpcs, 1u);
  t.close();
  server.join();
}

TEST(InProcTransport, BoundNodeRunsTheHandlerOnTheCallingThread) {
  net::InProcTransport t(2);
  std::thread::id served_on;
  int served = 0;
  ASSERT_TRUE(t.serve_direct(1, [&](net::Envelope& env) {
    served_on = std::this_thread::get_id();
    ++served;
    return echo_reply(1, env);
  }));
  EXPECT_FALSE(t.serve_direct(1, [](net::Envelope& env) {
    return echo_reply(1, env);
  })) << "a node binds at most once";

  net::Envelope req;
  req.msg = proto::Message::barrier(0, 1, 7);
  const net::Envelope reply = t.call(std::move(req));
  EXPECT_EQ(reply.msg.kind, proto::MsgKind::kBarrierReply);
  EXPECT_EQ(reply.msg.count, 7u);
  EXPECT_EQ(served_on, std::this_thread::get_id());

  // A one-way request is served on the posting thread too; it has no
  // receiver to queue for.
  net::Envelope oneway;
  oneway.msg = proto::Message::barrier(0, 1, 8);
  EXPECT_TRUE(t.post(std::move(oneway)));
  EXPECT_EQ(served, 2);
}

TEST(InProcTransport, DirectAndQueuedPathsCountTheSame) {
  constexpr std::uint64_t kCalls = 25;
  obs::MetricsRegistry queued_metrics, direct_metrics;
  net::InProcTransport queued(2);
  queued.set_metrics(&queued_metrics);
  std::thread server([&] { echo_server(queued, 1); });
  net::InProcTransport direct(2);
  direct.set_metrics(&direct_metrics);
  ASSERT_TRUE(direct.serve_direct(
      1, [](net::Envelope& env) { return echo_reply(1, env); }));

  for (std::uint64_t i = 0; i < kCalls; ++i) {
    for (net::Transport* t : {static_cast<net::Transport*>(&queued),
                              static_cast<net::Transport*>(&direct)}) {
      net::Envelope req;
      req.msg = proto::Message::barrier(0, 1, static_cast<std::uint32_t>(i));
      req.payloads.push_back(net::make_ready_block(std::vector<std::byte>(64)));
      EXPECT_EQ(t->call(std::move(req)).msg.count, i);
    }
  }
  queued.close();
  server.join();

  const net::TransportStats q = queued.stats();
  const net::TransportStats d = direct.stats();
  EXPECT_EQ(d.rpcs, kCalls);
  EXPECT_EQ(d.rpcs, q.rpcs);
  EXPECT_EQ(d.sent, q.sent);
  EXPECT_EQ(d.received, q.received);
  EXPECT_EQ(d.sent, 2 * kCalls);  // request + reply per round trip
  EXPECT_EQ(d.payload_copies, 0u);
  // Both paths pass through Transport::call, so the per-kind RPC samples
  // are recorded alike.
  const auto kind = static_cast<std::size_t>(proto::MsgKind::kBarrier);
  EXPECT_EQ(direct_metrics.snapshot().rpc[kind].calls, kCalls);
  EXPECT_EQ(queued_metrics.snapshot().rpc[kind].calls, kCalls);
}

TEST(InProcTransport, DirectCallAfterCloseThrowsShutdown) {
  net::InProcTransport t(2);
  ASSERT_TRUE(t.serve_direct(
      1, [](net::Envelope& env) { return echo_reply(1, env); }));
  t.close();
  net::Envelope req;
  req.msg = proto::Message::barrier(0, 1, 1);
  try {
    (void)t.call(std::move(req));
    FAIL() << "call() on a closed transport must throw";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kShutdown);
  }
  EXPECT_FALSE(t.serve_direct(
      0, [](net::Envelope& env) { return echo_reply(0, env); }));
}

TEST(Transport, FaultyAndTcpTransportsDeclineDirectBinding) {
  const net::Transport::Handler handler = [](net::Envelope& env) {
    return echo_reply(env.msg.to, env);
  };
  net::FaultyTransport faulty(std::make_shared<net::InProcTransport>(2),
                              net::FaultSchedule{});
  EXPECT_FALSE(faulty.serve_direct(1, handler));
  net::TcpConfig tc;
  tc.local_node = 0;
  tc.nodes = 2;
  net::TcpTransport tcp(tc);
  EXPECT_FALSE(tcp.serve_direct(0, handler));
  tcp.close();
}

// FaultyTransport's reply rules act on the reply post a protocol thread
// makes, so a cluster behind it must keep the queued path: a delay on
// peer-fetch replies still fires and is logged.
TEST(Transport, ReplyDelayRuleFiresBehindFaultyTransport) {
  auto faulty = std::make_shared<net::FaultyTransport>(
      std::make_shared<net::InProcTransport>(2),
      net::FaultSchedule::parse("delay:kind=peer-fetch-reply,ms=1"));
  ccm::CcmConfig cfg;
  cfg.nodes = 2;
  cfg.block_bytes = 4096;
  cfg.capacity_bytes = 16 * 4096;
  ccm::CcmHosting hosting;
  hosting.transport = faulty;
  auto storage = std::make_shared<ccm::BufferStorage>(
      std::vector<std::uint32_t>(2, 2 * 4096));
  {
    ccm::CcmCluster cluster(cfg, storage, hosting);
    (void)cluster.read(0, 0);  // node 0 masters file 0
    (void)cluster.read(1, 0);  // node 1 fetches it from node 0
  }
  const auto events = faulty->events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().action, net::FaultAction::kDelay);
  EXPECT_EQ(events.front().kind, proto::MsgKind::kPeerFetchReply);
  EXPECT_GE(faulty->stats().injected_delays, 1u);
}

/// One TcpTransport per node, meshed over loopback.
std::vector<std::unique_ptr<net::TcpTransport>> tcp_mesh(
    std::size_t nodes, std::chrono::milliseconds call_timeout = 30s) {
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<net::TcpPeer> peers;
  for (std::size_t n = 0; n < nodes; ++n) {
    net::TcpConfig tc;
    tc.local_node = static_cast<cache::NodeId>(n);
    tc.nodes = nodes;
    tc.call_timeout = call_timeout;
    transports.push_back(std::make_unique<net::TcpTransport>(tc));
    peers.push_back({"127.0.0.1", transports.back()->listen_port()});
  }
  std::vector<std::thread> mesh;
  for (auto& t : transports) {
    mesh.emplace_back([&peers, &t] { t->connect_peers(peers); });
  }
  for (auto& t : mesh) t.join();
  return transports;
}

TEST(TcpTransport, PairConnectCallAndPayloadRoundtrip) {
  auto t = tcp_mesh(2);
  EXPECT_EQ(t[0]->connected_peers(), 1u);

  std::thread server([&] { echo_server(*t[1], 1); });
  net::Envelope req;
  req.msg = proto::Message::barrier(0, 1, 9);
  req.payloads.push_back(net::make_ready_block(
      std::vector<std::byte>(500, std::byte{0xAB})));
  const net::Envelope reply = t[0]->call(std::move(req));
  EXPECT_EQ(reply.msg.kind, proto::MsgKind::kBarrierReply);
  ASSERT_EQ(reply.payloads.size(), 1u);
  EXPECT_EQ(reply.payload()->bytes.size(), 500u);
  EXPECT_EQ(reply.payload()->bytes[499], std::byte{0xAB});
  EXPECT_GE(t[0]->stats().bytes_sent, 500u);
  EXPECT_GE(t[1]->stats().bytes_received, 500u);

  t[0]->close();
  t[1]->close();
  server.join();
}

// Only ready bytes leave a node: post() refuses a payload whose latch is
// still closed, before any byte of it reaches the socket, and the
// connection carries on as if it had never been offered.
TEST(TcpTransport, PostRejectsUnreadyPayloadAndLaterCallsComplete) {
  auto t = tcp_mesh(2);
  std::thread server([&] { echo_server(*t[1], 1); });

  auto unready = std::make_shared<net::BlockData>();
  net::Envelope oneway;
  oneway.msg = proto::Message::barrier(0, 1, 1);
  oneway.payloads = {net::make_ready_block({}), unready};
  EXPECT_THROW(t[0]->post(std::move(oneway)), std::invalid_argument);
  EXPECT_EQ(t[0]->stats().sent, 0u);

  for (std::uint32_t phase = 2; phase <= 3; ++phase) {
    net::Envelope req;
    req.msg = proto::Message::barrier(0, 1, phase);
    req.payloads.push_back(net::make_ready_block(std::vector<std::byte>(64)));
    EXPECT_EQ(t[0]->call(std::move(req)).msg.count, phase);
  }
  EXPECT_EQ(t[0]->stats().rpcs, 2u);

  t[0]->close();
  t[1]->close();
  server.join();
}

// The caller writes its own frame: when post() returns, the frame is on
// the socket and counted, with no thread left to flush it later.
TEST(TcpTransport, PostHasSentItsFrameWhenItReturns) {
  auto t = tcp_mesh(2);
  for (std::uint64_t k = 1; k <= 50; ++k) {
    net::Envelope oneway;
    oneway.msg = proto::Message::barrier(0, 1, static_cast<std::uint32_t>(k));
    ASSERT_TRUE(t[0]->post(std::move(oneway)));
    const net::TransportStats s = t[0]->stats();
    EXPECT_EQ(s.flushes, k);
    EXPECT_EQ(s.bytes_sent, k * (4 + net::kFrameFixedSize));
  }
  t[0]->close();
  t[1]->close();
}

// Sending threads read the summary source without a lock, so it is
// installed exactly once.
TEST(TcpTransport, SummarySourceInstallsOnce) {
  net::TcpConfig tc;
  net::TcpTransport t(tc);
  const auto source = [] { return std::pair<std::uint64_t, bool>{7, true}; };
  t.set_summary_source(source);
  EXPECT_THROW(t.set_summary_source(source), std::logic_error);
}

/// Polls until `t` reports `peers` live connections (about 10 s at most).
bool await_peers(const net::TcpTransport& t, std::size_t peers) {
  for (int i = 0; i < 10000 && t.connected_peers() != peers; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  return t.connected_peers() == peers;
}

// A peer that closes and re-dials is adopted back in: the survivor reaps the
// dead connection and calls flow both ways over the new one.
TEST(TcpTransport, RedialedPeerIsAdoptedBack) {
  auto t = tcp_mesh(2);
  t[1]->close();
  ASSERT_TRUE(await_peers(*t[0], 0));

  net::TcpConfig tc;
  tc.local_node = 1;
  tc.nodes = 2;
  t[1] = std::make_unique<net::TcpTransport>(tc);
  t[1]->connect_peers({{"127.0.0.1", t[0]->listen_port()},
                       {"127.0.0.1", t[1]->listen_port()}});
  ASSERT_TRUE(await_peers(*t[0], 1));

  std::thread server0([&] { echo_server(*t[0], 0); });
  std::thread server1([&] { echo_server(*t[1], 1); });
  for (std::uint32_t phase = 1; phase <= 3; ++phase) {
    net::Envelope to1;
    to1.msg = proto::Message::barrier(0, 1, phase);
    EXPECT_EQ(t[0]->call(std::move(to1)).msg.count, phase);
    net::Envelope to0;
    to0.msg = proto::Message::barrier(1, 0, phase);
    EXPECT_EQ(t[1]->call(std::move(to0)).msg.count, phase);
  }
  t[0]->close();
  t[1]->close();
  server0.join();
  server1.join();
}

// Regression: a call pending on a connection that dies must fail with a
// transport error as soon as the death is detected — not sit out the full
// 30 s call deadline. The old call() parked the waiter with no wakeup when
// the peer closed (or its stream poisoned) underneath it.
TEST(TcpTransport, PendingCallFailsWhenPeerShutsDown) {
  auto t = tcp_mesh(2);

  // Nobody serves t[1]'s queue; kill it while the call is in flight.
  std::thread killer([&t] {
    std::this_thread::sleep_for(50ms);
    t[1]->close();
  });
  const auto t_start = std::chrono::steady_clock::now();
  try {
    net::Envelope req;
    req.msg = proto::Message::barrier(0, 1, 1);
    (void)t[0]->call(std::move(req));
    FAIL() << "a call into a dying peer must not succeed";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kPeerDown);
    EXPECT_TRUE(e.transient());  // the peer may come back — retryable
  }
  // Failed via connection-death detection, not the 30 s deadline.
  EXPECT_LT(std::chrono::steady_clock::now() - t_start, 10s);
  killer.join();
  t[0]->close();
}

// A call blocked across its own transport's close() ends at once with the
// final kShutdown (not a retryable kPeerDown).
TEST(TcpTransport, PendingCallFailsWithShutdownWhenClosed) {
  auto t = tcp_mesh(2);
  std::thread closer([&t] {
    std::this_thread::sleep_for(50ms);
    t[0]->close();
  });
  const auto t_start = std::chrono::steady_clock::now();
  try {
    net::Envelope req;
    req.msg = proto::Message::barrier(0, 1, 1);
    (void)t[0]->call(std::move(req));
    FAIL() << "a call across close() must not succeed";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kShutdown);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t_start, 10s);
  closer.join();
  t[1]->close();
}

// An alive-but-silent peer is bounded by the call deadline instead.
TEST(TcpTransport, UnansweredCallTimesOutAndCounts) {
  auto t = tcp_mesh(2, 100ms);

  // t[1] accepts the request but never answers it.
  try {
    net::Envelope req;
    req.msg = proto::Message::barrier(0, 1, 1);
    (void)t[0]->call(std::move(req));
    FAIL() << "an unanswered call must time out";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kTimeout);
  }
  EXPECT_EQ(t[0]->stats().rpc_timeouts, 1u);
  t[0]->close();
  t[1]->close();
}

// ---------------------------------------------------------------- rounds ----

/// Two peers that answer a request only together: each holds its request
/// until the other's request of the same phase has arrived, and withdraws
/// it unanswered if that takes longer than `hold`.
struct Rendezvous {
  std::mutex m;
  std::condition_variable cv;
  std::map<std::uint32_t, int> arrived;  // by phase
  int withdrawn = 0;
};

void paired_server(net::Transport& t, cache::NodeId node, Rendezvous& rv,
                   std::chrono::milliseconds hold) {
  while (auto env = t.receive(node)) {
    const std::uint32_t phase = env->msg.count;
    std::unique_lock lock(rv.m);
    ++rv.arrived[phase];
    rv.cv.notify_all();
    if (rv.cv.wait_for(lock, hold, [&] { return rv.arrived[phase] >= 2; })) {
      lock.unlock();
      t.post(echo_reply(node, *env));
    } else {
      --rv.arrived[phase];
      ++rv.withdrawn;
      rv.cv.notify_all();
    }
  }
}

net::RoundCall barrier_call(cache::NodeId from, cache::NodeId to,
                            std::uint32_t phase) {
  net::RoundCall c;
  c.request.msg = proto::Message::barrier(from, to, phase);
  return c;
}

// A round posts every request before it waits for any reply. Two peers that
// answer only once both requests have arrived answer a round; the same two
// requests sent by call() one after the other both time out.
TEST(TcpTransport, CallAllSendsEveryRequestBeforeWaiting) {
  constexpr auto kTimeout = 300ms;
  constexpr auto kHold = 600ms;  // outlasts a call's deadline
  auto t = tcp_mesh(3, kTimeout);
  Rendezvous rv;
  std::thread server1([&] { paired_server(*t[1], 1, rv, kHold); });
  std::thread server2([&] { paired_server(*t[2], 2, rv, kHold); });

  std::array<net::RoundCall, 2> round = {barrier_call(0, 1, 1),
                                         barrier_call(0, 2, 1)};
  t[0]->call_all(round);
  for (const net::RoundCall& c : round) {
    EXPECT_FALSE(c.error) << c.error->what();
    EXPECT_EQ(c.reply.msg.kind, proto::MsgKind::kBarrierReply);
    EXPECT_EQ(c.reply.msg.count, 1u);
  }
  EXPECT_EQ(t[0]->calls_in_flight(), 0u);

  for (int i = 0; i < 2; ++i) {
    const auto to = static_cast<cache::NodeId>(1 + i);
    try {
      (void)t[0]->call(barrier_call(0, to, 2).request);
      ADD_FAILURE() << "a lone request to node " << to << " was answered";
    } catch (const net::TransportError& e) {
      EXPECT_EQ(e.kind(), net::TransportError::Kind::kTimeout);
    }
    // The peer gives its request up before the next one is sent, so the
    // two never meet.
    std::unique_lock lock(rv.m);
    EXPECT_TRUE(
        rv.cv.wait_for(lock, 10s, [&] { return rv.withdrawn == i + 1; }));
  }
  EXPECT_EQ(t[0]->stats().rpc_timeouts, 2u);
  EXPECT_EQ(t[0]->calls_in_flight(), 0u);
  for (auto& tr : t) tr->close();
  server1.join();
  server2.join();
}

// A peer that drops mid-round fails only its own call, promptly, and the
// round leaves no pending entry behind.
TEST(TcpTransport, PeerDroppedMidRoundFailsOnlyItsCall) {
  auto t = tcp_mesh(3);  // 30 s call deadline
  std::thread server1([&] { echo_server(*t[1], 1); });
  std::thread dropper([&] {
    (void)t[2]->receive(2);  // the request arrived; never answer it
    t[2]->close();
  });
  std::array<net::RoundCall, 2> round = {barrier_call(0, 2, 1),
                                         barrier_call(0, 1, 2)};
  const auto t_start = std::chrono::steady_clock::now();
  t[0]->call_all(round);
  EXPECT_LT(std::chrono::steady_clock::now() - t_start, 10s);
  EXPECT_TRUE(round[0].error &&
              round[0].error->kind() == net::TransportError::Kind::kPeerDown);
  EXPECT_FALSE(round[1].error) << round[1].error->what();
  EXPECT_EQ(round[1].reply.msg.count, 2u);
  EXPECT_EQ(t[0]->calls_in_flight(), 0u);
  EXPECT_EQ(t[0]->stats().rpcs, 1u);
  dropper.join();
  t[0]->close();
  t[1]->close();
  server1.join();
}

// ------------------------------------ cluster equality across runtimes ----

std::vector<std::byte> fill_pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return out;
}

constexpr std::size_t kEqNodes = 3;
constexpr std::size_t kEqFiles = 12;
constexpr std::uint32_t kEqBlockBytes = 1024;
constexpr std::uint32_t kEqFileBlocks = 2;
constexpr std::uint32_t kEqFileBytes = kEqBlockBytes * kEqFileBlocks;
constexpr int kEqIters = 120;

ccm::CcmConfig equality_config() {
  ccm::CcmConfig cfg;
  cfg.nodes = kEqNodes;
  cfg.block_bytes = kEqBlockBytes;
  cfg.capacity_bytes = 8 * kEqBlockBytes;
  cfg.workers_per_node = 2;
  return cfg;
}

/// Driver `d` pinned to node `d`: mixed ops whose write targets are
/// partitioned per driver, so final storage bytes depend only on the RNG
/// streams (same determinism argument as bench/ccm_workload.hpp).
void equality_driver(ccm::CcmCluster& cluster, std::size_t d) {
  sim::Rng rng(7000 + d);
  const auto via = static_cast<cache::NodeId>(d);
  for (int i = 0; i < kEqIters; ++i) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(kEqFiles));
    const auto roll = rng.uniform_int(100);
    if (roll < 30) {
      constexpr std::size_t kPerDriver = kEqFiles / kEqNodes;
      const auto wf =
          static_cast<cache::FileId>((f % kPerDriver) * kEqNodes + d);
      const std::uint64_t off =
          rng.uniform_int(kEqFileBlocks) * kEqBlockBytes;
      cluster.write(via, wf, off,
                    fill_pattern(kEqBlockBytes,
                                 static_cast<std::uint8_t>(f + i)));
    } else if (roll < 34) {
      cluster.invalidate(f);
    } else {
      cluster.read(via, f);
    }
  }
}

std::vector<std::byte> storage_bytes(const ccm::Storage& storage) {
  std::vector<std::byte> all;
  for (std::size_t f = 0; f < storage.file_count(); ++f) {
    const auto file = static_cast<cache::FileId>(f);
    std::vector<std::byte> buf(storage.file_size(file));
    storage.read(file, 0, buf);
    all.insert(all.end(), buf.begin(), buf.end());
  }
  return all;
}

void seed_all(ccm::CcmCluster& cluster) {
  for (std::size_t f = 0; f < kEqFiles; ++f) {
    cluster.write(0, static_cast<cache::FileId>(f), 0,
                  fill_pattern(kEqFileBytes, static_cast<std::uint8_t>(f)));
  }
}

/// One CcmCluster per transport: node n on transports[n], node 0 the home
/// over `home_storage`, the others mounting its directory and storage. Each
/// transport piggybacks its cluster's published summary, as ccm_node does.
std::vector<std::unique_ptr<ccm::CcmCluster>> tcp_clusters(
    const ccm::CcmConfig& cfg,
    const std::vector<std::unique_ptr<net::TcpTransport>>& transports,
    const std::shared_ptr<ccm::BufferStorage>& home_storage) {
  std::vector<std::uint32_t> sizes;
  for (std::size_t f = 0; f < home_storage->file_count(); ++f) {
    sizes.push_back(static_cast<std::uint32_t>(
        home_storage->file_size(static_cast<cache::FileId>(f))));
  }
  std::vector<std::unique_ptr<ccm::CcmCluster>> clusters;
  for (std::size_t n = 0; n < transports.size(); ++n) {
    const auto node = static_cast<cache::NodeId>(n);
    std::shared_ptr<net::Transport> transport(transports[n].get(),
                                              [](net::Transport*) {});
    ccm::CcmHosting hosting;
    hosting.transport = transport;
    hosting.local_nodes = {node};
    hosting.home = 0;
    std::shared_ptr<ccm::Storage> storage = home_storage;
    if (n != 0) {
      storage =
          std::make_shared<ccm::RemoteStorage>(transport, node, 0, sizes);
      hosting.directory =
          std::make_shared<ccm::RemoteDirectory>(transport, node, 0);
    }
    clusters.push_back(
        std::make_unique<ccm::CcmCluster>(cfg, storage, hosting));
    ccm::CcmCluster* cluster = clusters.back().get();
    transports[n]->set_summary_source(
        [cluster, node] { return cluster->published_summary(node); });
  }
  return clusters;
}

/// Shuts a TCP cluster down: peers first (their shutdown RPCs need home
/// alive), then home.
void shut_down(std::vector<std::unique_ptr<ccm::CcmCluster>>& clusters) {
  while (!clusters.empty()) clusters.pop_back();
}

TEST(ClusterOverTcp, StorageBytesMatchInProcessRun) {
  // Reference: the whole cluster in-process on the InProcTransport.
  std::vector<std::byte> expected;
  {
    auto storage = std::make_shared<ccm::BufferStorage>(
        std::vector<std::uint32_t>(kEqFiles, kEqFileBytes));
    ccm::CcmCluster cluster(equality_config(), storage);
    seed_all(cluster);
    std::vector<std::thread> drivers;
    for (std::size_t d = 0; d < kEqNodes; ++d) {
      drivers.emplace_back([&, d] { equality_driver(cluster, d); });
    }
    for (auto& t : drivers) t.join();
    expected = storage_bytes(*storage);
  }

  // Same workload on three TCP transports, one hosted node each (the
  // loopback-cluster topology, minus the process boundaries).
  auto transports = tcp_mesh(kEqNodes);
  auto home_storage = std::make_shared<ccm::BufferStorage>(
      std::vector<std::uint32_t>(kEqFiles, kEqFileBytes));
  auto clusters = tcp_clusters(equality_config(), transports, home_storage);

  seed_all(*clusters[0]);
  std::vector<std::thread> drivers;
  for (std::size_t d = 0; d < kEqNodes; ++d) {
    drivers.emplace_back([&, d] {
      const auto node = static_cast<cache::NodeId>(d);
      clusters[d]->barrier(node, 0);
      equality_driver(*clusters[d], d);
      clusters[d]->barrier(node, 1);
    });
  }
  for (auto& t : drivers) t.join();

  // With every node quiet, the kStatsPull scrape reaches all three processes
  // and carries each one's event counters: every slot equals the sum of the
  // clusters' stats() fields it backs.
  const obs::MetricsSnapshot scraped = clusters[0]->scrape_cluster();
  EXPECT_EQ(scraped.processes, kEqNodes);
  ccm::CcmStats sum;
  for (const auto& c : clusters) {
    const ccm::CcmStats s = c->stats();
    sum.local_hits += s.local_hits;
    sum.remote_hits += s.remote_hits;
    sum.disk_reads += s.disk_reads;
    sum.forwards_accepted += s.forwards_accepted;
    sum.hint_hits += s.hint_hits;
    sum.hint_stale += s.hint_stale;
    sum.forwards_attempted += s.forwards_attempted;
  }
  EXPECT_GT(sum.block_accesses(), 0u);
  const auto slot = [&scraped](obs::RtCounter c) {
    return scraped.counters[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(slot(obs::RtCounter::kLocalHit), sum.local_hits);
  EXPECT_EQ(slot(obs::RtCounter::kPeerHit), sum.remote_hits);
  EXPECT_EQ(slot(obs::RtCounter::kDiskRead), sum.disk_reads);
  EXPECT_EQ(slot(obs::RtCounter::kMasterForward), sum.forwards_accepted);
  EXPECT_EQ(slot(obs::RtCounter::kHintHit), sum.hint_hits);
  EXPECT_EQ(slot(obs::RtCounter::kHintStale), sum.hint_stale);

  // Peers publish their summaries, so evicted masters find a target and
  // the run forwards masters over the wire too.
  EXPECT_GT(sum.forwards_attempted, 0u);

  shut_down(clusters);
  EXPECT_EQ(storage_bytes(*home_storage), expected);

  // The zero-copy contract: every payload left each node as an iovec over
  // the shared BlockData — nothing was staged through an intermediate copy.
  for (std::size_t n = 0; n < kEqNodes; ++n) {
    EXPECT_EQ(transports[n]->stats().payload_copies, 0u) << "node " << n;
  }
}

// A forwarded master keeps its age (§3), which the sender's clock ticked.
// Each process counts its own clock, so the receiver merges that age into
// its clock (a Lamport merge): no age it holds is ahead of its clock, and
// every later tick is younger than anything it holds.
TEST(ClusterOverTcp, ForwardedAgeMergesIntoTheReceiversClock) {
  constexpr std::uint32_t kBlockBytes = 1024;
  constexpr std::uint32_t kFileBytes = 2 * kBlockBytes;
  ccm::CcmConfig cfg;
  cfg.nodes = 2;
  cfg.block_bytes = kBlockBytes;
  cfg.capacity_bytes = 4 * kBlockBytes;
  auto home_storage = std::make_shared<ccm::BufferStorage>(
      std::vector<std::uint32_t>(4, kFileBytes));
  auto transports = tcp_mesh(2);
  auto clusters = tcp_clusters(cfg, transports, home_storage);

  // Node 1 fills its cache while its clock is young; its trips to the home
  // carry its summary, so node 0 sees a peer with older ages.
  clusters[1]->read(1, 0);
  clusters[1]->read(1, 1);
  // Node 0's clock runs far ahead on local hits. Its cache then fills, and
  // the next read forwards its oldest masters to node 1.
  for (int i = 0; i < 200; ++i) clusters[0]->read(0, 2);
  clusters[0]->read(0, 3);
  clusters[0]->read(0, 1);
  ASSERT_GT(clusters[0]->stats().forwards_accepted, 0u);

  const std::uint64_t sender =
      ccm::CcmClusterTestPeer::clock_value(*clusters[0]);
  const std::uint64_t youngest =
      ccm::CcmClusterTestPeer::youngest_age(*clusters[1], 1);
  EXPECT_GT(youngest, 200u) << "node 1 holds no forwarded age";
  EXPECT_LE(youngest, sender);
  EXPECT_LE(youngest, ccm::CcmClusterTestPeer::clock_value(*clusters[1]));
  shut_down(clusters);
}

// Regression: a read whose block run is about as large as the node's cache
// evicts masters it has just claimed and not yet filled. Such a master is
// dropped rather than forwarded: its filler is the reading thread itself,
// so a forward could only wait out its deadline for bytes that cannot come.
TEST(ClusterOverTcp, ReadThroughASmallCacheForwardsOnlyFilledMasters) {
  constexpr std::uint32_t kBlockBytes = 1024;
  constexpr std::uint32_t kFileBytes = 6 * kBlockBytes;
  ccm::CcmConfig cfg;
  cfg.nodes = 2;
  cfg.block_bytes = kBlockBytes;
  cfg.capacity_bytes = 4 * kBlockBytes;
  auto home_storage = std::make_shared<ccm::BufferStorage>(
      std::vector<std::uint32_t>(2, kFileBytes));
  for (std::uint8_t f = 0; f < 2; ++f) {
    home_storage->write(f, 0, fill_pattern(kFileBytes, f));
  }
  auto transports = tcp_mesh(2, 1s);
  auto clusters = tcp_clusters(cfg, transports, home_storage);

  const auto read_ok = [&clusters](cache::NodeId via, std::uint8_t file) {
    return clusters[via]->read(via, file) == fill_pattern(kFileBytes, file);
  };
  EXPECT_TRUE(read_ok(0, 1));
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(read_ok(1, 1)) << "read " << i;
  EXPECT_TRUE(read_ok(1, 0));

  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t forwards = 0;
  for (const auto& c : clusters) {
    const ccm::CcmStats s = c->stats();
    timeouts += s.transport.rpc_timeouts;
    retries += s.transport.rpc_retries;
    forwards += s.forwards_attempted;
  }
  EXPECT_EQ(timeouts, 0u);
  EXPECT_EQ(retries, 0u);
  EXPECT_GT(forwards, 0u);
  shut_down(clusters);
}

// ------------------------------------------------------------ fetch sets ----

constexpr std::uint32_t kSetBlockBytes = 1024;
constexpr cache::FileId kSetFile = 0;    // 8 blocks
constexpr cache::FileId kWideFile = 1;   // more blocks than one set spans
constexpr cache::FileId kSplitFile = 2;  // 4 blocks
constexpr std::uint32_t kWideBlocks = proto::kFetchSetSpan + 36;

ccm::CcmConfig fetch_set_config() {
  ccm::CcmConfig cfg;
  cfg.nodes = 3;
  cfg.block_bytes = kSetBlockBytes;
  cfg.capacity_bytes = 2 * kWideBlocks * kSetBlockBytes;  // holds every file
  return cfg;
}

std::shared_ptr<ccm::BufferStorage> fetch_set_storage() {
  const std::vector<std::uint32_t> sizes = {8 * kSetBlockBytes,
                                            kWideBlocks * kSetBlockBytes,
                                            4 * kSetBlockBytes};
  auto storage = std::make_shared<ccm::BufferStorage>(sizes);
  for (std::size_t f = 0; f < sizes.size(); ++f) {
    storage->write(static_cast<cache::FileId>(f), 0,
                   fill_pattern(sizes[f], static_cast<std::uint8_t>(f + 1)));
  }
  return storage;
}

std::vector<std::byte> file_bytes(const ccm::Storage& storage,
                                  cache::FileId file) {
  std::vector<std::byte> out(storage.file_size(file));
  storage.read(file, 0, out);
  return out;
}

/// The cluster that hosts each node: one in-process cluster for all of
/// them, or one per TCP transport.
using Hosts = std::vector<ccm::CcmCluster*>;

/// The `kind` calls `c` has sent.
std::uint64_t rpc_calls(const ccm::CcmCluster& c, proto::MsgKind kind) {
  return c.metrics().snapshot().rpc[static_cast<std::size_t>(kind)].calls;
}

std::uint64_t peer_fetches(const ccm::CcmCluster& c) {
  return rpc_calls(c, proto::MsgKind::kPeerFetch);
}

std::uint64_t counter(const ccm::CcmCluster& c, obs::RtCounter k) {
  return c.metrics().snapshot().counters[static_cast<std::size_t>(k)];
}

/// Node 0 reads `file`, mastering every block, then node 1 reads it;
/// returns the peer fetches node 1's read sent.
std::uint64_t fetches_to_reread(const Hosts& hosts,
                                const ccm::Storage& storage,
                                cache::FileId file) {
  const std::vector<std::byte> expected = file_bytes(storage, file);
  EXPECT_EQ(hosts[0]->read(0, file), expected);
  const std::uint64_t fetches = peer_fetches(*hosts[1]);
  const std::uint64_t hits = counter(*hosts[1], obs::RtCounter::kPeerHit);
  EXPECT_EQ(hosts[1]->read(1, file), expected);
  EXPECT_EQ(counter(*hosts[1], obs::RtCounter::kPeerHit) - hits,
            expected.size() / kSetBlockBytes);
  return peer_fetches(*hosts[1]) - fetches;
}

/// Node 0 masters blocks 0-2 of kSplitFile and node 2 masters block 3.
/// Node 0's block 2 is swapped for a buffer still being filled, and node
/// 1's hint slot names node 0 for block 3. A fetch of all four from node 0
/// ships blocks 0 and 1 only; node 1's read, which sends node 0 that set,
/// re-chains the two misses and still returns the file's bytes.
void unready_and_moved_blocks_miss(const Hosts& hosts,
                                   net::Transport& node1_transport,
                                   const ccm::Storage& storage) {
  const std::vector<std::byte> expected = file_bytes(storage, kSplitFile);
  const std::span<const std::byte> all(expected);
  EXPECT_TRUE(std::ranges::equal(
      hosts[0]->read_range(0, kSplitFile, 0, 3 * kSetBlockBytes),
      all.first(3 * kSetBlockBytes)));
  EXPECT_TRUE(std::ranges::equal(
      hosts[2]->read_range(2, kSplitFile, 3 * kSetBlockBytes, kSetBlockBytes),
      all.subspan(3 * kSetBlockBytes)));
  const cache::BlockId filling{kSplitFile, 2};
  const auto unready = std::make_shared<net::BlockData>();
  const net::BlockPtr filled =
      ccm::CcmClusterTestPeer::swap_cached(*hosts[0], 0, filling, unready);
  ccm::CcmClusterTestPeer::plant_hint(*hosts[1], {kSplitFile, 3}, 0);

  net::Envelope fetch;
  fetch.msg = proto::Message::peer_fetch(1, 0, {kSplitFile, 0}, 0b1111,
                                         /*misdirected=*/false);
  const net::Envelope reply = node1_transport.call(std::move(fetch));
  EXPECT_EQ(reply.msg.fetch_mask(), 0b0011u);
  ASSERT_EQ(reply.payloads.size(), 2u);
  for (std::size_t b = 0; b < 2; ++b) {
    EXPECT_TRUE(std::ranges::equal(
        reply.payloads[b]->bytes,
        all.subspan(b * kSetBlockBytes, kSetBlockBytes)));
  }

  const std::uint64_t hits = counter(*hosts[1], obs::RtCounter::kPeerHit);
  const std::uint64_t stale = counter(*hosts[1], obs::RtCounter::kHintStale);
  const std::uint64_t fallbacks =
      counter(*hosts[1], obs::RtCounter::kUncachedFallback);
  EXPECT_EQ(hosts[1]->read(1, kSplitFile), expected);
  // Blocks 0 and 1 from node 0, block 3 from node 2 once its stale hint
  // missed; block 2 never became ready, so it came from storage.
  EXPECT_EQ(counter(*hosts[1], obs::RtCounter::kPeerHit) - hits, 3u);
  EXPECT_EQ(counter(*hosts[1], obs::RtCounter::kHintStale) - stale, 1u);
  EXPECT_EQ(counter(*hosts[1], obs::RtCounter::kUncachedFallback) - fallbacks,
            1u);

  // The fill finishes, leaving every cached block whole.
  {
    std::scoped_lock lock(unready->m);
    unready->bytes = filled->bytes;
    unready->ready = true;
  }
  unready->cv.notify_all();
}

/// A read fetching `file` from one master sends it one kPeerFetch (two for
/// kWideFile, which no one set spans), and in-process every copy is the
/// master's own buffer.
void in_process_fetch_sets(const std::shared_ptr<net::Transport>& transport) {
  const auto storage = fetch_set_storage();
  ccm::CcmHosting hosting;
  hosting.transport = transport;
  ccm::CcmCluster cluster(fetch_set_config(), storage, hosting);
  const Hosts hosts(3, &cluster);
  EXPECT_EQ(fetches_to_reread(hosts, *storage, kSetFile), 1u);
  EXPECT_EQ(fetches_to_reread(hosts, *storage, kWideFile), 2u);
  for (std::uint32_t b = 0; b < 8; ++b) {
    const net::BlockPtr copy =
        ccm::CcmClusterTestPeer::cached(cluster, 1, {kSetFile, b});
    ASSERT_NE(copy, nullptr) << "block " << b;
    EXPECT_EQ(copy, ccm::CcmClusterTestPeer::cached(cluster, 0,
                                                     {kSetFile, b}));
  }
  unready_and_moved_blocks_miss(hosts, *transport, *storage);
  EXPECT_TRUE(cluster.check_consistency());
}

TEST(FetchSets, DirectCallsFetchEachMastersBlocksAtOnce) {
  in_process_fetch_sets(std::make_shared<net::InProcTransport>(3));
}

TEST(FetchSets, QueuedCallsFetchEachMastersBlocksAtOnce) {
  // A fault-free FaultyTransport declines direct binding, so every request
  // takes the mailbox hop to its node's protocol thread.
  in_process_fetch_sets(std::make_shared<net::FaultyTransport>(
      std::make_shared<net::InProcTransport>(3), net::FaultSchedule{}));
}

TEST(FetchSets, TcpCallsFetchEachMastersBlocksAtOnce) {
  auto transports = tcp_mesh(3);
  const auto storage = fetch_set_storage();
  auto clusters = tcp_clusters(fetch_set_config(), transports, storage);
  Hosts hosts;
  for (const auto& c : clusters) hosts.push_back(c.get());
  EXPECT_EQ(fetches_to_reread(hosts, *storage, kSetFile), 1u);
  EXPECT_EQ(fetches_to_reread(hosts, *storage, kWideFile), 2u);
  unready_and_moved_blocks_miss(hosts, *transports[1], *storage);
  shut_down(clusters);
  for (std::size_t n = 0; n < transports.size(); ++n) {
    EXPECT_EQ(transports[n]->stats().payload_copies, 0u) << "node " << n;
    EXPECT_EQ(transports[n]->stats().frame_errors, 0u) << "node " << n;
  }
}

// A set holds at most kFetchSetSpan blocks, and few enough that a reply
// frame of whole blocks fits the frame ceiling and its iovec budget.
TEST(FetchSets, CapKeepsEveryReplyFrameWithinLimits) {
  EXPECT_EQ(ccm::CcmCluster::fetch_set_cap(8 * 1024), proto::kFetchSetSpan);
  EXPECT_EQ(ccm::CcmCluster::fetch_set_cap(2u << 20), 31u);
  EXPECT_EQ(ccm::CcmCluster::fetch_set_cap(64u << 20), 1u);
  for (const std::uint32_t block :
       {1u << 10, 1u << 20, 3u << 20, 16u << 20, 63u << 20}) {
    const std::size_t k = ccm::CcmCluster::fetch_set_cap(block);
    EXPECT_LE(k, net::kMaxFramePayloads);
    EXPECT_LE(4 + net::kFrameFixedSize + k * (4 + std::size_t{block}),
              net::kDefaultMaxFrame)
        << "block " << block;
  }
}


// ------------------------------------------------------ rounds over TCP ----
//
// A round changes when a fan-out's calls go out, not how many there are: each
// case sends exactly the calls the one-at-a-time protocol sent.

constexpr std::uint32_t kRoundBlockBytes = 1024;
constexpr std::uint32_t kRoundBlocks = 4;

/// Three single-node clusters over TCP, one driver, two 4-block files.
struct RoundCluster {
  std::shared_ptr<ccm::BufferStorage> storage;
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<ccm::CcmCluster>> clusters;

  RoundCluster() {
    ccm::CcmConfig cfg;
    cfg.nodes = 3;
    cfg.block_bytes = kRoundBlockBytes;
    cfg.capacity_bytes = 16 * kRoundBlockBytes;
    storage = std::make_shared<ccm::BufferStorage>(
        std::vector<std::uint32_t>(2, kRoundBlocks * kRoundBlockBytes));
    for (std::uint8_t f = 0; f < 2; ++f) {
      storage->write(f, 0, fill_pattern(kRoundBlocks * kRoundBlockBytes, f));
    }
    transports = tcp_mesh(3);
    clusters = tcp_clusters(cfg, transports, storage);
  }
  ~RoundCluster() { shut_down(clusters); }
  RoundCluster(const RoundCluster&) = delete;
  RoundCluster& operator=(const RoundCluster&) = delete;

  /// Every node reads `file` byte-exact against storage.
  void expect_reads_exact(cache::FileId file) {
    for (std::size_t n = 0; n < clusters.size(); ++n) {
      const auto node = static_cast<cache::NodeId>(n);
      EXPECT_EQ(clusters[n]->read(node, file), file_bytes(*storage, file))
          << "read via node " << n;
    }
  }
  void expect_consistent() {
    for (std::size_t n = 0; n < clusters.size(); ++n) {
      EXPECT_TRUE(clusters[n]->check_consistency()) << "node " << n;
    }
  }
};

// Node 1 writes two blocks mastered at node 2: per block one round carries
// the sweep to nodes 0 and 2 and the ownership request to node 2. With
// tracing on, the client spans of each round share their start.
TEST(RoundsOverTcp, WriteSweepsAndMigratesInOneRound) {
  RoundCluster rc;
  ccm::CcmCluster& writer = *rc.clusters[1];
  (void)rc.clusters[2]->read(2, 0);  // node 2 masters every block
  writer.enable_runtime_trace();
  const std::uint64_t sweeps =
      rpc_calls(writer, proto::MsgKind::kInvalidateBlock);
  const std::uint64_t migrations =
      rpc_calls(writer, proto::MsgKind::kWriteOwnership);
  writer.write(1, 0, kRoundBlockBytes, fill_pattern(2 * kRoundBlockBytes, 9));
  EXPECT_EQ(rpc_calls(writer, proto::MsgKind::kInvalidateBlock) - sweeps,
            2u * 2u);
  EXPECT_EQ(rpc_calls(writer, proto::MsgKind::kWriteOwnership) - migrations,
            2u);

  std::map<std::uint64_t, int> round_starts;  // start -> client spans
  for (const obs::RuntimeSpan& span : writer.runtime_spans().snapshot()) {
    if (span.lane != obs::kLaneRpcClient) continue;
    if (span.name != "invalidate-block" && span.name != "write-ownership") {
      continue;
    }
    EXPECT_GE(span.end_ns, span.start_ns);
    ++round_starts[span.start_ns];
  }
  ASSERT_EQ(round_starts.size(), 2u) << "one round per written block";
  for (const auto& [start, spans] : round_starts) EXPECT_EQ(spans, 3);

  rc.expect_reads_exact(0);
  rc.expect_consistent();
}

// A read of a file mastered at nodes 0 and 2 fetches from both in one round.
TEST(RoundsOverTcp, ReadFetchesFromTwoMastersInOneRound) {
  RoundCluster rc;
  const std::vector<std::byte> expected = file_bytes(*rc.storage, 1);
  const std::span<const std::byte> all(expected);
  EXPECT_TRUE(std::ranges::equal(
      rc.clusters[0]->read_range(0, 1, 0, 2 * kRoundBlockBytes),
      all.first(2 * kRoundBlockBytes)));
  EXPECT_TRUE(std::ranges::equal(
      rc.clusters[2]->read_range(2, 1, 2 * kRoundBlockBytes,
                                 2 * kRoundBlockBytes),
      all.subspan(2 * kRoundBlockBytes)));
  ccm::CcmCluster& reader = *rc.clusters[1];
  const std::uint64_t fetches = peer_fetches(reader);
  const std::uint64_t hits = counter(reader, obs::RtCounter::kPeerHit);
  EXPECT_EQ(reader.read(1, 1), expected);
  EXPECT_EQ(peer_fetches(reader) - fetches, 2u);
  EXPECT_EQ(counter(reader, obs::RtCounter::kPeerHit) - hits, kRoundBlocks);
  rc.expect_reads_exact(1);
  rc.expect_consistent();
}

// invalidate() sweeps every node, itself included, in one round; afterwards
// no node still caches the file.
TEST(RoundsOverTcp, InvalidateSweepsEveryNodeInOneRound) {
  RoundCluster rc;
  rc.expect_reads_exact(0);
  ccm::CcmCluster& sweeper = *rc.clusters[1];
  const std::uint64_t sweeps =
      rpc_calls(sweeper, proto::MsgKind::kInvalidateFile);
  sweeper.invalidate(0);
  EXPECT_EQ(rpc_calls(sweeper, proto::MsgKind::kInvalidateFile) - sweeps, 3u);
  for (std::size_t n = 0; n < rc.clusters.size(); ++n) {
    EXPECT_EQ(rc.clusters[n]->cached_bytes(static_cast<cache::NodeId>(n)), 0u)
        << "node " << n;
  }
  rc.expect_reads_exact(0);
  rc.expect_consistent();
}

}  // namespace
}  // namespace coop
