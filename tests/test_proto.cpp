// Protocol-layer tests: wire round-trips, the batched directory codec, plan
// lowering, the forward-target rule, and the directory service's race
// conditions. The policy pieces tested here (proto::NodeState +
// proto::DirectoryService) are the one replacement-policy engine: the
// simulator drives them serially through cache::ClusterCache
// (tests/test_coop_cache.cpp) and the runtime shards them (tests/test_ccm.cpp,
// whose PolicyParityWithBareClusterCache checks that the two drivers agree).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/policy.hpp"
#include "proto/dir_batch.hpp"
#include "proto/directory_service.hpp"
#include "proto/message.hpp"
#include "proto/node_state.hpp"
#include "proto/plan.hpp"

namespace coop::proto {
namespace {

constexpr std::uint32_t kBlock = 8 * 1024;

// ------------------------------------------------------------ wire format ---

std::vector<Message> all_message_kinds() {
  const BlockId b{7, 3};
  return {
      Message::peer_fetch(0, 2, b, /*mask=*/0b1011, /*misdirected=*/true),
      Message::peer_fetch_reply(2, 0, b, /*hits=*/0b0011, 2 * 8192),
      Message::redirect(2, 0, b),
      Message::home_read(0, 1, b, 4),
      Message::block_data(1, 0, b, 4, 4 * 8192),
      Message::master_forward(0, 3, b, /*age=*/99, /*slots=*/2, 8192),
      Message::forward_ack(3, 0, b, /*accepted=*/true, /*promoted=*/true),
      Message::invalidate_file(0, 1, b.file, 6),
      Message::invalidate_block(0, 1, b, /*drop_master=*/true),
      Message::invalidate_ack(1, 0),
      Message::write_ownership(0, 2, b),
      Message::write_ownership_reply(2, 0, b, /*transferred=*/true, 8192),
      Message::stats_pull(1, 0),
      Message::stats_reply(0, 1, 512),
      Message::dir_batch_request(1, 0, /*items=*/3, /*bytes=*/58),
      Message::dir_batch_reply(0, 1, /*items=*/3, /*bytes=*/38),
  };
}

TEST(WireFormat, EveryNamedConstructorRoundTrips) {
  for (const Message& m : all_message_kinds()) {
    const WireBytes wire = encode(m);
    const auto back = decode(wire);
    ASSERT_TRUE(back.has_value()) << kind_name(m.kind);
    EXPECT_EQ(*back, m) << kind_name(m.kind);
  }
}

// A peer fetch names a block set by its first block and an offset mask; the
// reply names the blocks it ships the same way, and reports a hit only when
// it ships any.
TEST(WireFormat, PeerFetchNamesABlockSet) {
  const BlockId first{7, 3};
  const std::uint64_t mask = (std::uint64_t{1} << 63) | 0b101;
  const Message fetch = Message::peer_fetch(0, 2, first, mask, false);
  const auto back = decode(encode(fetch));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->block, first);
  EXPECT_EQ(back->fetch_mask(), mask);

  const Message all = Message::peer_fetch_reply(2, 0, first, 0b100, 8192);
  EXPECT_TRUE(all.has(kFlagHit));
  EXPECT_EQ(all.fetch_mask(), 0b100u);
  const Message none = Message::peer_fetch_reply(2, 0, first, 0, 0);
  EXPECT_FALSE(none.has(kFlagHit));
}

TEST(WireFormat, DecodeRejectsShortInput) {
  const WireBytes wire = encode(Message::peer_fetch(0, 1, {1, 2}, 1, false));
  for (std::size_t len = 0; len < kWireSize; ++len) {
    EXPECT_FALSE(decode({wire.data(), len}).has_value()) << len;
  }
}

TEST(WireFormat, DecodeRejectsUnknownKind) {
  WireBytes wire = encode(Message::peer_fetch(0, 1, {1, 2}, 1, false));
  wire[0] = static_cast<std::byte>(kMsgKindCount);
  EXPECT_FALSE(decode(wire).has_value());
  wire[0] = static_cast<std::byte>(0xFF);
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(WireFormat, DecodeRejectsReservedFlagBits) {
  WireBytes wire = encode(Message::peer_fetch(0, 1, {1, 2}, 1, false));
  // The flags byte sits just before the trailing trace/span ids.
  wire[kWireSize - 17] = static_cast<std::byte>(1u << 7);  // reserved bit
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(WireFormat, TraceIdsRoundTripAndDefaultToZero) {
  // Named constructors never stamp trace identity: the ids stay zero (the
  // runtime's "tracing off" value) unless the sender sets them explicitly.
  Message m = Message::peer_fetch(0, 2, {7, 3}, 1, false);
  EXPECT_EQ(m.trace, 0u);
  EXPECT_EQ(m.span, 0u);
  const auto zero_back = decode(encode(m));
  ASSERT_TRUE(zero_back.has_value());
  EXPECT_EQ(zero_back->trace, 0u);
  EXPECT_EQ(zero_back->span, 0u);

  m.trace = 0x0123'4567'89AB'CDEFull;
  m.span = 0xFEDC'BA98'7654'3210ull;
  const auto back = decode(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace, m.trace);
  EXPECT_EQ(back->span, m.span);
  EXPECT_EQ(*back, m);
}

TEST(WireFormat, KindNamesAreStable) {
  EXPECT_STREQ(kind_name(MsgKind::kPeerFetch), "peer-fetch");
  EXPECT_STREQ(kind_name(MsgKind::kStatsPull), "stats-pull");
  EXPECT_STREQ(kind_name(MsgKind::kStatsReply), "stats-reply");
  EXPECT_STREQ(kind_name(MsgKind::kMasterForward), "master-forward");
  EXPECT_STREQ(kind_name(MsgKind::kWriteOwnershipReply),
               "write-ownership-reply");
}

// -------------------------------------------------------- dir batch codec ---

std::vector<DirBatchItem> sample_batch_items() {
  return {
      {DirBatchOp::kLookupRead, {7, 0}, 0},
      {DirBatchOp::kTryClaim, {7, 1}, 0},
      {DirBatchOp::kMasterDropped, {0xFFFF'FFFFu, 0xFFFF'FFFFu}, 0},
      {DirBatchOp::kValidate, {3, 9}, 0xDEAD'BEEF'CAFE'F00Dull},
  };
}

TEST(DirBatchCodec, RequestRoundTripsEveryOp) {
  const auto items = sample_batch_items();
  const auto wire = encode_dir_batch_request(2, items);
  EXPECT_EQ(wire.size(),
            kDirBatchRequestHeader + items.size() * kDirBatchItemWire);
  const auto back = decode_dir_batch_request(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node, 2);
  EXPECT_EQ(back->items, items);

  // The empty batch is well-formed (the client never sends one, but the
  // decoder must not treat count == 0 as malformed).
  const auto empty = encode_dir_batch_request(1, {});
  const auto empty_back = decode_dir_batch_request(empty);
  ASSERT_TRUE(empty_back.has_value());
  EXPECT_TRUE(empty_back->items.empty());
}

TEST(DirBatchCodec, ReplyRoundTripsFlagsAndEpochExtremes) {
  const std::vector<DirBatchResult> results = {
      {3, 0, 0},
      {cache::kInvalidNode, ~0ull, kFlagGranted},
      {0, 1, static_cast<std::uint8_t>(kFlagGranted | kFlagMisdirected)},
  };
  const auto wire = encode_dir_batch_reply(results);
  EXPECT_EQ(wire.size(),
            kDirBatchReplyHeader + results.size() * kDirBatchResultWire);
  const auto back = decode_dir_batch_reply(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, results);
  EXPECT_TRUE((*back)[1].has(kFlagGranted));
  EXPECT_FALSE((*back)[0].has(kFlagGranted));
}

TEST(DirBatchCodec, RequestDecodeIsStrict) {
  const auto wire = encode_dir_batch_request(2, sample_batch_items());
  // Every truncation fails — the length must match the count exactly...
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_dir_batch_request({wire.data(), len}).has_value())
        << len;
  }
  // ...and so do trailing bytes (reject, never guess).
  auto padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_dir_batch_request(padded).has_value());

  auto bad_version = wire;
  bad_version[0] = static_cast<std::byte>(kDirBatchVersion + 1);
  EXPECT_FALSE(decode_dir_batch_request(bad_version).has_value());

  auto bad_op = wire;
  bad_op[kDirBatchRequestHeader] = static_cast<std::byte>(kDirBatchOpCount);
  EXPECT_FALSE(decode_dir_batch_request(bad_op).has_value());

  // An inflated count disagrees with the byte length.
  auto bad_count = wire;
  bad_count[3] = static_cast<std::byte>(
      std::to_integer<std::uint8_t>(bad_count[3]) + 1);
  EXPECT_FALSE(decode_dir_batch_request(bad_count).has_value());

  // A count past the allocation bound is rejected before any item parsing.
  std::vector<std::byte> huge(kDirBatchRequestHeader, std::byte{0});
  huge[0] = static_cast<std::byte>(kDirBatchVersion);
  const std::uint32_t over = kDirBatchMaxItems + 1;
  for (int i = 0; i < 4; ++i) {
    huge[3 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((over >> (8 * i)) & 0xFF);
  }
  EXPECT_FALSE(decode_dir_batch_request(huge).has_value());
}

TEST(DirBatchCodec, ReplyDecodeIsStrict) {
  const std::vector<DirBatchResult> results = {{1, 7, kFlagGranted}};
  const auto wire = encode_dir_batch_reply(results);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_dir_batch_reply({wire.data(), len}).has_value())
        << len;
  }
  auto padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_dir_batch_reply(padded).has_value());

  auto bad_version = wire;
  bad_version[0] = static_cast<std::byte>(kDirBatchVersion + 1);
  EXPECT_FALSE(decode_dir_batch_reply(bad_version).has_value());

  // Reserved flag bits in a result byte poison the whole reply.
  auto bad_flags = wire;
  bad_flags[kDirBatchReplyHeader + kDirBatchResultWire - 1] =
      std::byte{0x80};
  EXPECT_FALSE(decode_dir_batch_reply(bad_flags).has_value());
}

// ---------------------------------------------------------- plan lowering ---

cache::AccessResult mixed_plan() {
  cache::AccessResult plan;
  plan.fetches = {
      {{9, 0}, cache::Source::kLocalHit, 0, false},
      {{9, 1}, cache::Source::kRemoteHit, 2, false},
      {{9, 2}, cache::Source::kRemoteHit, 1, false},
      {{9, 3}, cache::Source::kRemoteHit, 2, false},
      {{9, 4}, cache::Source::kDiskRead, 3, false},
      {{9, 5}, cache::Source::kDiskRead, 0, false},  // requester's own disk
  };
  return plan;
}

PlanContext block_ctx(std::uint64_t file_bytes) {
  PlanContext ctx;
  ctx.block_bytes = kBlock;
  ctx.whole_file = false;
  ctx.file_bytes_of = [file_bytes](FileId) { return file_bytes; };
  return ctx;
}

TEST(PlanLowering, GroupsByProviderInAscendingOrder) {
  const std::uint64_t file_bytes = 6 * kBlock - 1000;  // short tail block
  const TransferPlan tp =
      build_transfer_plan(0, mixed_plan(), block_ctx(file_bytes));

  ASSERT_EQ(tp.remote.size(), 2u);
  EXPECT_EQ(tp.remote[0].provider, 1);
  EXPECT_EQ(tp.remote[1].provider, 2);
  ASSERT_EQ(tp.remote[1].blocks.size(), 2u);  // blocks 1 and 3 share provider
  EXPECT_EQ(tp.remote[1].bytes, 2ull * kBlock);

  ASSERT_EQ(tp.disk.size(), 2u);
  EXPECT_EQ(tp.disk[0].provider, 0);
  EXPECT_EQ(tp.disk[1].provider, 3);
}

TEST(PlanLowering, CleanRemoteFetchCostsOneControlHop) {
  const TransferPlan tp =
      build_transfer_plan(0, mixed_plan(), block_ctx(6 * kBlock));
  const TransferGroup& g = tp.remote[1];
  ASSERT_EQ(g.control.size(), 1u);
  EXPECT_EQ(g.control[0].kind, MsgKind::kPeerFetch);
  EXPECT_FALSE(g.control[0].has(kFlagMisdirected));
  // The one fetch names the provider's whole set: blocks 1 and 3.
  EXPECT_EQ(g.control[0].block, (BlockId{9, 1}));
  EXPECT_EQ(g.control[0].fetch_mask(), 0b101u);
  ASSERT_TRUE(g.bulk.has_value());
  EXPECT_EQ(g.bulk->kind, MsgKind::kPeerFetchReply);
  EXPECT_EQ(g.bulk->bytes, g.bytes);
}

TEST(PlanLowering, StaleHintCostsThreeControlHops) {
  cache::AccessResult plan;
  plan.fetches = {{{4, 0}, cache::Source::kRemoteHit, 2, true}};
  const TransferPlan tp = build_transfer_plan(0, plan, block_ctx(kBlock));
  ASSERT_EQ(tp.remote.size(), 1u);
  const TransferGroup& g = tp.remote[0];
  EXPECT_TRUE(g.misdirected);
  ASSERT_EQ(g.control.size(), 3u);
  EXPECT_EQ(g.control[0].kind, MsgKind::kPeerFetch);   // stale probe
  EXPECT_TRUE(g.control[0].has(kFlagMisdirected));
  EXPECT_EQ(g.control[1].kind, MsgKind::kRedirect);    // bounce
  EXPECT_EQ(g.control[2].kind, MsgKind::kPeerFetch);   // re-sent fetch
  EXPECT_FALSE(g.control[2].has(kFlagMisdirected));
}

TEST(PlanLowering, LocalDiskMovesNoWireBytes) {
  const TransferPlan tp =
      build_transfer_plan(0, mixed_plan(), block_ctx(6 * kBlock));
  const TransferGroup& local = tp.disk[0];  // home == requester
  EXPECT_TRUE(local.control.empty());
  EXPECT_FALSE(local.bulk.has_value());
  const TransferGroup& remote = tp.disk[1];
  ASSERT_EQ(remote.control.size(), 1u);
  EXPECT_EQ(remote.control[0].kind, MsgKind::kHomeRead);
  ASSERT_TRUE(remote.bulk.has_value());
  EXPECT_EQ(remote.bulk->kind, MsgKind::kBlockData);
}

TEST(PlanLowering, ForwardsCarryMessagesOnlyWithATarget) {
  cache::AccessResult plan;
  plan.forwards = {{{5, 0}, 0, 2, true},
                   {{5, 1}, 0, cache::kInvalidNode, false}};
  const TransferPlan tp = build_transfer_plan(0, plan, block_ctx(2 * kBlock));
  ASSERT_EQ(tp.forwards.size(), 2u);
  ASSERT_TRUE(tp.forwards[0].message.has_value());
  EXPECT_EQ(tp.forwards[0].message->kind, MsgKind::kMasterForward);
  EXPECT_FALSE(tp.forwards[1].message.has_value());
}

TEST(PlanLowering, ChargeBlocksCountsTheGroupedBlocks) {
  // Regression: charge_blocks drives the per-block CPU costs the simulator
  // charges (serve_peer_block_ms, cache_block_ms). An early version computed
  // it from a moved-from group and silently charged zero.
  const TransferPlan tp =
      build_transfer_plan(0, mixed_plan(), block_ctx(6 * kBlock));
  ASSERT_EQ(tp.remote.size(), 2u);
  EXPECT_EQ(tp.remote[0].charge_blocks, 1u);  // provider 1: block 2
  EXPECT_EQ(tp.remote[1].charge_blocks, 2u);  // provider 2: blocks 1 and 3
  ASSERT_EQ(tp.disk.size(), 2u);
  EXPECT_EQ(tp.disk[0].charge_blocks, 1u);
  EXPECT_EQ(tp.disk[1].charge_blocks, 1u);

  // Whole-file mode charges the file's full block footprint regardless of
  // how many fetch entries stood in for it.
  auto ctx = block_ctx(6 * kBlock);
  ctx.whole_file = true;
  const TransferPlan wf = build_transfer_plan(0, mixed_plan(), ctx);
  ASSERT_FALSE(wf.remote.empty());
  EXPECT_EQ(wf.remote[0].charge_blocks, 6u);
}

TEST(PlanLowering, LoweringIsDeterministic) {
  const auto ctx = block_ctx(6 * kBlock - 1000);
  const TransferPlan a = build_transfer_plan(0, mixed_plan(), ctx);
  const TransferPlan b = build_transfer_plan(0, mixed_plan(), ctx);
  ASSERT_EQ(a.remote.size(), b.remote.size());
  for (std::size_t i = 0; i < a.remote.size(); ++i) {
    EXPECT_EQ(a.remote[i].control, b.remote[i].control);
    EXPECT_EQ(a.remote[i].bulk, b.remote[i].bulk);
  }
}

// ------------------------------------------------- forward-target policy ---

struct FakeView final : PeerView {
  std::vector<std::uint64_t> ages;
  std::vector<bool> full;
  [[nodiscard]] std::uint64_t peer_oldest_age(cache::NodeId n) const override {
    return ages[n];
  }
  [[nodiscard]] bool peer_full(cache::NodeId n) const override {
    return full[n];
  }
};

TEST(ForwardTarget, PrefersFreePeerInIndexOrderThenOldest) {
  FakeView view;
  view.ages = {5, 10, 3, 8};
  view.full = {true, false, true, false};
  EXPECT_EQ(pick_forward_target(0, 4, view), 1);  // first non-full peer
  view.full = {true, true, true, true};
  EXPECT_EQ(pick_forward_target(0, 4, view), 2);  // oldest block wins
  EXPECT_EQ(pick_forward_target(2, 4, view), 0);  // never forwards to self
  EXPECT_EQ(pick_forward_target(0, 1, view), cache::kInvalidNode);
}

TEST(ForwardTarget, GloballyOldestMasterGetsNoSecondChance) {
  FakeView view;
  view.ages = {4, 10, kNoAge, 8};
  view.full = {true, true, false, true};
  EXPECT_TRUE(holds_globally_oldest(0, 4, 4, view));
  EXPECT_FALSE(holds_globally_oldest(1, 10, 4, view));
}

// -------------------------------------------------- directory conditions ---

TEST(DirectoryService, ClaimIsSetIfAbsent) {
  DirectoryService dir(4, cache::DirectoryMode::kPerfect, 1);
  const BlockId b{1, 0};
  EXPECT_TRUE(dir.try_claim(b, 2));
  EXPECT_FALSE(dir.try_claim(b, 3));  // somebody was faster
  EXPECT_EQ(dir.lookup(b), 2);
  EXPECT_EQ(dir.ops().claims, 1u);
  EXPECT_EQ(dir.ops().claim_conflicts, 1u);
}

TEST(DirectoryService, MasterDroppedIsConditionalOnHolder) {
  DirectoryService dir(4, cache::DirectoryMode::kPerfect, 1);
  const BlockId b{1, 0};
  ASSERT_TRUE(dir.try_claim(b, 2));
  dir.master_dropped(b, 3);  // a rival's stale notice must not erase node 2
  EXPECT_EQ(dir.lookup(b), 2);
  dir.master_dropped(b, 2);
  EXPECT_EQ(dir.lookup(b), cache::kInvalidNode);
}

TEST(DirectoryService, InvalidationEpochFencesInFlightForwards) {
  DirectoryService dir(4, cache::DirectoryMode::kPerfect, 1);
  const BlockId b{5, 0};
  ASSERT_TRUE(dir.try_claim(b, 0));
  const auto epoch = dir.begin_forward(b, 0);
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(dir.lookup(b), cache::kInvalidNode);  // in flight: unregistered
  dir.invalidate_file(b.file);                    // crosses the forward
  EXPECT_FALSE(dir.claim_forwarded(b, 1, 0, *epoch));
  EXPECT_EQ(dir.lookup(b), cache::kInvalidNode);
}

TEST(DirectoryService, ForwardClaimLosesToRivalDiskRead) {
  DirectoryService dir(4, cache::DirectoryMode::kPerfect, 1);
  const BlockId b{5, 0};
  ASSERT_TRUE(dir.try_claim(b, 0));
  const auto epoch = dir.begin_forward(b, 0);
  ASSERT_TRUE(epoch.has_value());
  ASSERT_TRUE(dir.try_claim(b, 2));  // rival misses and claims while in flight
  EXPECT_FALSE(dir.claim_forwarded(b, 1, 0, *epoch));
  EXPECT_EQ(dir.lookup(b), 2);
}

TEST(DirectoryService, BeginForwardRefusesASupersededMaster) {
  // Regression: a writer's write_claim can overtake an eviction's forward.
  // begin_forward must refuse to unregister the writer — otherwise the
  // forwarded (pre-write) bytes re-register as master and readers serve
  // stale data. Found by CcmStress.MixedReadersWritersInvalidatorsStay-
  // Consistent in tests/test_ccm.cpp.
  DirectoryService dir(4, cache::DirectoryMode::kPerfect, 1);
  const BlockId b{5, 0};
  ASSERT_TRUE(dir.try_claim(b, 0));
  EXPECT_EQ(dir.write_claim(b, 3), 0);          // writer overtakes node 0
  EXPECT_FALSE(dir.begin_forward(b, 0).has_value());
  EXPECT_EQ(dir.lookup(b), 3);                  // the writer stays registered
  EXPECT_EQ(dir.ops().forwards_begun, 0u);

  // Regression: an in-place re-write (previous holder == writer) keeps the
  // lookup pointing at the writer, so only the write span reveals that the
  // holder's cached bytes are being superseded. A forward begun inside the
  // span would ship them to a peer as a live master.
  dir.write_begin(b.file);
  EXPECT_EQ(dir.write_claim(b, 3), 3);          // holder re-write
  EXPECT_FALSE(dir.begin_forward(b, 3).has_value());
  EXPECT_EQ(dir.lookup(b), 3);
  dir.write_end(b.file);
  EXPECT_TRUE(dir.begin_forward(b, 3).has_value());  // quiescent again
}

TEST(DirectoryService, WriteClaimIsUnconditionalAndReturnsPrevious) {
  DirectoryService dir(4, cache::DirectoryMode::kPerfect, 1);
  const BlockId b{2, 1};
  EXPECT_EQ(dir.write_claim(b, 1), cache::kInvalidNode);  // cold write
  EXPECT_EQ(dir.write_claim(b, 3), 1);                    // migrates from 1
  EXPECT_EQ(dir.write_claim(b, 3), 3);                    // holder re-write
  EXPECT_EQ(dir.lookup(b), 3);
  // Every write bumps the file epoch — including the holder re-write, whose
  // content change is invisible through the master lookup alone. Readers
  // compare it against ReadLookup::epoch before caching fetched bytes.
  EXPECT_EQ(dir.file_epoch(b.file), 3u);
  EXPECT_EQ(dir.lookup_for_read(0, b).epoch, 3u);
}

TEST(DirectoryService, WriteSpanBlocksReadCachingUntilItCloses) {
  DirectoryService dir(4, cache::DirectoryMode::kPerfect, 1);
  const BlockId b{5, 2};
  ASSERT_TRUE(dir.try_claim(b, 0));

  const auto before = dir.lookup_for_read(1, b);
  EXPECT_TRUE(dir.read_cacheable(b.file, before.epoch));

  // A write span opens: nothing fetched under any epoch may be cached, even
  // under an epoch observed *inside* the span (after the per-block claim).
  dir.write_begin(b.file);
  EXPECT_FALSE(dir.read_cacheable(b.file, before.epoch));
  dir.write_claim(b, 0);  // holder re-write: lookup alone shows no change
  const auto inside = dir.lookup_for_read(1, b);
  EXPECT_EQ(inside.master, 0);
  EXPECT_FALSE(dir.read_cacheable(b.file, inside.epoch));

  // Closing the span bumps the epoch once more, so the in-span snapshot
  // stays uncacheable forever; only a fresh lookup is trusted again.
  dir.write_end(b.file);
  EXPECT_FALSE(dir.read_cacheable(b.file, before.epoch));
  EXPECT_FALSE(dir.read_cacheable(b.file, inside.epoch));
  const auto after = dir.lookup_for_read(1, b);
  EXPECT_TRUE(dir.read_cacheable(b.file, after.epoch));

  // Overlapping spans: cacheability returns only when the last one closes.
  dir.write_begin(b.file);
  dir.write_begin(b.file);
  dir.write_end(b.file);
  EXPECT_FALSE(dir.read_cacheable(b.file, dir.file_epoch(b.file)));
  dir.write_end(b.file);
  EXPECT_TRUE(dir.read_cacheable(b.file, dir.file_epoch(b.file)));
}

// -------------------------------------- batched vs singles equivalence ---

/// Applies one batch item through the matching DirectoryService method and
/// returns the result the batch op must match.
DirBatchResult apply_single(DirectoryService& dir, cache::NodeId node,
                            const DirBatchItem& it) {
  DirBatchResult r;
  switch (it.op) {
    case DirBatchOp::kLookupRead: {
      const auto lk = dir.lookup_for_read(node, it.block);
      r.node = lk.master;
      r.epoch = lk.epoch;
      if (lk.misdirected) r.flags |= kFlagMisdirected;
      break;
    }
    case DirBatchOp::kTryClaim:
      if (dir.try_claim(it.block, node)) r.flags |= kFlagGranted;
      break;
    case DirBatchOp::kMasterDropped:
      dir.master_dropped(it.block, node);
      break;
    case DirBatchOp::kValidate:
      r.node = dir.lookup(it.block);
      r.epoch = dir.file_epoch(it.block.file);
      if (dir.read_cacheable(it.block.file, r.epoch)) r.flags |= kFlagGranted;
      break;
  }
  return r;
}

TEST(DirBatchEquivalence, BatchedScriptMatchesSinglesStateExactly) {
  // Two directories fed the same deterministic mixed script: one through
  // apply_batch (with every batch routed through the wire codec, the way the
  // runtime ships it), one op at a time through the singles entry points.
  // Every per-item result and the complete final state must be identical —
  // the batch path is an amortization, never a semantic change.
  constexpr std::size_t kNodes = 4;
  constexpr cache::FileId kFiles = 6;
  constexpr std::uint32_t kIndexes = 4;
  DirectoryService batched(kNodes, cache::DirectoryMode::kPerfect, 1);
  DirectoryService singles(kNodes, cache::DirectoryMode::kPerfect, 1);

  std::vector<DirBatchItem> pending;
  std::vector<cache::FileId> open_spans;
  auto flush = [&](cache::NodeId node) {
    if (pending.empty()) return;
    const auto wire = encode_dir_batch_request(node, pending);
    const auto req = decode_dir_batch_request(wire);
    ASSERT_TRUE(req.has_value());
    ASSERT_EQ(req->node, node);
    std::vector<DirBatchResult> got;
    batched.apply_batch(req->node, req->items, got);
    const auto reply = decode_dir_batch_reply(encode_dir_batch_reply(got));
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->size(), pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const DirBatchResult want = apply_single(singles, node, pending[i]);
      EXPECT_EQ((*reply)[i], want)
          << "item " << i << " op "
          << static_cast<int>(pending[i].op) << " block "
          << pending[i].block.file << "/" << pending[i].block.index;
    }
    pending.clear();
  };

  cache::NodeId node = 0;
  for (int i = 0; i < 600; ++i) {
    const auto next = static_cast<cache::NodeId>((i * 5 + i / 7) % kNodes);
    if (next != node) flush(node);  // a batch carries one requester
    node = next;
    const BlockId b{static_cast<cache::FileId>((i * 7 + 3) % kFiles),
                    static_cast<std::uint32_t>((i * 3) % kIndexes)};
    pending.push_back({static_cast<DirBatchOp>(i % kDirBatchOpCount), b, 0});
    if (pending.size() == static_cast<std::size_t>(1 + i % 8)) flush(node);
    if (i % 31 == 0) {
      // Write spans are not batched ops; drive them identically on both
      // sides so epochs and in-flight write state diverge if batching leaks.
      flush(node);
      batched.write_begin(b.file);
      singles.write_begin(b.file);
      EXPECT_EQ(batched.write_claim(b, node), singles.write_claim(b, node));
      if (i % 62 == 0) {
        batched.write_end(b.file);
        singles.write_end(b.file);
      } else {
        open_spans.push_back(b.file);  // stays open across the next batches
      }
    }
    if (i % 93 == 1 && !open_spans.empty()) {
      flush(node);
      batched.write_end(open_spans.back());
      singles.write_end(open_spans.back());
      open_spans.pop_back();
    }
  }
  flush(node);
  for (const cache::FileId f : open_spans) {
    batched.write_end(f);
    singles.write_end(f);
  }

  // Final state: master map, per-file epochs, census, and every counter.
  for (cache::FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(batched.file_epoch(f), singles.file_epoch(f)) << "file " << f;
    for (std::uint32_t idx = 0; idx < kIndexes; ++idx) {
      const BlockId b{f, idx};
      EXPECT_EQ(batched.lookup(b), singles.lookup(b))
          << "block " << f << "/" << idx;
    }
  }
  EXPECT_EQ(batched.master_count(), singles.master_count());
  const auto& bo = batched.ops();
  const auto& so = singles.ops();
  EXPECT_EQ(bo.lookups, so.lookups);
  EXPECT_EQ(bo.claims, so.claims);
  EXPECT_EQ(bo.claim_conflicts, so.claim_conflicts);
  EXPECT_EQ(bo.masters_dropped, so.masters_dropped);
  EXPECT_EQ(bo.write_claims, so.write_claims);
  EXPECT_EQ(bo.hint_misdirects, so.hint_misdirects);
}

}  // namespace
}  // namespace coop::proto
