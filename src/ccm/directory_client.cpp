#include "ccm/directory_client.hpp"

#include <utility>

namespace coop::ccm {

proto::Message RemoteDirectory::ask(const proto::Message& request) {
  net::Envelope env;
  env.msg = request;
  // Bounded retry: a directory RPC must never hang on a lossy or slow link,
  // and every kDir* operation RemoteDirectory issues is idempotent or
  // conditional at the service (see DirectoryService), so a re-ask whose
  // first reply was lost is safe.
  return net::call_with_retry(*transport_, std::move(env)).msg;
}

proto::DirBatchResult RemoteDirectory::ask_one(cache::NodeId node,
                                               proto::DirBatchOp op,
                                               const cache::BlockId& b) {
  const proto::DirBatchItem item{op, b};
  return batch_impl(node, std::span(&item, 1)).front();
}

proto::DirectoryService::ReadLookup RemoteDirectory::lookup_for_read_impl(
    cache::NodeId node, const cache::BlockId& b) {
  const proto::DirBatchResult r =
      ask_one(node, proto::DirBatchOp::kLookupRead, b);
  proto::DirectoryService::ReadLookup lk;
  lk.master = r.node;
  lk.misdirected = r.has(proto::kFlagMisdirected);
  lk.epoch = r.epoch;
  return lk;
}

cache::NodeId RemoteDirectory::lookup_impl(const cache::BlockId& b) {
  return ask(proto::Message::dir_request(proto::MsgKind::kDirLookup, local_,
                                         home_, b))
      .dir_result();
}

bool RemoteDirectory::try_claim_impl(const cache::BlockId& b,
                                     cache::NodeId node) {
  return ask_one(node, proto::DirBatchOp::kTryClaim, b)
      .has(proto::kFlagGranted);
}

std::optional<std::uint64_t> RemoteDirectory::begin_forward_impl(
    const cache::BlockId& b, cache::NodeId from) {
  const proto::Message reply = ask(proto::Message::dir_request(
      proto::MsgKind::kDirBeginForward, from, home_, b));
  if (!reply.has(proto::kFlagGranted)) return std::nullopt;
  return reply.age;
}

bool RemoteDirectory::claim_forwarded_impl(const cache::BlockId& b,
                                           cache::NodeId to, cache::NodeId from,
                                           std::uint64_t epoch) {
  return ask(proto::Message::dir_claim_forwarded(to, home_, b, from, epoch))
      .has(proto::kFlagGranted);
}

void RemoteDirectory::forward_rejected_impl(const cache::BlockId& b,
                                            cache::NodeId from) {
  ask(proto::Message::dir_request(proto::MsgKind::kDirForwardRejected, from,
                                  home_, b));
}

void RemoteDirectory::master_dropped_impl(const cache::BlockId& b,
                                          cache::NodeId node) {
  ask_one(node, proto::DirBatchOp::kMasterDropped, b);
}

cache::NodeId RemoteDirectory::write_claim_impl(const cache::BlockId& b,
                                                cache::NodeId writer) {
  return ask(proto::Message::dir_request(proto::MsgKind::kDirWriteClaim,
                                         writer, home_, b))
      .dir_result();
}

void RemoteDirectory::invalidate_file_impl(cache::FileId file) {
  ask(proto::Message::dir_file_request(proto::MsgKind::kDirInvalidateFile,
                                       local_, home_, file));
}

void RemoteDirectory::write_begin_impl(cache::FileId file) {
  ask(proto::Message::dir_file_request(proto::MsgKind::kDirWriteBegin, local_,
                                       home_, file));
}

void RemoteDirectory::write_end_impl(cache::FileId file) {
  ask(proto::Message::dir_file_request(proto::MsgKind::kDirWriteEnd, local_,
                                       home_, file));
}

bool RemoteDirectory::read_cacheable_impl(cache::FileId file,
                                          std::uint64_t epoch) {
  // kValidate answers for the file through any of its blocks: granted when
  // no write is in flight, plus the current epoch to compare.
  const proto::DirBatchResult r =
      ask_one(local_, proto::DirBatchOp::kValidate, {file, 0});
  return r.has(proto::kFlagGranted) && r.epoch == epoch;
}

std::size_t RemoteDirectory::purge_node_impl(cache::NodeId node) {
  // The purged count rides back in the reply's epoch slot (`age`).
  return static_cast<std::size_t>(
      ask(proto::Message::dir_purge_node(local_, home_, node)).age);
}

std::vector<proto::DirBatchResult> RemoteDirectory::batch_impl(
    cache::NodeId node, std::span<const proto::DirBatchItem> items) {
  std::vector<std::byte> payload = proto::encode_dir_batch_request(node, items);
  net::Envelope env;
  env.msg = proto::Message::dir_batch_request(
      node, home_, static_cast<std::uint32_t>(items.size()), payload.size());
  env.payloads.push_back(net::make_ready_block(std::move(payload)));
  // Same at-least-once contract as ask(): a replayed batch re-executes ops
  // that are individually idempotent or conditional, exactly like replaying
  // each single.
  const net::Envelope reply =
      net::call_with_retry(*transport_, std::move(env));
  if (const net::BlockPtr data = reply.payload();
      reply.msg.kind == proto::MsgKind::kDirBatchReply && data) {
    data->wait_ready();
    auto results = proto::decode_dir_batch_reply(data->bytes);
    if (results && results->size() == items.size()) {
      return std::move(*results);
    }
  }
  // Corrupt or truncated reply (never sent by a well-formed home): whether
  // the ops were applied is unknown, so the call fails like a lost peer.
  throw net::TransportError(net::TransportError::Kind::kPeerDown,
                            "RemoteDirectory: malformed dir-batch reply");
}

}  // namespace coop::ccm
