#include "cache/directory.hpp"

#include <cassert>
#include <string>

#include "util/audit.hpp"

namespace coop::cache {

NodeId PerfectDirectory::lookup(const BlockId& b) const {
  const NodeId* n = map_.find(b);
  return n == nullptr ? kInvalidNode : *n;
}

void PerfectDirectory::set_master(const BlockId& b, NodeId n) {
  assert(n != kInvalidNode);
  map_[b] = n;
}

void PerfectDirectory::erase_master(const BlockId& b) { map_.erase(b); }

std::vector<BlockId> PerfectDirectory::erase_node(NodeId n) {
  std::vector<BlockId> erased;
  // Order-insensitive: the caller treats the result as a set (every block's
  // file is epoch-fenced; no per-entry ordering reaches outputs).
  for (const auto& [b, holder] : map_) {  // ccm-lint: allow(unordered-iter)
    if (holder == n) erased.push_back(b);
  }
  for (const BlockId& b : erased) map_.erase(b);
  return erased;
}

std::vector<std::pair<BlockId, NodeId>> PerfectDirectory::entries() const {
  std::vector<std::pair<BlockId, NodeId>> out;
  out.reserve(map_.size());
  // Order-insensitive: consumed as a set by directory rebuilds.
  for (const auto& [b, n] : map_) out.emplace_back(b, n);  // ccm-lint: allow(unordered-iter)
  return out;
}

HintedDirectory::HintedDirectory(std::size_t nodes, std::uint32_t staleness_lag)
    : staleness_lag_(staleness_lag), hints_(nodes) {}

NodeId HintedDirectory::lookup(NodeId observer, const BlockId& b) const {
  assert(observer < hints_.size());
  ++lookups_;
  const NodeId* hint = hints_[observer].map.find(b);
  const NodeId hinted = hint == nullptr ? kInvalidNode : *hint;
  if (hinted == truth(b)) ++correct_;
  return hinted;
}

NodeId HintedDirectory::truth(const BlockId& b) const {
  const TruthEntry* t = truth_.find(b);
  return t == nullptr ? kInvalidNode : t->node;
}

void HintedDirectory::set_master(const BlockId& b, NodeId n, NodeId observer) {
  assert(n != kInvalidNode);
  auto& entry = truth_[b];
  entry.node = n;
  ++entry.version;
  // The node performing the placement and the new holder learn immediately
  // (the update rides the data message).
  hints_[observer].map[b] = n;
  hints_[n].map[b] = n;
  propagate_if_lagged(b);
}

void HintedDirectory::erase_master(const BlockId& b, NodeId observer) {
  if (!truth_.erase(b)) return;
  last_broadcast_.erase(b);
  hints_[observer].map.erase(b);
  // Other nodes keep a dangling hint until they discover it is wrong.
}

void HintedDirectory::refresh(NodeId observer, const BlockId& b) {
  assert(observer < hints_.size());
  const NodeId t = truth(b);
  if (t == kInvalidNode) {
    hints_[observer].map.erase(b);
  } else {
    hints_[observer].map[b] = t;
  }
}

void HintedDirectory::propagate_if_lagged(const BlockId& b) {
  const TruthEntry* t = truth_.find(b);
  assert(t != nullptr);
  auto& broadcast = last_broadcast_[b];
  if (t->version - broadcast <= staleness_lag_) return;
  for (auto& h : hints_) h.map[b] = t->node;
  broadcast = t->version;
}

double HintedDirectory::accuracy() const {
  if (lookups_ == 0) return 1.0;
  return static_cast<double>(correct_) / static_cast<double>(lookups_);
}

std::size_t HintedDirectory::audit(const char* context) const {
  std::size_t ccm_audit_failures = 0;
  const std::string ctx = std::string(" [") + context + "]";
  // Order-insensitive sweeps: each check is independent of map order.
  for (const auto& [block, entry] : truth_) {  // ccm-lint: allow(unordered-iter)
    CCM_AUDIT(entry.node != kInvalidNode && entry.node < hints_.size(),
              "dir-truth-node-valid",
              "truth for file " + std::to_string(block.file) + " block " +
                  std::to_string(block.index) + " names node " +
                  std::to_string(entry.node) + " of " +
                  std::to_string(hints_.size()) + ctx);
  }
  for (const auto& [block, version] : last_broadcast_) {  // ccm-lint: allow(unordered-iter)
    const TruthEntry* t = truth_.find(block);
    CCM_AUDIT(t != nullptr, "dir-broadcast-live",
              "broadcast bookkeeping for file " + std::to_string(block.file) +
                  " block " + std::to_string(block.index) +
                  " outlived its truth entry" + ctx);
    if (t != nullptr) {
      CCM_AUDIT(version <= t->version, "dir-broadcast-version",
                "broadcast version " + std::to_string(version) +
                    " ahead of truth version " +
                    std::to_string(t->version) + " for file " +
                    std::to_string(block.file) + ctx);
    }
  }
  return ccm_audit_failures;
}

}  // namespace coop::cache
