// Shared telemetry-report plumbing for the bench drivers: ccm_stress and
// ccm_node emit the identical "metrics" JSON block (obs::metrics_json over a
// MetricsSnapshot) so scripts/compare_bench.py and the loopback harness can
// diff either driver's report against a pinned baseline with one schema.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "proto/message.hpp"
#include "util/json.hpp"

namespace ccm_bench {

/// obs is proto-agnostic: its RPC slots are raw kind bytes. This adapter
/// gives the report human names, shrugging at out-of-vocabulary slots (a
/// newer peer's snapshot can carry kinds this build does not know).
inline const char* rpc_kind_name(std::uint8_t kind) {
  if (kind >= coop::proto::kMsgKindCount) return "unknown-kind";
  return coop::proto::kind_name(static_cast<coop::proto::MsgKind>(kind));
}

/// Appends `key: {metrics...}` to an object the caller has open.
inline void metrics_block(coop::util::JsonWriter& j, const char* key,
                          const coop::obs::MetricsSnapshot& s) {
  j.key(key);
  coop::obs::metrics_json(j, s, &rpc_kind_name);
}

}  // namespace ccm_bench
