// ccm_metrics: merges the runtime span logs the cluster drivers write per
// process (ccm_node --runtime-trace-out) into one wall-clock Perfetto trace
// with cross-process flow arrows (obs::runtime_trace_json). Cluster-wide
// counters come from the live kStatsPull scrape instead (ccm_node
// --scrape-out). Usage:
//
//   ccm_metrics --trace-out=PATH FILE...
//
// Exit codes: 0 ok, 1 I/O or write failure, 2 usage / unparsable input.
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/perfetto.hpp"
#include "obs/runtime_trace.hpp"
#include "util/cli.hpp"

using namespace coop;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::string out_path = flags.get("trace-out");
  if (flags.positionals().empty() || out_path.empty() || out_path == "true") {
    std::cerr << "usage: ccm_metrics --trace-out=PATH FILE...\n";
    return 2;
  }

  std::vector<obs::RuntimeSpan> spans;
  for (const std::string& path : flags.positionals()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "ccm_metrics: cannot read " << path << "\n";
      return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (!obs::parse_span_log(text, spans)) {
      std::cerr << "ccm_metrics: " << path << " is not a span log\n";
      return 2;
    }
  }

  std::ofstream out(out_path);
  out << obs::runtime_trace_json(spans);
  if (!out) {
    std::cerr << "ccm_metrics: cannot write " << out_path << "\n";
    return 1;
  }
  std::cerr << "ccm_metrics: " << spans.size() << " span(s) from "
            << flags.positionals().size() << " log(s) -> " << out_path << "\n";
  return 0;
}
