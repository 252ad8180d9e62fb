// km_serve wire protocol: newline-delimited JSON over a local stream
// socket.
//
// Requests are one JSON object per line:
//   {"op": "run", "workload": "mst", "dataset": "gnp:n=64,p=0.08",
//    "k": 4, "bandwidth": 0, "seed": 7, "workers": 0, "check": true,
//    "timeline": true, "fresh": false}
//   {"op": "stats"} | {"op": "ping"} | {"op": "shutdown"}
//
// Every response is exactly two lines:
//   1. a meta line, e.g. {"km_serve":"v1","status":"ok","source":"engine"}
//   2. a payload line — the compact km.run_result/v1 document for run,
//      a stats document for stats, "{}" otherwise.
// Fixed two-line shape keeps clients trivial: write one line, read two.
//
// "source" on run responses says where the document came from: "engine"
// (a fresh simulation) or "result_store" (byte-identical replay of an
// earlier run of the same parameter cell).  "fresh": true bypasses the
// result store (the dataset cache still applies — datasets are
// deterministic in (spec, seed) so there is nothing to bypass).
#pragma once

#include <string>
#include <string_view>

#include "runtime/workload.hpp"

namespace km::serve {

inline constexpr std::string_view kProtocolVersion = "v1";

struct Request {
  enum class Op { kRun, kStats, kPing, kShutdown };

  Op op = Op::kRun;
  std::string workload;
  std::string dataset;
  RunParams params;     ///< k, bandwidth_bits, seed, workers, check,
                        ///< record_timeline (trace is not servable)
  bool fresh = false;   ///< bypass the result store for this request
};

/// Parses one request line.  Returns false and sets `error` on malformed
/// JSON, unknown op/field, or out-of-range values.
bool parse_request(std::string_view line, Request& out, std::string& error);

struct Response {
  bool ok = true;
  std::string error;   ///< set when !ok
  std::string source;  ///< run only: "engine" or "result_store"
  std::string doc;     ///< compact one-line payload; "{}" when none
};

/// The response's meta line (no trailing newline).
std::string meta_line(const Response& response);

/// Error helper: ok=false, empty doc.
Response error_response(std::string message);

}  // namespace km::serve
