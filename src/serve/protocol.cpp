#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace km::serve {

namespace {

/// JSON numbers arrive as double; reject anything that is not an exact
/// non-negative integer so a typo like "k": 4.5 fails loudly.
bool as_uint(const JsonValue& v, std::uint64_t& out) {
  if (!v.is(JsonValue::Kind::kNumber)) return false;
  if (v.number < 0 || v.number != std::floor(v.number)) return false;
  if (v.number > static_cast<double>(std::numeric_limits<std::int64_t>::max()))
    return false;
  out = static_cast<std::uint64_t>(v.number);
  return true;
}

}  // namespace

bool parse_request(std::string_view line, Request& out, std::string& error) {
  JsonValue doc;
  if (!parse_json(line, doc, error)) return false;
  if (!doc.is(JsonValue::Kind::kObject)) {
    error = "request must be a JSON object";
    return false;
  }
  out = Request{};
  const std::string op =
      doc.find("op") && doc.find("op")->is(JsonValue::Kind::kString)
          ? doc.find("op")->string
          : "run";
  if (op == "run") {
    out.op = Request::Op::kRun;
  } else if (op == "stats") {
    out.op = Request::Op::kStats;
  } else if (op == "ping") {
    out.op = Request::Op::kPing;
  } else if (op == "shutdown") {
    out.op = Request::Op::kShutdown;
  } else {
    error = "unknown op '" + op + "' (run|stats|ping|shutdown)";
    return false;
  }

  for (const auto& [key, value] : doc.object) {
    std::uint64_t uint_value = 0;
    if (key == "op") continue;
    if (key == "workload" && value.is(JsonValue::Kind::kString)) {
      out.workload = value.string;
    } else if (key == "dataset" && value.is(JsonValue::Kind::kString)) {
      out.dataset = value.string;
    } else if (key == "k" && as_uint(value, uint_value)) {
      out.params.k = static_cast<std::size_t>(uint_value);
    } else if (key == "bandwidth" && as_uint(value, uint_value)) {
      out.params.bandwidth_bits = uint_value;
    } else if (key == "seed" && as_uint(value, uint_value)) {
      out.params.seed = uint_value;
    } else if (key == "workers" && as_uint(value, uint_value)) {
      out.params.workers = static_cast<std::size_t>(uint_value);
    } else if (key == "check" && value.is(JsonValue::Kind::kBool)) {
      out.params.check = value.boolean;
    } else if (key == "timeline" && value.is(JsonValue::Kind::kBool)) {
      out.params.record_timeline = value.boolean;
    } else if (key == "fresh" && value.is(JsonValue::Kind::kBool)) {
      out.fresh = value.boolean;
    } else {
      error = "unknown or mistyped field '" + key + "'";
      return false;
    }
  }

  if (out.op == Request::Op::kRun) {
    if (out.workload.empty()) {
      error = "run request is missing 'workload'";
      return false;
    }
    if (out.dataset.empty()) {
      error = "run request is missing 'dataset'";
      return false;
    }
  }
  return true;
}

std::string meta_line(const Response& response) {
  JsonWriter w(0);
  w.begin_object();
  w.field("km_serve", kProtocolVersion);
  w.field("status", response.ok ? "ok" : "error");
  if (!response.source.empty()) w.field("source", response.source);
  if (!response.ok) w.field("error", response.error);
  w.end_object();
  return w.str();
}

Response error_response(std::string message) {
  Response r;
  r.ok = false;
  r.error = std::move(message);
  r.doc = "{}";
  return r;
}

}  // namespace km::serve
