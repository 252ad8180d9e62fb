// ScenarioService: the socketless core of km_serve.
//
// Owns the result store, shares the process-wide dataset cache, and
// executes run requests on a bounded executor: at most `runners`
// concurrent engine runs, at most `queue_depth` callers parked waiting
// for a slot, and everything beyond that shed immediately with a "queue
// full" error — a long-running daemon must degrade by refusing work, not
// by growing an unbounded backlog.
//
// Separated from the socket transport (server.hpp) so tests and the
// bench harness can drive scenarios in-process: ScenarioService::handle
// is plain thread-safe request → response, no fds involved.
//
// No wall-clock reads anywhere in this layer (km_lint's wall-clock rule
// is absolute outside the tracing plane); latency claims about cache
// hits are measured by the bench harness and CI, not by the service.
#pragma once

#include <atomic>
#include <cstdint>
#include <semaphore>
#include <string>

#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "runtime/dataset_cache.hpp"

namespace km::serve {

struct ServiceConfig {
  std::size_t runners = 1;      ///< max concurrent engine runs
  std::size_t queue_depth = 16; ///< waiters beyond the running set
  std::size_t dataset_cache_bytes = DatasetCache::kDefaultByteBudget;
  std::size_t result_store_bytes = ResultStore::kDefaultByteBudget;
};

/// Service-level request accounting (cache counters live with their
/// caches; these count traffic).
struct ServiceCounters {
  std::uint64_t requests = 0;     ///< every request, malformed ones too
  std::uint64_t runs = 0;         ///< engine runs executed
  std::uint64_t replays = 0;      ///< run requests served from the store
  std::uint64_t errors = 0;       ///< error responses
  std::uint64_t shed = 0;         ///< run requests refused (queue full)
};

class ScenarioService {
 public:
  explicit ScenarioService(ServiceConfig config);

  /// Thread-safe.  Run requests may block until an executor slot frees
  /// up (bounded by queue_depth); other ops never block.
  Response handle(const Request& request);

  /// Compact one-line stats document (also the payload of op=stats).
  std::string stats_doc() const;

  ServiceCounters counters() const;
  ResultStore& result_store() { return store_; }
  const ServiceConfig& config() const { return config_; }

 private:
  friend class ServeServer;  // reports the lines parse_request() rejects

  Response handle_run(const Request& request);
  /// Answers a request line that failed to parse, counting it as a
  /// request and an error like every other error response.
  Response reject(std::string error);

  ServiceConfig config_;
  ResultStore store_;
  std::counting_semaphore<> run_slots_;
  std::atomic<std::uint64_t> waiting_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace km::serve
