#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "runtime/results.hpp"
#include "util/json.hpp"

namespace km::serve {

ScenarioService::ScenarioService(ServiceConfig config)
    : config_(config),
      store_(config.result_store_bytes),
      run_slots_(static_cast<std::ptrdiff_t>(
          std::max<std::size_t>(config.runners, 1))) {
  config_.runners = std::max<std::size_t>(config_.runners, 1);
  DatasetCache::instance().set_byte_budget(config_.dataset_cache_bytes);
}

Response ScenarioService::handle(const Request& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  switch (request.op) {
    case Request::Op::kPing:
    case Request::Op::kShutdown: {
      // Shutdown acknowledges like a ping; the transport owns the
      // actual stop (the service has no lifecycle of its own).
      Response r;
      r.doc = "{}";
      return r;
    }
    case Request::Op::kStats: {
      Response r;
      r.doc = stats_doc();
      return r;
    }
    case Request::Op::kRun:
      return handle_run(request);
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  return error_response("unhandled op");
}

Response ScenarioService::reject(std::string error) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  errors_.fetch_add(1, std::memory_order_relaxed);
  return error_response(std::move(error));
}

Response ScenarioService::handle_run(const Request& request) {
  try {
    const Workload* workload =
        WorkloadRegistry::instance().find(request.workload);
    if (!workload) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return error_response("unknown workload '" + request.workload +
                            "' (see km_run list)");
    }
    if (request.params.k < 2) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return error_response("k must be >= 2");
    }
    const DatasetSpec spec = DatasetSpec::parse(request.dataset);
    const std::string dataset_key = DatasetCache::canonical_key(
        spec, workload->input_kind(), request.params.seed);
    const std::string cell_key =
        ResultStore::scenario_key(request.workload, dataset_key,
                                  request.params);

    if (!request.fresh) {
      if (const auto stored = store_.find(cell_key)) {
        replays_.fetch_add(1, std::memory_order_relaxed);
        Response r;
        r.source = "result_store";
        r.doc = *stored;
        return r;
      }
    }

    // Bounded executor: take a run slot, shedding instead of queueing
    // without limit.  waiting_ counts parked callers; beyond
    // queue_depth the request is refused immediately.
    if (!run_slots_.try_acquire()) {
      if (waiting_.fetch_add(1, std::memory_order_acq_rel) >=
          config_.queue_depth) {
        waiting_.fetch_sub(1, std::memory_order_acq_rel);
        shed_.fetch_add(1, std::memory_order_relaxed);
        errors_.fetch_add(1, std::memory_order_relaxed);
        return error_response("queue full (" +
                              std::to_string(config_.queue_depth) +
                              " waiters); retry later");
      }
      run_slots_.acquire();
      waiting_.fetch_sub(1, std::memory_order_acq_rel);
    }

    Response r;
    try {
      const auto dataset = DatasetCache::instance().get(
          spec, workload->input_kind(), request.params.seed);
      const RunResult result =
          run_workload(*workload, *dataset, request.params);
      runs_.fetch_add(1, std::memory_order_relaxed);
      r.source = "engine";
      // put() returns the canonical bytes for the cell — ours, unless a
      // concurrent run of the same cell beat us to the store.
      r.doc = *store_.put(cell_key, run_result_to_json(result, 0));
    } catch (...) {
      run_slots_.release();
      throw;
    }
    run_slots_.release();
    return r;
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(e.what());
  }
}

std::string ScenarioService::stats_doc() const {
  const ServiceCounters c = counters();
  const ResultStoreCounters store = store_.counters();
  const DatasetCacheCounters data = DatasetCache::instance().counters();
  JsonWriter w(0);
  w.begin_object();
  w.field("schema", "km.serve_stats/v1");
  w.key("service").begin_object();
  w.field("requests", c.requests);
  w.field("runs", c.runs);
  w.field("replays", c.replays);
  w.field("errors", c.errors);
  w.field("shed", c.shed);
  w.field("runners", std::uint64_t{config_.runners});
  w.field("queue_depth", std::uint64_t{config_.queue_depth});
  w.end_object();
  w.key("result_store").begin_object();
  w.field("hits", store.hits);
  w.field("misses", store.misses);
  w.field("evictions", store.evictions);
  w.field("entries", store.entries);
  w.field("bytes", store.bytes);
  w.end_object();
  w.key("dataset_cache").begin_object();
  w.field("hits", data.hits);
  w.field("misses", data.misses);
  w.field("evictions", data.evictions);
  w.field("entries", data.entries);
  w.field("bytes", data.bytes);
  w.end_object();
  w.end_object();
  return w.str();
}

ServiceCounters ScenarioService::counters() const {
  ServiceCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.runs = runs_.load(std::memory_order_relaxed);
  c.replays = replays_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace km::serve
