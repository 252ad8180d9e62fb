// Tests for the serving layer's socketless pieces: the dataset cache
// (runtime/dataset_cache.hpp), the result store, the NDJSON protocol,
// and ScenarioService driven in-process.  Socket transport and
// concurrency live in test_serve_stress.cpp.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <string>

#include "runtime/dataset_cache.hpp"
#include "runtime/results.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "util/json_parse.hpp"

namespace km {
namespace {

using serve::Request;
using serve::Response;
using serve::ResultStore;
using serve::ScenarioService;
using serve::ServiceConfig;

// ---- Dataset cache ----

TEST(DatasetCache, MissThenHitSharesOneMaterialization) {
  DatasetCache cache;
  const auto a = cache.get("gnp:n=64,p=0.1", DatasetKind::kUndirected, 7);
  const auto b = cache.get("gnp:n=64,p=0.1", DatasetKind::kUndirected, 7);
  EXPECT_EQ(a.get(), b.get());  // literally the same object
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(DatasetCache, CanonicalKeyCollapsesSpellingVariants) {
  const auto a = DatasetSpec::parse("gnp:n=64,p=0.1,maxw=9");
  const auto b = DatasetSpec::parse("gnp:maxw=9,p=0.1,n=64");
  EXPECT_EQ(DatasetCache::canonical_key(a, DatasetKind::kUndirected, 7),
            DatasetCache::canonical_key(b, DatasetKind::kUndirected, 7));
  // Different seed, kind, or parameter value each split the cell.
  EXPECT_NE(DatasetCache::canonical_key(a, DatasetKind::kUndirected, 7),
            DatasetCache::canonical_key(a, DatasetKind::kUndirected, 8));
  EXPECT_NE(DatasetCache::canonical_key(a, DatasetKind::kUndirected, 7),
            DatasetCache::canonical_key(a, DatasetKind::kWeighted, 7));
}

TEST(DatasetCache, SpellingVariantsShareTheEntryButKeepFirstSpelling) {
  DatasetCache cache;
  const auto a = cache.get("gnp:n=64,p=0.1", DatasetKind::kUndirected, 7);
  const auto b = cache.get("gnp:p=0.1,n=64", DatasetKind::kUndirected, 7);
  EXPECT_EQ(a.get(), b.get());
  // Documents and sweep filenames must not change because a later
  // request spelled the spec differently.
  EXPECT_EQ(b->spec, "gnp:n=64,p=0.1");
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(DatasetCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  DatasetCache cache(1);  // everything over budget: keep newest only
  const auto a = cache.get("path:n=32", DatasetKind::kUndirected, 1);
  const auto b = cache.get("path:n=33", DatasetKind::kUndirected, 1);
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 2u);
  EXPECT_GE(c.evictions, 1u);
  EXPECT_EQ(c.entries, 1u);
  // Evicted datasets stay alive through the shared_ptr we hold.
  EXPECT_EQ(a->n, 32u);
  EXPECT_EQ(b->n, 33u);
}

TEST(DatasetCache, CountersSinceReportsDeltas) {
  DatasetCache cache;
  (void)cache.get("path:n=8", DatasetKind::kUndirected, 1);
  const auto base = cache.counters();
  (void)cache.get("path:n=8", DatasetKind::kUndirected, 1);
  (void)cache.get("path:n=9", DatasetKind::kUndirected, 1);
  const auto delta = cache.counters().since(base);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.entries, 2u);  // gauge: absolute
  EXPECT_NE(delta.summary().find("dataset_cache: hits=1 misses=1"),
            std::string::npos);
}

TEST(DatasetCache, PropagatesDatasetErrors) {
  DatasetCache cache;
  EXPECT_THROW(cache.get("nope:n=3", DatasetKind::kUndirected, 1),
               DatasetError);
  EXPECT_EQ(cache.counters().entries, 0u);
}

// ---- Result store ----

TEST(ResultStore, PutFindRoundTrip) {
  ResultStore store;
  RunParams params;
  const std::string key = ResultStore::scenario_key("mst", "dskey", params);
  EXPECT_EQ(store.find(key), nullptr);
  store.put(key, "{\"doc\":1}");
  const auto doc = store.find(key);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(*doc, "{\"doc\":1}");
  const auto c = store.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.bytes, doc->size());
}

TEST(ResultStore, ScenarioKeySeparatesTheParameterCell) {
  RunParams params;
  const std::string base = ResultStore::scenario_key("mst", "ds", params);
  RunParams other = params;
  other.k = params.k + 1;
  EXPECT_NE(ResultStore::scenario_key("mst", "ds", other), base);
  other = params;
  other.seed = params.seed + 1;
  EXPECT_NE(ResultStore::scenario_key("mst", "ds", other), base);
  // workers and trace are execution policy: same cell, same key.
  other = params;
  other.workers = 3;
  other.trace = true;
  EXPECT_EQ(ResultStore::scenario_key("mst", "ds", other), base);
}

TEST(ResultStore, FirstWriterWinsKeepsBytesCanonical) {
  ResultStore store;
  RunParams params;
  const std::string key = ResultStore::scenario_key("mst", "ds", params);
  const auto first = store.put(key, "{\"wall_ms\":1}");
  const auto second = store.put(key, "{\"wall_ms\":2}");
  EXPECT_EQ(*first, "{\"wall_ms\":1}");
  EXPECT_EQ(*second, "{\"wall_ms\":1}");  // the racer gets the canon bytes
}

TEST(ResultStore, EvictsUnderByteBudget) {
  ResultStore store(10);
  RunParams params;
  params.k = 2;
  store.put(ResultStore::scenario_key("a", "ds", params), "0123456789");
  params.k = 3;
  store.put(ResultStore::scenario_key("b", "ds", params), "0123456789");
  const auto c = store.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_LE(c.bytes, 10u);
}

// ---- Protocol ----

TEST(ServeProtocol, ParsesFullRunRequest) {
  Request req;
  std::string error;
  ASSERT_TRUE(serve::parse_request(
      R"({"op":"run","workload":"mst","dataset":"gnp:n=64,p=0.1","k":4,)"
      R"("bandwidth":2048,"seed":9,"workers":2,"check":false,)"
      R"("timeline":false,"fresh":true})",
      req, error))
      << error;
  EXPECT_EQ(req.op, Request::Op::kRun);
  EXPECT_EQ(req.workload, "mst");
  EXPECT_EQ(req.dataset, "gnp:n=64,p=0.1");
  EXPECT_EQ(req.params.k, 4u);
  EXPECT_EQ(req.params.bandwidth_bits, 2048u);
  EXPECT_EQ(req.params.seed, 9u);
  EXPECT_EQ(req.params.workers, 2u);
  EXPECT_FALSE(req.params.check);
  EXPECT_FALSE(req.params.record_timeline);
  EXPECT_TRUE(req.fresh);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  Request req;
  std::string error;
  EXPECT_FALSE(serve::parse_request("not json", req, error));
  EXPECT_FALSE(serve::parse_request("[1,2]", req, error));
  EXPECT_FALSE(serve::parse_request(R"({"op":"dance"})", req, error));
  EXPECT_FALSE(serve::parse_request(R"({"op":"run"})", req, error));  // no workload
  EXPECT_FALSE(serve::parse_request(
      R"({"op":"run","workload":"mst","dataset":"d","k":4.5})", req, error));
  EXPECT_FALSE(serve::parse_request(
      R"({"op":"run","workload":"mst","dataset":"d","zzz":1})", req, error));
  EXPECT_NE(error.find("zzz"), std::string::npos);
  // The framing threshold follows from B, so "frame" is an unknown
  // field whatever its value.
  EXPECT_FALSE(serve::parse_request(
      R"({"op":"run","workload":"mst","dataset":"d","frame":"auto"})", req,
      error));
  EXPECT_NE(error.find("frame"), std::string::npos);
  EXPECT_FALSE(serve::parse_request(
      R"({"op":"run","workload":"mst","dataset":"d","frame":128})", req,
      error));
}

TEST(ServeProtocol, MetaLineShape) {
  Response ok;
  ok.source = "engine";
  EXPECT_EQ(serve::meta_line(ok),
            R"({"km_serve":"v1","status":"ok","source":"engine"})");
  const Response err = serve::error_response("boom");
  EXPECT_EQ(serve::meta_line(err),
            R"({"km_serve":"v1","status":"error","error":"boom"})");
}

// ---- ScenarioService (in-process) ----

Request run_request(const std::string& workload, const std::string& dataset,
                    std::size_t k = 4, std::uint64_t seed = 7) {
  Request req;
  req.op = Request::Op::kRun;
  req.workload = workload;
  req.dataset = dataset;
  req.params.k = k;
  req.params.seed = seed;
  return req;
}

TEST(ScenarioService, FirstRunsThenReplaysByteIdentical) {
  ScenarioService service(ServiceConfig{});
  const auto store_before = service.result_store().counters();
  const Response first = service.handle(run_request("components",
                                                    "gnp:n=48,p=0.15"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.source, "engine");
  const Response second = service.handle(run_request("components",
                                                     "gnp:n=48,p=0.15"));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.source, "result_store");
  // Replay is the stored bytes — wall_ms included, nothing re-run.
  EXPECT_EQ(first.doc, second.doc);
  const auto store_delta =
      service.result_store().counters().since(store_before);
  EXPECT_EQ(store_delta.hits, 1u);
  const auto c = service.counters();
  EXPECT_EQ(c.runs, 1u);
  EXPECT_EQ(c.replays, 1u);
}

TEST(ScenarioService, FreshBypassesTheResultStore) {
  ScenarioService service(ServiceConfig{});
  (void)service.handle(run_request("components", "gnp:n=48,p=0.15"));
  Request req = run_request("components", "gnp:n=48,p=0.15");
  req.fresh = true;
  const Response again = service.handle(req);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.source, "engine");
  EXPECT_EQ(service.counters().runs, 2u);
}

TEST(ScenarioService, SpellingVariantsHitTheSameCell) {
  ScenarioService service(ServiceConfig{});
  const Response a = service.handle(run_request("components",
                                                "gnp:n=48,p=0.15"));
  const Response b = service.handle(run_request("components",
                                                "gnp:p=0.15,n=48"));
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(b.source, "result_store");
  EXPECT_EQ(a.doc, b.doc);  // the first spelling's document, byte for byte
}

TEST(ScenarioService, ServedDocIsValidRunResultJson) {
  ScenarioService service(ServiceConfig{});
  const Response r = service.handle(run_request("mst", "gnp:n=48,p=0.2"));
  ASSERT_TRUE(r.ok) << r.error;
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(r.doc, doc, error)) << error;
  const JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "km.run_result/v1");
  EXPECT_EQ(r.doc.find('\n'), std::string::npos);  // strictly one line
}

TEST(ScenarioService, ErrorsAreResponsesNotExceptions) {
  ScenarioService service(ServiceConfig{});
  const Response unknown =
      service.handle(run_request("no_such_workload", "path:n=8"));
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("no_such_workload"), std::string::npos);
  const Response bad_spec =
      service.handle(run_request("components", "nope:n=8"));
  EXPECT_FALSE(bad_spec.ok);
  const Response small_k =
      service.handle(run_request("components", "path:n=8", /*k=*/1));
  EXPECT_FALSE(small_k.ok);
  EXPECT_EQ(service.counters().errors, 3u);
}

TEST(ScenarioService, OversizedKAndWorkersGetErrorsNotRuns) {
  // k sizes the engine's k² link state and workers its OS-thread pool.
  // Past the caps a request must come back as an error naming the field
  // and the limit.  Only error responses are exercised here: a run at
  // these values would ask for thousands of threads.
  ScenarioService service(ServiceConfig{});
  const Response huge_k = service.handle(run_request(
      "components", "path:n=8", ScenarioService::kMaxMachines + 1));
  EXPECT_FALSE(huge_k.ok);
  EXPECT_NE(huge_k.error.find("k must be <= 4096"), std::string::npos)
      << huge_k.error;

  Request many_workers = run_request("components", "path:n=8");
  many_workers.params.workers = ScenarioService::kMaxWorkers + 1;
  const Response too_many = service.handle(many_workers);
  EXPECT_FALSE(too_many.ok);
  EXPECT_NE(too_many.error.find("workers must be <= 256"), std::string::npos)
      << too_many.error;

  Request both = run_request("components", "path:n=8", 10000);
  both.params.workers = 10000;
  const Response both_over = service.handle(both);
  EXPECT_FALSE(both_over.ok);
  EXPECT_NE(both_over.error.find("k must be <= 4096"), std::string::npos)
      << both_over.error;

  const auto c = service.counters();
  EXPECT_EQ(c.errors, 3u);
  EXPECT_EQ(c.runs, 0u);
}

TEST(ScenarioService, NanProbabilityGetsAnErrorDocument) {
  // A NaN p once spun the runner's dataset build forever; it must come
  // back as an error response that names the key, and the service must
  // keep serving.
  ScenarioService service(ServiceConfig{});
  const Response nan_p =
      service.handle(run_request("components", "gnp:n=48,p=nan"));
  EXPECT_FALSE(nan_p.ok);
  EXPECT_NE(nan_p.error.find("parameter p "), std::string::npos)
      << nan_p.error;
  EXPECT_NE(serve::meta_line(nan_p).find(R"("status":"error")"),
            std::string::npos);
  EXPECT_EQ(service.counters().errors, 1u);
  EXPECT_TRUE(
      service.handle(run_request("components", "gnp:n=48,p=0.15")).ok);
}

TEST(ScenarioService, StatsDocIsParsableAndCountsTraffic) {
  ScenarioService service(ServiceConfig{});
  (void)service.handle(run_request("components", "gnp:n=48,p=0.15"));
  (void)service.handle(run_request("components", "gnp:n=48,p=0.15"));
  Request stats;
  stats.op = Request::Op::kStats;
  const Response r = service.handle(stats);
  ASSERT_TRUE(r.ok);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(r.doc, doc, error)) << error;
  EXPECT_EQ(doc.find("schema")->string, "km.serve_stats/v1");
  const JsonValue* svc = doc.find("service");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->find("runs")->number, 1.0);
  EXPECT_EQ(svc->find("replays")->number, 1.0);
  const JsonValue* store = doc.find("result_store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->find("hits")->number, 1.0);
}

TEST(ScenarioService, PingAndShutdownAcknowledge) {
  ScenarioService service(ServiceConfig{});
  Request ping;
  ping.op = Request::Op::kPing;
  EXPECT_TRUE(service.handle(ping).ok);
  Request shutdown;
  shutdown.op = Request::Op::kShutdown;
  EXPECT_TRUE(service.handle(shutdown).ok);
}

}  // namespace
}  // namespace km
