// km_serve end-to-end: the Unix-socket NDJSON transport under real
// concurrency, plus the Determinism-suite extension — documents served
// over the socket are identical (modulo the exempt wall-time keys) to a
// fresh in-process run AND to the checked-in golden snapshots.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/results.hpp"
#include "serve/client.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace km {
namespace {

using serve::Request;
using serve::ScenarioService;
using serve::ServeClient;
using serve::ServeServer;
using serve::ServiceConfig;

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/km_serve_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string run_line(const std::string& workload, const std::string& dataset,
                     std::uint64_t k = 4, std::uint64_t seed = 7,
                     bool fresh = false) {
  JsonWriter w(0);
  w.begin_object();
  w.field("op", "run");
  w.field("workload", workload);
  w.field("dataset", dataset);
  w.field("k", k);
  w.field("seed", seed);
  if (fresh) w.field("fresh", true);
  w.end_object();
  return w.str();
}

bool meta_ok(const std::string& meta) {
  return meta.find("\"status\":\"ok\"") != std::string::npos;
}

std::string meta_source(const std::string& meta) {
  if (meta.find("\"source\":\"engine\"") != std::string::npos) return "engine";
  if (meta.find("\"source\":\"result_store\"") != std::string::npos) {
    return "result_store";
  }
  return "";
}

/// Deep equality ignoring the exempt keys (wall_ms scalar, timing
/// block) wherever they appear — the parsed-tree equivalent of the
/// golden suite's textual strip_exempt, so compact and pretty documents
/// compare directly.
bool json_equal_exempt(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.boolean == b.boolean;
    case JsonValue::Kind::kNumber: return a.number == b.number;
    case JsonValue::Kind::kString: return a.string == b.string;
    case JsonValue::Kind::kArray: {
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!json_equal_exempt(a.array[i], b.array[i])) return false;
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      const auto keep = [](const std::pair<std::string, JsonValue>& kv) {
        return kv.first != "wall_ms" && kv.first != "timing";
      };
      std::vector<const std::pair<std::string, JsonValue>*> am, bm;
      for (const auto& kv : a.object) {
        if (keep(kv)) am.push_back(&kv);
      }
      for (const auto& kv : b.object) {
        if (keep(kv)) bm.push_back(&kv);
      }
      if (am.size() != bm.size()) return false;
      // The writer is schema-stable: member order must match too.
      for (std::size_t i = 0; i < am.size(); ++i) {
        if (am[i]->first != bm[i]->first) return false;
        if (!json_equal_exempt(am[i]->second, bm[i]->second)) return false;
      }
      return true;
    }
  }
  return false;
}

JsonValue parse_or_die(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(text, doc, error)) << error << "\nin: " << text;
  return doc;
}

TEST(ServeSocket, RoundTripThenByteIdenticalReplay) {
  ScenarioService service(ServiceConfig{});
  ServeServer server(service, unique_socket_path());
  server.start();
  {
    ServeClient client(server.socket_path());
    const auto first =
        client.request(run_line("components", "gnp:n=48,p=0.15"));
    ASSERT_TRUE(meta_ok(first.meta)) << first.meta;
    EXPECT_EQ(meta_source(first.meta), "engine");
    const auto second =
        client.request(run_line("components", "gnp:n=48,p=0.15"));
    ASSERT_TRUE(meta_ok(second.meta)) << second.meta;
    EXPECT_EQ(meta_source(second.meta), "result_store");
    EXPECT_EQ(first.doc, second.doc);  // byte-identical replay
    EXPECT_EQ(service.counters().runs, 1u);
  }
  server.stop();
  server.wait();
}

TEST(ServeSocket, PingStatsAndBadRequests) {
  ScenarioService service(ServiceConfig{});
  ServeServer server(service, unique_socket_path());
  server.start();
  {
    ServeClient client(server.socket_path());
    const auto ping = client.request(R"({"op":"ping"})");
    EXPECT_TRUE(meta_ok(ping.meta));
    EXPECT_EQ(ping.doc, "{}");
    const auto garbage = client.request("this is not json");
    EXPECT_FALSE(meta_ok(garbage.meta));
    // The connection survives a bad request; the next one still works.
    const auto stats = client.request(R"({"op":"stats"})");
    ASSERT_TRUE(meta_ok(stats.meta));
    const JsonValue doc = parse_or_die(stats.doc);
    EXPECT_EQ(doc.find("schema")->string, "km.serve_stats/v1");
    // The line that failed to parse is a request answered with an error.
    const JsonValue* counts = doc.find("service");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->find("requests")->number, 3.0);
    EXPECT_EQ(counts->find("errors")->number, 1.0);
  }
  server.stop();
  server.wait();
}

TEST(ServeSocket, ConcurrentClientsAllServedConsistently) {
  ScenarioService service(ServiceConfig{.runners = 4, .queue_depth = 64});
  ServeServer server(service, unique_socket_path());
  server.start();

  // 4 distinct scenario cells x 8 clients x 6 requests: every response
  // for a cell must carry the same document bytes, no matter which
  // client ran first or whether it was engine or replay.
  const std::vector<std::string> cells = {
      run_line("components", "gnp:n=48,p=0.15"),
      run_line("components", "gnp:n=48,p=0.15", /*k=*/8),
      run_line("triangles", "gnp:n=48,p=0.15"),
      run_line("sort", "keys:n=256"),
  };
  constexpr int kClients = 8;
  constexpr int kRequests = 6;
  std::vector<std::vector<std::string>> docs(kClients);
  std::atomic<int> failures{0};
  std::latch start(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client(server.socket_path());
      start.arrive_and_wait();
      for (int r = 0; r < kRequests; ++r) {
        const auto response =
            client.request(cells[static_cast<std::size_t>(r) % cells.size()]);
        if (!meta_ok(response.meta)) {
          failures.fetch_add(1);
          continue;
        }
        docs[static_cast<std::size_t>(c)].push_back(response.doc);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(docs[0].size(), static_cast<std::size_t>(kRequests));

  // Same cell -> same bytes, across all clients.
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const std::string& reference = docs[0][cell];
    for (int c = 0; c < kClients; ++c) {
      for (std::size_t r = cell; r < docs[static_cast<std::size_t>(c)].size();
           r += cells.size()) {
        EXPECT_EQ(docs[static_cast<std::size_t>(c)][r], reference)
            << "cell " << cell << " client " << c;
      }
    }
  }
  // 4 distinct cells: at least one engine run each; concurrent first
  // requests for a cell may race extra runs (first writer wins in the
  // store), but every request was either run or replayed.
  const auto counts = service.counters();
  EXPECT_GE(counts.runs, 4u);
  EXPECT_EQ(counts.runs + counts.replays,
            static_cast<std::uint64_t>(kClients * kRequests));
  server.stop();
  server.wait();
}

TEST(ServeSocket, ShutdownOpStopsTheServer) {
  ScenarioService service(ServiceConfig{});
  ServeServer server(service, unique_socket_path());
  server.start();
  {
    ServeClient client(server.socket_path());
    const auto bye = client.request(R"({"op":"shutdown"})");
    EXPECT_TRUE(meta_ok(bye.meta));
  }
  server.wait();  // returns because shutdown stopped the accept loop
  EXPECT_THROW(ServeClient{server.socket_path()}, std::runtime_error);
}

TEST(ServeExecutor, ZeroDepthQueueShedsOverload) {
  ScenarioService service(ServiceConfig{.runners = 1, .queue_depth = 0});
  constexpr int kThreads = 6;
  std::atomic<int> ok{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Request req;
      req.op = Request::Op::kRun;
      req.workload = "components";
      req.dataset = "gnp:n=256,p=0.04";
      req.params.k = 4;
      req.params.seed = 7;
      req.fresh = true;  // force every accepted request through the engine
      start.arrive_and_wait();
      if (service.handle(req).ok) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  const auto c = service.counters();
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(static_cast<std::uint64_t>(ok.load()) + c.shed, kThreads);
  // Shed requests answer with the queue-full error, not silence.
  EXPECT_EQ(c.errors, c.shed);
}

// ---- Determinism extension: served documents vs fresh runs vs goldens ----

TEST(ServeDeterminism, ServedDocMatchesFreshRunModuloExemptKeys) {
  ScenarioService service(ServiceConfig{});
  Request req;
  req.op = Request::Op::kRun;
  req.workload = "mst";
  req.dataset = "gnp:n=64,p=0.08,maxw=1000";
  req.params.k = 4;
  req.params.seed = 7;
  const auto served = service.handle(req);
  ASSERT_TRUE(served.ok) << served.error;

  const Workload* workload = WorkloadRegistry::instance().find("mst");
  ASSERT_NE(workload, nullptr);
  RunParams params;
  params.k = 4;
  params.seed = 7;
  const Dataset dataset =
      load_dataset(req.dataset, workload->input_kind(), params.seed);
  const std::string fresh =
      run_result_to_json(run_workload(*workload, dataset, params), 0);

  EXPECT_TRUE(json_equal_exempt(parse_or_die(served.doc),
                                parse_or_die(fresh)))
      << "served: " << served.doc << "\nfresh: " << fresh;
}

TEST(ServeDeterminism, ServedDocsMatchGoldenSnapshots) {
  // The same cells the golden suite pins: k=4, B=0 (derived), seed=7,
  // timeline on, check on.  Every golden workload must round-trip
  // through the serving plane unchanged (modulo wall-time keys).
  const std::vector<std::pair<std::string, std::string>> cells = {
      {"components", "gnp:n=64,p=0.05"},
      {"mst", "gnp:n=64,p=0.08,maxw=1000"},
      {"pagerank", "gnp:n=64,p=0.05"},
      {"sort", "keys:n=512"},
      {"triangles", "gnp:n=48,p=0.15"},
  };
  ScenarioService service(ServiceConfig{});
  for (const auto& [workload, dataset] : cells) {
    Request req;
    req.op = Request::Op::kRun;
    req.workload = workload;
    req.dataset = dataset;
    req.params.k = 4;
    req.params.seed = 7;
    const auto served = service.handle(req);
    ASSERT_TRUE(served.ok) << workload << ": " << served.error;

    std::ifstream in(std::string(KM_GOLDEN_DIR) + "/" + workload + ".json");
    ASSERT_TRUE(in.good()) << "missing golden for " << workload;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_TRUE(json_equal_exempt(parse_or_die(served.doc),
                                  parse_or_die(golden.str())))
        << workload << " served doc diverges from golden";
  }
}

}  // namespace
}  // namespace km
