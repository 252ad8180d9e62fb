// km_serve — long-running scenario service for the k-machine simulator.
//
// Keeps datasets and finished result documents resident between
// requests, killing the cold-start tax `km_run` pays on every
// invocation: the first request for a scenario cell runs the engine,
// every repeat is a byte-identical replay from the result store, and
// distinct cells over the same dataset share one materialization
// through the process-wide dataset cache.
//
//   km_serve serve --socket /tmp/km_serve.sock [--runners 1]
//                  [--queue-depth 16] [--dataset-cache-mb 256]
//                  [--result-store-mb 64]
//       Run the daemon (foreground) until a shutdown request.
//
//   km_serve request --socket PATH --workload W --dataset SPEC [--k 8]
//                    [--B 0] [--seed 1] [--workers 0] [--check true]
//                    [--timeline true] [--fresh] [--meta] [--repeat 1]
//       Send one scenario request; print the km.run_result/v1 document
//       (one line).  --meta prints the response meta line first —
//       its "source" field says "engine" or "result_store".
//       --fresh bypasses the result store.  --repeat N sends the same
//       request N times over one connection, requires every response to
//       be byte-identical, and prints the document once — made for
//       timing replay throughput from a shell.
//
//   km_serve stats --socket PATH     Print the km.serve_stats/v1 document.
//   km_serve ping --socket PATH      Liveness check.
//   km_serve shutdown --socket PATH  Stop the daemon.
//
// Exit status: 0 on success, 1 when the server answered with an error
// (including a failed reference check surfacing as status=error), 2 on
// usage or connection errors.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "runtime/dataset.hpp"
#include "runtime/workload.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace {

using namespace km;
using namespace km::serve;

int usage(const char* error) {
  if (error) std::fprintf(stderr, "km_serve: %s\n\n", error);
  std::fprintf(stderr,
               "usage:\n"
               "  km_serve serve    --socket PATH [--runners 1]\n"
               "                    [--queue-depth 16]\n"
               "                    [--dataset-cache-mb 256]\n"
               "                    [--result-store-mb 64]\n"
               "  km_serve request  --socket PATH --workload W --dataset SPEC\n"
               "                    [--k 8] [--B 0] [--seed 1]\n"
               "                    [--workers 0] [--check true]\n"
               "                    [--timeline true] [--fresh] [--meta]\n"
               "                    [--repeat 1]\n"
               "  km_serve stats    --socket PATH\n"
               "  km_serve ping     --socket PATH\n"
               "  km_serve shutdown --socket PATH\n\n"
               "The daemon caches datasets across requests and replays\n"
               "byte-identical result documents for repeated scenario\n"
               "cells; `request --meta` shows which path served you.\n\n"
               "%s\n",
               dataset_grammar_help().c_str());
  return 2;
}

std::string require_socket(const Options& opts) {
  const std::string path = opts.get_string("socket", "");
  if (path.empty()) throw OptionsError("--socket PATH is required");
  return path;
}

int cmd_serve(const Options& opts) {
  opts.reject_unknown({"socket", "runners", "queue-depth", "dataset-cache-mb",
                       "result-store-mb"});
  ServiceConfig config;
  config.runners = static_cast<std::size_t>(opts.get_uint("runners", 1));
  config.queue_depth =
      static_cast<std::size_t>(opts.get_uint("queue-depth", 16));
  config.dataset_cache_bytes =
      static_cast<std::size_t>(opts.get_uint("dataset-cache-mb", 256)) << 20;
  config.result_store_bytes =
      static_cast<std::size_t>(opts.get_uint("result-store-mb", 64)) << 20;

  ScenarioService service(config);
  ServeServer server(service, require_socket(opts));
  std::printf("km_serve: listening on %s (runners=%zu queue-depth=%zu)\n",
              server.socket_path().c_str(), config.runners,
              config.queue_depth);
  std::fflush(stdout);
  server.start();
  server.wait();
  // Final accounting for logs/CI: one line per cache, one for traffic.
  const ServiceCounters c = service.counters();
  std::printf("km_serve: served requests=%llu runs=%llu replays=%llu "
              "errors=%llu shed=%llu\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.runs),
              static_cast<unsigned long long>(c.replays),
              static_cast<unsigned long long>(c.errors),
              static_cast<unsigned long long>(c.shed));
  std::printf("km_serve: %s\n",
              service.result_store().counters().summary().c_str());
  std::printf("km_serve: %s\n",
              DatasetCache::instance().counters().summary().c_str());
  return 0;
}

/// Sends `line` `repeat` times over one connection, prints the payload
/// once (and the last meta with --meta); exit code from the meta line's
/// status.  Repeats must replay byte-identical documents.
int roundtrip(const Options& opts, const std::string& line, bool print_meta,
              std::uint64_t repeat = 1) {
  ServeClient client(require_socket(opts));
  WireResponse response = client.request(line);
  for (std::uint64_t i = 1; i < repeat; ++i) {
    const WireResponse again = client.request(line);
    if (again.doc != response.doc) {
      std::fprintf(stderr,
                   "km_serve: repeat %llu returned different bytes\n",
                   static_cast<unsigned long long>(i));
      return 1;
    }
    response = again;
  }
  if (print_meta) std::printf("%s\n", response.meta.c_str());
  std::printf("%s\n", response.doc.c_str());
  // The meta line is compact JSON with fixed key order; a substring
  // check is enough to classify without re-parsing.
  return response.meta.find("\"status\":\"ok\"") != std::string::npos ? 0 : 1;
}

int cmd_request(const Options& opts) {
  opts.reject_unknown({"socket", "workload", "dataset", "k", "B", "seed",
                       "workers", "check", "timeline", "fresh", "meta",
                       "repeat"});
  const std::string workload = opts.get_string("workload", "");
  const std::string dataset = opts.get_string("dataset", "");
  if (workload.empty()) return usage("request: --workload is required");
  if (dataset.empty()) return usage("request: --dataset is required");

  JsonWriter w(0);
  w.begin_object();
  w.field("op", "run");
  w.field("workload", workload);
  w.field("dataset", dataset);
  w.field("k", opts.get_uint("k", 8));
  w.field("bandwidth", opts.get_uint("B", 0));
  w.field("seed", opts.get_uint("seed", 1));
  w.field("workers", opts.get_uint("workers", 0));
  w.field("check", opts.get_bool("check", true));
  w.field("timeline", opts.get_bool("timeline", true));
  w.field("fresh", opts.get_bool("fresh", false));
  w.end_object();
  return roundtrip(opts, w.str(), opts.get_bool("meta", false),
                   std::max<std::uint64_t>(opts.get_uint("repeat", 1), 1));
}

int cmd_simple(const Options& opts, const char* op) {
  opts.reject_unknown({"socket", "meta"});
  return roundtrip(opts, std::string("{\"op\":\"") + op + "\"}",
                   opts.get_bool("meta", false));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing subcommand");
  const std::string subcommand = argv[1];
  try {
    const Options opts(argc - 1, argv + 1);
    if (subcommand == "serve") return cmd_serve(opts);
    if (subcommand == "request") return cmd_request(opts);
    if (subcommand == "stats") return cmd_simple(opts, "stats");
    if (subcommand == "ping") return cmd_simple(opts, "ping");
    if (subcommand == "shutdown") return cmd_simple(opts, "shutdown");
    if (subcommand == "--help" || subcommand == "-h" || subcommand == "help") {
      usage(nullptr);
      return 0;
    }
    return usage(("unknown subcommand '" + subcommand + "'").c_str());
  } catch (const OptionsError& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "km_serve: %s\n", e.what());
    return 2;
  }
}
