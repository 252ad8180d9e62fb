// km_run — scenario runner for the k-machine simulator.
//
// Turns the registered workloads (src/runtime/) into declarative,
// machine-readable experiments:
//
//   km_run list
//       Show every registered workload with its input kind.
//
//   km_run run --workload mst --dataset gnp:n=1000,p=0.01 --k 8
//              [--B 0] [--seed 1] [--timeline true] [--check true]
//              [--json out.json] [--workers 0] [--trace trace.json]
//              [--trace-links]
//       Run one scenario; print a summary line and optionally write the
//       km.run_result/v1 JSON document (--json - writes it to stdout).
//       --trace captures the superstep tracing plane (sim/trace.hpp) and
//       writes a Chrome/Perfetto trace-event file — open it at
//       https://ui.perfetto.dev or chrome://tracing.  --trace-links also
//       records the per-superstep k x k link-bits matrices, written next
//       to the trace as <trace>.links.json.  Tracing never changes
//       rounds/bits accounting.
//
//   km_run sweep --workload mst --dataset gnp:n=1000,p=0.01
//                --k 4,8,16 [--B ...] [--n ...] [--seed 1] [--workers 0]
//                [--out-dir sweep-results] [--timeline true] [--check true]
//       Run the full grid over the comma-separated k/B/n lists and emit
//       one JSON document per cell into --out-dir.  --n overrides the
//       dataset spec's n= parameter, so one spec drives a scaling series.
//
// Exit status: 0 on success, 1 if any reference check failed, 2 on usage
// errors.
#include <cctype>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "runtime/dataset.hpp"
#include "runtime/dataset_cache.hpp"
#include "runtime/results.hpp"
#include "runtime/workload.hpp"
#include "sim/trace.hpp"
#include "util/options.hpp"
#include "util/parse.hpp"

namespace {

using namespace km;

int usage(const char* error) {
  if (error) std::fprintf(stderr, "km_run: %s\n\n", error);
  std::fprintf(stderr,
               "usage:\n"
               "  km_run list\n"
               "  km_run run   --workload W --dataset SPEC [--k 8] [--B 0]\n"
               "               [--seed 1] [--timeline true] [--check true]\n"
               "               [--json PATH|-] [--workers 0]\n"
               "               [--trace PATH] [--trace-links]\n"
               "  km_run sweep --workload W --dataset SPEC --k K1,K2,...\n"
               "               [--B B1,...] [--n N1,...] [--seed 1]\n"
               "               [--workers 0] [--out-dir sweep-results]\n"
               "               [--timeline true] [--check true]\n\n"
               "--workers bounds the executor's OS-thread pool (0 = hardware\n"
               "concurrency); k machines multiplex over it as fibers, so k\n"
               "can far exceed the core count. Metrics identical.\n"
               "--trace writes a Chrome/Perfetto trace-event JSON (open in\n"
               "ui.perfetto.dev); --trace-links adds per-superstep k x k\n"
               "link-bit matrices as <trace>.links.json. Metrics identical.\n\n"
               "%s\n",
               dataset_grammar_help().c_str());
  return 2;
}

/// "4,8,16" -> {4,8,16}; empty/omitted -> {fallback}.
std::vector<std::uint64_t> parse_uint_list(const Options& opts,
                                           const std::string& flag,
                                           std::uint64_t fallback) {
  if (!opts.has(flag)) return {fallback};
  const std::string text = opts.get_string(flag, "");
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    std::uint64_t value = 0;
    if (!parse_strict_uint(item, value)) {
      throw OptionsError(
          "flag --" + flag +
          " expects a comma-separated list of non-negative integers, got '" +
          text + "'");
    }
    out.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

const Workload* find_workload_or_die(const std::string& name) {
  const Workload* workload = WorkloadRegistry::instance().find(name);
  if (!workload) {
    std::string known;
    for (const Workload* w : WorkloadRegistry::instance().list()) {
      known += " " + std::string(w->name());
    }
    throw OptionsError("unknown workload '" + name + "' (registered:" + known +
                       "); see km_run list");
  }
  return workload;
}

int cmd_list() {
  std::printf("%-20s %-18s %s\n", "WORKLOAD", "INPUT", "DESCRIPTION");
  for (const Workload* w : WorkloadRegistry::instance().list()) {
    std::printf("%-20s %-18s %s\n", std::string(w->name()).c_str(),
                std::string(to_string(w->input_kind())).c_str(),
                std::string(w->description()).c_str());
  }
  return 0;
}

RunParams params_from(const Options& opts, std::uint64_t k, std::uint64_t B) {
  RunParams params;
  params.k = static_cast<std::size_t>(k);
  params.bandwidth_bits = B;
  params.seed = opts.get_uint("seed", 1);
  params.record_timeline = opts.get_bool("timeline", true);
  params.check = opts.get_bool("check", true);
  params.workers = static_cast<std::size_t>(opts.get_uint("workers", 0));
  return params;
}

/// "out.json" -> "out.links.json"; extensionless paths just append.
std::string links_path_for(const std::string& trace_path) {
  const std::string suffix = ".json";
  if (trace_path.size() > suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return trace_path.substr(0, trace_path.size() - suffix.size()) +
           ".links.json";
  }
  return trace_path + ".links.json";
}

int cmd_run(const Options& opts) {
  opts.reject_unknown({"workload", "dataset", "k", "B", "seed", "timeline",
                       "check", "json", "trace", "trace-links", "workers"});
  const std::string workload_name = opts.get_string("workload", "");
  const std::string spec_text = opts.get_string("dataset", "");
  if (workload_name.empty()) return usage("run: --workload is required");
  if (spec_text.empty()) return usage("run: --dataset is required");

  const std::string json_path = opts.get_string("json", "");
  if (opts.has("json") && json_path.empty()) {
    throw OptionsError("flag --json is missing its output path (use - for "
                       "stdout)");
  }
  const std::string trace_path = opts.get_string("trace", "");
  if (opts.has("trace") && trace_path.empty()) {
    throw OptionsError("flag --trace is missing its output path");
  }
  const bool trace_links = opts.get_bool("trace-links", false);
  if (trace_links && trace_path.empty()) {
    throw OptionsError("flag --trace-links requires --trace PATH");
  }

  const Workload* workload = find_workload_or_die(workload_name);
  RunParams params =
      params_from(opts, opts.get_uint("k", 8), opts.get_uint("B", 0));
  params.trace = !trace_path.empty();
  params.trace_links = trace_links;
  const auto dataset =
      load_dataset_cached(spec_text, workload->input_kind(), params.seed);
  const RunResult result = run_workload(*workload, *dataset, params);

  std::printf("%s\n", run_result_summary(result).c_str());
  if (json_path == "-") {
    std::printf("%s\n", run_result_to_json(result).c_str());
  } else if (!json_path.empty()) {
    write_run_result_json(json_path, result);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (result.trace) {
    result.trace->write_chrome_trace(
        trace_path, result.workload + " on " + result.dataset_spec);
    std::printf("wrote %s\n", trace_path.c_str());
    if (trace_links) {
      const std::string links_path = links_path_for(trace_path);
      result.trace->write_link_matrix_json(links_path);
      std::printf("wrote %s\n", links_path.c_str());
    }
  }
  return result.check.performed && !result.check.ok ? 1 : 0;
}

/// Spec string reduced to a filename-safe slug: "gnp:n=512,p=0.01" ->
/// "gnp-n512-p0.01".
std::string slug(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_') {
      out.push_back(c);
    } else if (c == ':' || c == ',') {
      out.push_back('-');
    }  // '=' and anything else drop
  }
  return out;
}

int cmd_sweep(const Options& opts) {
  opts.reject_unknown({"workload", "dataset", "k", "B", "n", "seed",
                       "timeline", "check", "out-dir", "workers"});
  const std::string workload_name = opts.get_string("workload", "");
  const std::string spec_text = opts.get_string("dataset", "");
  if (workload_name.empty()) return usage("sweep: --workload is required");
  if (spec_text.empty()) return usage("sweep: --dataset is required");

  const Workload* workload = find_workload_or_die(workload_name);
  const DatasetSpec base_spec = DatasetSpec::parse(spec_text);
  const auto ks = parse_uint_list(opts, "k", 8);
  const auto Bs = parse_uint_list(opts, "B", 0);
  const auto ns = parse_uint_list(opts, "n", 0);  // {0} = spec's own n
  const std::string out_dir = opts.get_string("out-dir", "sweep-results");
  if (out_dir.empty()) {
    throw OptionsError("flag --out-dir is missing its directory value");
  }
  std::filesystem::create_directories(out_dir);

  int failed_checks = 0;
  std::size_t cell = 0;
  const std::size_t cells = ks.size() * Bs.size() * ns.size();
  std::set<std::string> used_names;
  const DatasetCacheCounters cache_before = DatasetCache::instance().counters();
  for (const std::uint64_t n : ns) {
    DatasetSpec spec = base_spec;
    if (n != 0) spec.set("n", std::to_string(n));
    for (const std::uint64_t B : Bs) {
      for (const std::uint64_t k : ks) {
        const RunParams params = params_from(opts, k, B);
        // The dataset depends only on (spec, seed), not on B or k: the
        // process-wide cache materializes each n value once and serves
        // every other grid cell from memory.
        const auto dataset = DatasetCache::instance().get(
            spec, workload->input_kind(), params.seed);
        const RunResult result = run_workload(*workload, *dataset, params);
        std::string name = std::string(workload->name()) + "_" +
                           slug(result.dataset_spec) + "_k" +
                           std::to_string(k);
        if (Bs.size() > 1 || B != 0) {
          name += "_B" + std::to_string(result.params.bandwidth_bits);
        }
        // Two cells can resolve to the same name (duplicate list values,
        // or --B 0 resolving to an explicitly-listed bandwidth);
        // disambiguate instead of silently overwriting the first cell.
        if (!used_names.insert(name).second) {
          name += "_cell" + std::to_string(cell + 1);
          used_names.insert(name);
        }
        const std::string path = out_dir + "/" + name + ".json";
        write_run_result_json(path, result);
        ++cell;
        std::printf("[%zu/%zu] %s -> %s\n", cell, cells,
                    run_result_summary(result).c_str(), path.c_str());
        if (result.check.performed && !result.check.ok) ++failed_checks;
      }
    }
  }
  // One line of cache accounting for the whole grid; the smoke test in
  // tests/sweep_cache_smoke.cmake asserts misses == distinct datasets.
  std::printf(
      "%s\n",
      DatasetCache::instance().counters().since(cache_before).summary().c_str());
  if (failed_checks > 0) {
    std::fprintf(stderr, "km_run sweep: %d cell(s) failed their check\n",
                 failed_checks);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing subcommand");
  const std::string subcommand = argv[1];
  try {
    if (subcommand == "list") return cmd_list();
    const Options opts(argc - 1, argv + 1);
    if (subcommand == "run") return cmd_run(opts);
    if (subcommand == "sweep") return cmd_sweep(opts);
    if (subcommand == "--help" || subcommand == "-h" || subcommand == "help") {
      usage(nullptr);
      return 0;
    }
    return usage(("unknown subcommand '" + subcommand + "'").c_str());
  } catch (const OptionsError& e) {
    return usage(e.what());
  } catch (const DatasetError& e) {
    std::fprintf(stderr, "km_run: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "km_run: %s\n", e.what());
    return 2;
  }
}
