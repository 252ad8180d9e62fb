#include "runtime/dataset.hpp"

#include <algorithm>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/lb_graphs.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace km {

namespace {

constexpr std::uint64_t kDatasetSeedStream = 0xDA7A5EEDULL;

std::uint64_t parse_uint_param(const std::string& key,
                               const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse_strict_uint(value, parsed)) {
    throw DatasetError("dataset parameter " + key +
                       " expects a non-negative integer, got '" + value + "'");
  }
  return parsed;
}

double parse_double_param(const std::string& key, const std::string& value) {
  double parsed = 0.0;
  if (!parse_strict_double(value, parsed)) {
    throw DatasetError("dataset parameter " + key +
                       " expects a number, got '" + value + "'");
  }
  return parsed;
}

std::uint64_t require_uint(const DatasetSpec& spec, std::string_view key) {
  if (!spec.has(key)) {
    throw DatasetError("dataset family '" + spec.family +
                       "' requires parameter " + std::string(key) +
                       "= (spec: " + spec.str() + ")");
  }
  return spec.get_uint(key, 0);
}

double require_double(const DatasetSpec& spec, std::string_view key) {
  if (!spec.has(key)) {
    throw DatasetError("dataset family '" + spec.family +
                       "' requires parameter " + std::string(key) +
                       "= (spec: " + spec.str() + ")");
  }
  return spec.get_double(key, 0.0);
}

/// Every graph family accepts maxw= for the weighted conversion.
void check_known_keys(const DatasetSpec& spec,
                      std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : spec.params) {
    if (key == "maxw") continue;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::string msg = "dataset family '" + spec.family +
                        "' does not accept parameter '" + key + "' (accepted:";
      for (const auto k : known) {
        msg += ' ';
        msg += k;
      }
      msg += " maxw)";
      throw DatasetError(msg);
    }
  }
}

}  // namespace

std::string_view to_string(DatasetKind kind) noexcept {
  switch (kind) {
    case DatasetKind::kUndirected: return "undirected_graph";
    case DatasetKind::kDirected: return "directed_graph";
    case DatasetKind::kWeighted: return "weighted_graph";
    case DatasetKind::kKeys: return "keys";
  }
  return "unknown";
}

DatasetSpec DatasetSpec::parse(std::string_view text) {
  DatasetSpec spec;
  const auto colon = text.find(':');
  spec.family = std::string(text.substr(0, colon));
  if (spec.family.empty()) {
    throw DatasetError("dataset spec has no family name: '" +
                       std::string(text) + "'");
  }
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = text.substr(colon + 1);
  // file: takes the raw remainder as the path (paths may contain ',' '=').
  if (spec.family == "file") {
    if (rest.empty()) throw DatasetError("file: spec is missing the path");
    spec.params.emplace_back("path", std::string(rest));
    return spec;
  }
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const auto eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size()) {
      throw DatasetError("dataset spec parameter '" + std::string(item) +
                         "' is not key=value (in '" + std::string(text) + "')");
    }
    spec.set(item.substr(0, eq), std::string(item.substr(eq + 1)));
  }
  return spec;
}

bool DatasetSpec::has(std::string_view key) const {
  return std::any_of(params.begin(), params.end(),
                     [&](const auto& kv) { return kv.first == key; });
}

std::string DatasetSpec::get_string(std::string_view key,
                                    std::string_view fallback) const {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return std::string(fallback);
}

std::uint64_t DatasetSpec::get_uint(std::string_view key,
                                    std::uint64_t fallback) const {
  for (const auto& [k, v] : params) {
    if (k == key) return parse_uint_param(k, v);
  }
  return fallback;
}

double DatasetSpec::get_double(std::string_view key, double fallback) const {
  for (const auto& [k, v] : params) {
    if (k == key) return parse_double_param(k, v);
  }
  return fallback;
}

void DatasetSpec::set(std::string_view key, std::string value) {
  for (auto& [k, v] : params) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  params.emplace_back(std::string(key), std::move(value));
}

std::string DatasetSpec::str() const {
  std::string out = family;
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += params[i].first;
    out += '=';
    out += params[i].second;
  }
  return out;
}

Dataset load_dataset(const DatasetSpec& spec, DatasetKind required,
                     std::uint64_t seed) {
  Rng rng(mix64(seed, kDatasetSeedStream));
  Dataset ds;
  ds.spec = spec.str();

  // ---- Keys (sorting input) ----
  if (spec.family == "keys") {
    if (required != DatasetKind::kKeys) {
      throw DatasetError("dataset 'keys' provides sorting keys, but the "
                         "workload needs a " +
                         std::string(to_string(required)));
    }
    check_known_keys(spec, {"n"});
    const std::uint64_t n = require_uint(spec, "n");
    ds.kind = DatasetKind::kKeys;
    ds.keys.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) ds.keys.push_back(rng.next());
    ds.n = ds.keys.size();
    return ds;
  }
  if (required == DatasetKind::kKeys) {
    throw DatasetError("workload needs sorting keys; use keys:n=.. (got '" +
                       spec.str() + "')");
  }

  // ---- Natively directed families ----
  if (spec.family == "lbpr") {
    if (required != DatasetKind::kDirected) {
      throw DatasetError(
          "lbpr (PageRank lower-bound gadget) is directed, but the workload "
          "needs a " +
          std::string(to_string(required)));
    }
    check_known_keys(spec, {"q"});
    const std::uint64_t q = require_uint(spec, "q");
    if (q == 0) throw DatasetError("lbpr: q must be >= 1");
    PageRankLowerBoundGraph gadget(static_cast<std::size_t>(q), rng);
    ds.kind = DatasetKind::kDirected;
    ds.digraph = gadget.graph();
    ds.n = ds.digraph.num_vertices();
    ds.m = ds.digraph.num_arcs();
    return ds;
  }

  // ---- Undirected families (convertible to directed and weighted) ----
  Graph g;
  if (spec.family == "gnp") {
    check_known_keys(spec, {"n", "p"});
    g = gnp(require_uint(spec, "n"), require_double(spec, "p"), rng);
  } else if (spec.family == "rmat") {
    check_known_keys(spec, {"n", "m", "a", "b", "c"});
    const std::uint64_t n = require_uint(spec, "n");
    g = rmat(n, spec.get_uint("m", 8 * n), rng, spec.get_double("a", 0.57),
             spec.get_double("b", 0.19), spec.get_double("c", 0.19));
  } else if (spec.family == "ba") {
    check_known_keys(spec, {"n", "attach"});
    g = barabasi_albert(require_uint(spec, "n"), spec.get_uint("attach", 3),
                        rng);
  } else if (spec.family == "ws") {
    check_known_keys(spec, {"n", "degree", "beta"});
    g = watts_strogatz(require_uint(spec, "n"), spec.get_uint("degree", 8),
                       spec.get_double("beta", 0.2), rng);
  } else if (spec.family == "star") {
    check_known_keys(spec, {"n"});
    g = star_graph(require_uint(spec, "n"));
  } else if (spec.family == "path") {
    check_known_keys(spec, {"n"});
    g = path_graph(require_uint(spec, "n"));
  } else if (spec.family == "cycle") {
    check_known_keys(spec, {"n"});
    g = cycle_graph(require_uint(spec, "n"));
  } else if (spec.family == "complete") {
    check_known_keys(spec, {"n"});
    g = complete_graph(require_uint(spec, "n"));
  } else if (spec.family == "grid") {
    check_known_keys(spec, {"rows", "cols"});
    g = grid_graph(require_uint(spec, "rows"), require_uint(spec, "cols"));
  } else if (spec.family == "bipartite") {
    check_known_keys(spec, {"a", "b", "p"});
    g = random_bipartite(require_uint(spec, "a"), require_uint(spec, "b"),
                         require_double(spec, "p"), rng);
  } else if (spec.family == "file") {
    const std::string path = spec.get_string("path", "");
    if (path.empty()) throw DatasetError("file: spec is missing the path");
    try {
      g = read_edge_list_file(path);
    } catch (const DatasetError&) {
      throw;
    } catch (const std::exception& e) {
      // The IO layer's message already carries path:line: token context;
      // re-type it so callers see every loader failure as a DatasetError.
      throw DatasetError(std::string("file: dataset failed to load: ") +
                         e.what());
    }
  } else {
    throw DatasetError(
        "unknown dataset family '" + spec.family + "'\n" +
        dataset_grammar_help());
  }

  switch (required) {
    case DatasetKind::kUndirected:
      ds.kind = DatasetKind::kUndirected;
      ds.n = g.num_vertices();
      ds.m = g.num_edges();
      ds.graph = std::move(g);
      return ds;
    case DatasetKind::kDirected:
      ds.kind = DatasetKind::kDirected;
      ds.digraph = Digraph::from_undirected(g);
      ds.n = ds.digraph.num_vertices();
      ds.m = ds.digraph.num_arcs();
      return ds;
    case DatasetKind::kWeighted: {
      const std::uint64_t maxw = spec.get_uint("maxw", 1'000'000);
      if (maxw == 0) throw DatasetError("maxw must be >= 1");
      ds.kind = DatasetKind::kWeighted;
      ds.weighted = WeightedGraph::randomize_weights(g, maxw, rng);
      ds.n = ds.weighted.num_vertices();
      ds.m = ds.weighted.num_edges();
      return ds;
    }
    case DatasetKind::kKeys: break;  // handled above
  }
  throw DatasetError("unsupported dataset kind");
}

Dataset load_dataset(std::string_view spec_text, DatasetKind required,
                     std::uint64_t seed) {
  return load_dataset(DatasetSpec::parse(spec_text), required, seed);
}

std::string dataset_grammar_help() {
  return
      "dataset spec grammar: family[:key=value[,key=value...]]\n"
      "  gnp:n=..,p=..                Erdos-Renyi G(n,p)\n"
      "  rmat:n=..[,m=..,a=..,b=..,c=..]  R-MAT, Graph500 mix defaults\n"
      "  ba:n=..[,attach=..]          Barabasi-Albert preferential attachment\n"
      "  ws:n=..[,degree=..,beta=..]  Watts-Strogatz small world\n"
      "  star:n=..                    star (congestion hot spot)\n"
      "  path:n=.. | cycle:n=.. | complete:n=..   structured graphs\n"
      "  grid:rows=..,cols=..         2-D grid\n"
      "  bipartite:a=..,b=..,p=..     random bipartite (triangle-free)\n"
      "  lbpr:q=..                    PageRank lower-bound gadget (directed)\n"
      "  keys:n=..                    uniform 64-bit sorting keys\n"
      "  file:PATH                    SNAP-style edge list from disk\n"
      "graph families also accept maxw=.. (random edge weights, weighted "
      "workloads only)";
}

}  // namespace km
