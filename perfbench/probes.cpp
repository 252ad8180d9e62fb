#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "core/detail/sketch_kernels.hpp"
#include "core/sketch.hpp"
#include "graph/pagerank_ref.hpp"
#include "graph/properties.hpp"
#include "graph/triangle_ref.hpp"
#include "graph/weighted.hpp"
#include "runtime/dataset_cache.hpp"
#include "runtime/results.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace kmb {
namespace {

// Results of timed calls land here so the optimizer cannot drop them.
volatile std::size_t g_sink = 0;

double ms_since(double start_s) { return (mono_s() - start_s) * 1e3; }

/// Time of the sequential reference the workload's check runs (the
/// same function on the same input; the comparison itself is cheap).
double reference_check_ms(const std::string& workload, const km::Dataset& ds) {
  const double t = mono_s();
  if (workload == "mst") {
    g_sink = g_sink + km::kruskal_mst(ds.weighted).edges.size();
  } else if (workload == "components" || workload == "connectivity" ||
             workload == "connectivity_baseline") {
    g_sink = g_sink + km::connected_components(ds.graph).size();
  } else if (workload == "triangles") {
    g_sink = g_sink + km::count_triangles(ds.graph);
  } else if (workload == "pagerank") {
    // eps 0.2 is the pagerank workload's reset probability.
    g_sink = g_sink + km::expected_visit_pagerank(ds.digraph, {.eps = 0.2}).size();
  } else if (workload == "sort") {
    std::vector<std::uint64_t> ref = ds.keys;
    std::sort(ref.begin(), ref.end());
    g_sink = g_sink + ref.size();
  } else {
    throw std::runtime_error("no reference check timing for " + workload);
  }
  return ms_since(t);
}

std::vector<Cell> distinct_datasets(const std::vector<Cell>& cells) {
  std::set<std::string> seen;
  std::vector<Cell> out;
  for (const Cell& c : cells) {
    const std::string key =
        km::DatasetCache::canonical_key(km::DatasetSpec::parse(c.dataset),
                                        workload_of(c).input_kind(),
                                        c.dataset_seed);
    if (seen.insert(key).second) out.push_back(c);
  }
  return out;
}

}  // namespace

const km::Workload& workload_of(const Cell& cell) {
  const km::Workload* w = km::WorkloadRegistry::instance().find(cell.workload);
  if (!w) throw std::runtime_error("unknown workload " + cell.workload);
  return *w;
}

km::RunParams run_params(const Cell& cell) {
  km::RunParams p;
  p.k = cell.k;
  p.bandwidth_bits = cell.bandwidth;
  p.seed = cell.seed;
  p.workers = cell.workers;
  p.record_timeline = cell.timeline;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool probe_engine(const std::vector<Cell>& cells, int reps, LayerMetrics& out,
                  std::map<std::string, CellCost>& costs, std::string& error) {
  std::vector<double> wall, outside, us_per_ss, send, deliver, compute,
      partition, check, serialize, doc_kb, supersteps, messages, dropped;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Cell& cell : cells) {
      const km::Workload& w = workload_of(cell);
      const auto ds = km::load_dataset_cached(cell.dataset, w.input_kind(),
                                              cell.dataset_seed);
      // Every workload but sort partitions its vertices this way.
      double partition_ms = 0.0;
      if (ds->kind != km::DatasetKind::kKeys) {
        const double t = mono_s();
        const auto part = km::runtime_partition(ds->n, cell.k, cell.seed);
        g_sink = g_sink + part.k();
        partition_ms = ms_since(t);
        partition.push_back(partition_ms);
      }
      const double check_ms = reference_check_ms(cell.workload, *ds);
      check.push_back(check_ms);
      costs[cell.key()] = {partition_ms, check_ms};

      km::RunParams params = run_params(cell);
      params.trace = true;
      double t = mono_s();
      const km::RunResult r = km::run_workload(w, *ds, params);
      const double run_ms = ms_since(t);
      t = mono_s();
      std::string doc = km::run_result_to_json(r, 0);
      serialize.push_back(ms_since(t));
      doc_kb.push_back(static_cast<double>(doc.size()) / 1024.0);
      Outcome o;
      o.doc = std::move(doc);
      check_document(cell, o);
      if (!o.ok) {
        error = "engine probe " + cell.key() + ": " + o.error;
        return false;
      }

      const km::Metrics& m = r.metrics;
      wall.push_back(m.wall_ms);
      outside.push_back(run_ms - m.wall_ms - partition_ms - check_ms);
      us_per_ss.push_back(m.wall_ms * 1e3 /
                          static_cast<double>(std::max<std::uint64_t>(
                              m.supersteps, 1)));
      supersteps.push_back(static_cast<double>(m.supersteps));
      messages.push_back(static_cast<double>(m.messages));
      double s = 0, d = 0, c = 0;
      for (const km::MachinePhaseMs& pm : m.timing.per_machine) {
        s += pm.send_ms;
        d += pm.deliver_ms;
        c += pm.compute_ms;
      }
      send.push_back(s);
      deliver.push_back(d);
      compute.push_back(c);
      pool_hits += m.pool.hits;
      pool_misses += m.pool.misses;
      dropped.push_back(static_cast<double>(m.payload_pool.dropped));
    }
  }
  out["engine.wall_ms"] = mean(wall);
  out["engine.outside_wall_ms"] = mean(outside);
  out["engine.us_per_superstep"] = mean(us_per_ss);
  out["engine.supersteps"] = mean(supersteps);
  out["engine.messages"] = mean(messages);
  out["engine.send_ms"] = mean(send);
  out["engine.deliver_ms"] = mean(deliver);
  out["engine.compute_ms"] = mean(compute);
  out["pool.hit_ratio"] =
      pool_hits + pool_misses
          ? static_cast<double>(pool_hits) /
                static_cast<double>(pool_hits + pool_misses)
          : 0.0;
  out["payload_pool.dropped"] = mean(dropped);
  out["partition.ms"] = mean(partition);
  out["check.ms"] = mean(check);
  out["results.serialize_ms"] = mean(serialize);
  out["results.doc_kb"] = mean(doc_kb);
  return true;
}

bool probe_huge_k(const Cell& cell, LayerMetrics& out, std::string& error) {
  std::map<std::string, CellCost> costs;
  LayerMetrics warm, huge;
  if (!probe_engine({cell}, 1, warm, costs, error) ||
      !probe_engine({cell}, 3, huge, costs, error)) {
    return false;
  }
  for (const std::string name : {"wall_ms", "outside_wall_ms", "deliver_ms"}) {
    out["hugek." + name] = huge["engine." + name];
  }
  return true;
}

double probe_materialize_ms(const std::vector<Cell>& cells) {
  std::vector<double> samples;
  for (const Cell& c : distinct_datasets(cells)) {
    const km::DatasetKind kind = workload_of(c).input_kind();
    for (int rep = 0; rep < 3; ++rep) {
      const double t = mono_s();
      const km::Dataset ds = km::load_dataset(c.dataset, kind, c.dataset_seed);
      g_sink = g_sink + ds.n;
      samples.push_back(ms_since(t));
    }
  }
  return median(samples);
}

double probe_cache_get_us(const std::vector<Cell>& cells) {
  std::vector<double> samples;
  for (const Cell& c : distinct_datasets(cells)) {
    const km::DatasetKind kind = workload_of(c).input_kind();
    km::load_dataset_cached(c.dataset, kind, c.dataset_seed);  // ensure a hit
    for (int rep = 0; rep < 200; ++rep) {
      const double t = mono_s();
      const auto ds = km::load_dataset_cached(c.dataset, kind, c.dataset_seed);
      samples.push_back(ms_since(t) * 1e3);
      g_sink = g_sink + ds->n;
    }
  }
  return median(samples);
}

void probe_sketch(const Cell& cell, LayerMetrics& out) {
  using km::detail::SketchDispatch;
  const auto ds = km::load_dataset_cached(
      cell.dataset, km::DatasetKind::kUndirected, cell.dataset_seed);
  const km::Graph& g = ds->graph;
  const std::size_t n = g.num_vertices();
  const km::EdgeIdCodec codec(n);
  const km::L0SketchShape shape{.id_bits = codec.id_bits(), .rows = 4,
                                .seed = 3};
  for (const bool scalar : {false, true}) {
    if (scalar) {
      km::detail::force_sketch_dispatch(SketchDispatch::kScalar);
    } else {
      km::detail::reset_sketch_dispatch();
    }
    std::vector<double> add_rate, merge_rate;
    for (int rep = 0; rep < 5; ++rep) {
      double t = mono_s();
      std::vector<km::L0Sketch> parts;
      parts.reserve(n);
      std::size_t arcs = 0;
      for (km::Vertex v = 0; v < n; ++v) {
        km::L0Sketch sketch(shape);
        for (const km::Vertex nb : g.neighbors(v)) {
          sketch.add(codec.encode(v, nb), km::EdgeIdCodec::sign_for(v, nb));
        }
        arcs += g.neighbors(v).size();
        parts.push_back(std::move(sketch));
      }
      add_rate.push_back(static_cast<double>(arcs) / (mono_s() - t));
      t = mono_s();
      km::L0Sketch folded(shape);
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i + 1 < parts.size()) parts[i + 1].prefetch();
        folded.merge(parts[i]);
      }
      g_sink = g_sink + folded.sample().value_or(0);
      merge_rate.push_back(static_cast<double>(parts.size()) / (mono_s() - t));
    }
    const std::string prefix = scalar ? "sketch.scalar." : "sketch.";
    out[prefix + "edge_adds_per_s"] = median(add_rate);
    out[prefix + "merge_sample_per_s"] = median(merge_rate);
  }
  km::detail::reset_sketch_dispatch();
}

double probe_parse_us(const std::vector<Cell>& cells) {
  std::vector<std::string> lines;
  for (const Cell& c : cells) lines.push_back(c.request_line());
  const std::size_t per_batch = std::max<std::size_t>(1, 500 / lines.size());
  std::vector<double> per_call;
  for (int batch = 0; batch < 9; ++batch) {
    const double t = mono_s();
    std::size_t calls = 0;
    for (std::size_t rep = 0; rep < per_batch; ++rep) {
      for (const std::string& line : lines) {
        km::serve::Request req;
        std::string err;
        if (!km::serve::parse_request(line, req, err)) {
          throw std::runtime_error("parse_request rejected " + line + ": " +
                                   err);
        }
        g_sink = g_sink + req.params.k;
        ++calls;
      }
    }
    per_call.push_back(ms_since(t) * 1e3 / static_cast<double>(calls));
  }
  return median(per_call);
}

double probe_store_find_us(const std::vector<Cell>& cells) {
  // find() hands out the stored shared_ptr without reading the document,
  // so a placeholder stands in for each cell's bytes.
  km::serve::ResultStore store;
  std::vector<std::string> keys;
  for (const Cell& c : cells) {
    keys.push_back(km::serve::ResultStore::scenario_key(
        c.workload,
        km::DatasetCache::canonical_key(km::DatasetSpec::parse(c.dataset),
                                        workload_of(c).input_kind(),
                                        c.dataset_seed),
        run_params(c)));
    store.put(keys.back(), "{}");
  }
  const std::size_t per_batch = std::max<std::size_t>(1, 2000 / keys.size());
  std::vector<double> per_call;
  for (int batch = 0; batch < 9; ++batch) {
    const double t = mono_s();
    std::size_t calls = 0;
    for (std::size_t rep = 0; rep < per_batch; ++rep) {
      for (const std::string& key : keys) {
        g_sink = g_sink + (store.find(key) ? 1 : 0);
        ++calls;
      }
    }
    per_call.push_back(ms_since(t) * 1e3 / static_cast<double>(calls));
  }
  return median(per_call);
}

double probe_ping_us(km::serve::ServeClient& client, int n) {
  std::vector<double> samples;
  for (int i = 0; i < n; ++i) {
    const double t = mono_s();
    const km::serve::WireResponse r = client.request("{\"op\":\"ping\"}");
    samples.push_back(ms_since(t) * 1e3);
    g_sink = g_sink + r.doc.size();
  }
  return median(samples);
}

bool probe_serve_in_process(const std::vector<Cell>& cells,
                            const std::string& socket, int replay_rounds,
                            LayerMetrics& out, std::string& error) {
  km::serve::ScenarioService service(km::serve::ServiceConfig{});
  km::serve::ServeServer server(service, socket);
  server.start();
  std::vector<double> engine_ms, replay_us;
  {
    km::serve::ServeClient client(socket);
    for (int round = 0; round <= replay_rounds; ++round) {
      for (const Cell& cell : cells) {
        const double t = mono_s();
        km::serve::WireResponse r = client.request(cell.request_line());
        const double ms = ms_since(t);
        const bool replay = r.meta.find("\"source\":\"result_store\"") !=
                            std::string::npos;
        Outcome o;
        o.doc = std::move(r.doc);
        check_document(cell, o);
        if (!o.ok || replay != (round > 0)) {
          error = "serve probe " + cell.key() + ": " +
                  (o.ok ? "unexpected source in " + r.meta : o.error);
          return false;
        }
        (replay ? replay_us : engine_ms).push_back(replay ? ms * 1e3 : ms);
      }
    }
    out["serve.ping_us"] = probe_ping_us(client, 200);
  }
  server.stop();
  server.wait();
  const km::serve::ResultStoreCounters store = service.result_store().counters();
  out["result_store.hit_ratio"] =
      store.hits + store.misses
          ? static_cast<double>(store.hits) /
                static_cast<double>(store.hits + store.misses)
          : 0.0;
  out["serve.replay_us_p50"] = median(replay_us);
  out["serve.engine_ms_p50"] = median(engine_ms);
  out["service.shed"] = static_cast<double>(service.counters().shed);
  return true;
}

}  // namespace kmb
