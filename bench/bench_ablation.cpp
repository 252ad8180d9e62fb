// Experiment E14: ablations of the algorithms' main design choices.
//
//  1. PageRank heavy-vertex path on/off (the core of Algorithm 1 vs the
//     naive baseline) on the star hot spot;
//  2. PageRank termination-check interval (how often the termination
//     sum adds its charges to a token superstep vs how many trailing
//     token-free iterations run);
//  3. Triangle designation threshold: the paper's high-degree rule vs
//     forcing everyone low (pure hash tie-break) vs everyone high, on a
//     skewed Barabasi-Albert graph — the rule exists to spread a hub's
//     designation load over its neighbors' machines.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/pagerank.hpp"
#include "core/triangles.hpp"
#include "graph/generators.hpp"

namespace {

using namespace km;

void BM_HeavyPathOnOff(benchmark::State& state) {
  const bool heavy_on = state.range(0) != 0;
  static const Digraph g = Digraph::from_undirected(star_graph(6000));
  constexpr std::size_t k = 64;
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = 64, .seed = 31});
    Rng prng(32);
    const auto part = VertexPartition::random(g.num_vertices(), k, prng);
    const PageRankConfig cfg{.eps = 0.2, .c = 4.0};
    metrics = (heavy_on ? distributed_pagerank(g, part, engine, cfg)
                        : distributed_pagerank_baseline(g, part, engine, cfg))
                  .metrics;
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  bench::SeriesTable::instance().add(
      heavy_on ? "ablation/pagerank heavy path ON (rounds)"
               : "ablation/pagerank heavy path OFF (rounds)",
      1.0, static_cast<double>(metrics.rounds));
}
BENCHMARK(BM_HeavyPathOnOff)->Arg(1)->Arg(0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_TerminationInterval(benchmark::State& state) {
  const auto interval = static_cast<std::size_t>(state.range(0));
  static const Digraph g = [] {
    Rng rng(33);
    return Digraph::from_undirected(gnp(2000, 0.005, rng));
  }();
  constexpr std::size_t k = 32;
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = 64, .seed = 34});
    Rng prng(35);
    const auto part = VertexPartition::random(g.num_vertices(), k, prng);
    PageRankConfig cfg{.eps = 0.2, .c = 4.0};
    cfg.termination_check_interval = interval;
    metrics = distributed_pagerank(g, part, engine, cfg).metrics;
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  bench::SeriesTable::instance().add(
      "ablation/pagerank termination interval (rounds)",
      static_cast<double>(interval), static_cast<double>(metrics.rounds));
}
BENCHMARK(BM_TerminationInterval)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_DesignationThreshold(benchmark::State& state) {
  // 0 = everyone "high" (neighbors designate hub edges),
  // 1 = the paper's 2 k log n rule,
  // 2 = threshold infinity (everyone "low": pure hash tie-break, a hub's
  //     home machine designates ~half its incident edges itself).
  const int mode = static_cast<int>(state.range(0));
  static const Graph g = [] {
    Rng rng(36);
    return barabasi_albert(20000, 8, rng);
  }();
  constexpr std::size_t k = 64;
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = 64, .seed = 37});
    Rng prng(38);
    const auto part = VertexPartition::random(g.num_vertices(), k, prng);
    TriangleConfig cfg;
    cfg.record_triples = false;
    cfg.degree_threshold_factor =
        mode == 0 ? 0.0 : (mode == 1 ? 2.0 : 1e18);
    metrics = distributed_triangles(g, part, engine, cfg).metrics;
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  state.counters["max_send_bits"] = static_cast<double>(metrics.max_send_bits());
  const char* name = mode == 0   ? "ablation/triangles all-high (rounds)"
                     : mode == 1 ? "ablation/triangles paper rule (rounds)"
                                 : "ablation/triangles all-low (rounds)";
  bench::SeriesTable::instance().add(name, 1.0,
                                     static_cast<double>(metrics.rounds));
}
BENCHMARK(BM_DesignationThreshold)->Arg(0)->Arg(1)->Arg(2)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

KM_BENCH_MAIN("ablation parameter")
