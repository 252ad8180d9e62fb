// Experiment E12 (Section 1.3): MST in the k-machine model.
//
// Paper claim: the General Lower Bound Theorem yields Omega~(n/Bk^2)
// rounds for MST on a complete graph with random edge weights — "shown
// directly" where [33] needed communication-complexity machinery — and
// the bound is tight by [51].  We run the proxy-based Boruvka
// implementation on that exact input family and on sparse graphs, and
// print measured rounds next to the theorem's curve.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/mst.hpp"
#include "graph/generators.hpp"

namespace {

using namespace km;

constexpr std::uint64_t kBandwidth = 256;

void BM_MstCompleteRandom(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t n = 400;
  static const WeightedGraph g = [] {
    Rng rng(909);
    return WeightedGraph::complete_random(n, 1u << 20, rng);
  }();
  Metrics metrics;
  std::size_t phases = 0;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = kBandwidth, .seed = 19});
    Rng prng(20 + k);
    const auto part = VertexPartition::random(n, k, prng);
    const auto res = distributed_mst(g, part, engine);
    metrics = res.metrics;
    phases = res.phases;
  }
  const auto lb = mst_lower_bound(n, k, kBandwidth);
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  state.counters["phases"] = static_cast<double>(phases);
  state.counters["lb_rounds"] = lb.rounds();
  auto& t = bench::SeriesTable::instance();
  t.add("mst/complete-random/measured (rounds)", static_cast<double>(k),
        static_cast<double>(metrics.rounds));
  t.add("mst/complete-random/LB (rounds)", static_cast<double>(k),
        lb.rounds());
}
BENCHMARK(BM_MstCompleteRandom)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MstSparse(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t n = 3000;
  static const WeightedGraph g = [] {
    Rng rng(910);
    return WeightedGraph::randomize_weights(gnp(n, 6.0 / n, rng), 1u << 20,
                                            rng);
  }();
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = kBandwidth, .seed = 21});
    Rng prng(22 + k);
    const auto part = VertexPartition::random(n, k, prng);
    metrics = distributed_mst(g, part, engine).metrics;
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  bench::SeriesTable::instance().add("mst/sparse-gnp/measured (rounds)",
                                     static_cast<double>(k),
                                     static_cast<double>(metrics.rounds));
}
BENCHMARK(BM_MstSparse)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

struct RegisterExpectations {
  RegisterExpectations() {
    auto& t = bench::SeriesTable::instance();
    // The paper's bound is Theta~(n/k^2) (tight via [51]'s sketch-based
    // algorithm).  Our simplified Boruvka pays O~(n/k) per phase for
    // fragment-label pushes plus a per-phase superstep floor, so its
    // finite-size slope is shallower than the bound's.
    t.expect_slope("mst/complete-random/measured (rounds)", -2.0);
    t.expect_slope("mst/complete-random/LB (rounds)", -2.0);
    t.expect_slope("mst/sparse-gnp/measured (rounds)", -2.0);
  }
} register_expectations;

}  // namespace

KM_BENCH_MAIN("k machines")
