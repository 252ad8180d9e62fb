// Sketch-based connectivity: round complexity and local-kernel
// throughput.
//
// Paper claim (Section 1.3 / [51]): connectivity runs in Õ(n/k²)
// rounds using linear graph sketches — *independent of m* — against
// the Ω̃(n/k²) General Lower Bound and the trivial Õ(n/k)
// centralization baseline.  This bench prints measured rounds for the
// sketch algorithm next to the baseline over the k-grid (the fitted
// slopes land around -1.3 vs -0.85 at bench scale — n=1024, k up to
// 16, where the per-superstep floors bite hardest — and clear -1.5 at
// the n=4096 grid test_round_bounds.cpp pins; that file explains the
// finite-size gap to the -2 asymptote), plus the edge-density series
// where the separation is starkest, and the raw build/merge/sample
// throughput of the ℓ₀ machinery itself, once per dispatch path
// (simd:0 forces the scalar kernels, simd:1 the AVX2 ones) so the
// vectorization win is a measured ratio, not an assumption.
// scripts/check_sketch_slope.py re-fits the rounds-vs-k slopes from
// this binary's JSON output and gates CI's bench-quick job on them.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/connectivity.hpp"
#include "core/detail/sketch_kernels.hpp"
#include "core/sketch.hpp"
#include "graph/generators.hpp"

namespace {

using namespace km;

constexpr std::uint64_t kBandwidth = 512;

const Graph& sparse_graph(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Rng rng(1200 + n);
  return cache.emplace(n, gnp(n, 8.0 / static_cast<double>(n), rng))
      .first->second;
}

void BM_SketchConnectivityRounds(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t n = 1024;
  const Graph& g = sparse_graph(n);
  Metrics metrics;
  std::size_t phases = 0;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = kBandwidth, .seed = 19});
    const auto part = VertexPartition::by_hash(n, k, 42);
    const auto res = sketch_connectivity(g, part, engine, 23);
    metrics = res.metrics;
    phases = res.phases;
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  state.counters["phases"] = static_cast<double>(phases);
  bench::SeriesTable::instance().add("connectivity/sketch (rounds)",
                                     static_cast<double>(k),
                                     static_cast<double>(metrics.rounds));
}
BENCHMARK(BM_SketchConnectivityRounds)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_BaselineConnectivityRounds(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t n = 1024;
  const Graph& g = sparse_graph(n);
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = kBandwidth, .seed = 19});
    const auto part = VertexPartition::by_hash(n, k, 42);
    metrics = centralized_connectivity_baseline(g, part, engine).metrics;
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  bench::SeriesTable::instance().add("connectivity/baseline (rounds)",
                                     static_cast<double>(k),
                                     static_cast<double>(metrics.rounds));
}
BENCHMARK(BM_BaselineConnectivityRounds)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Edge-density series: rounds vs m at fixed n, k.  The sketch curve is
// flat (communication is a function of n), the baseline pays per edge.
void BM_DensitySeries(benchmark::State& state) {
  const double p = static_cast<double>(state.range(0)) / 1000.0;
  constexpr std::size_t n = 512;
  constexpr std::size_t k = 8;
  Rng rng(77);
  const Graph g = gnp(n, p, rng);
  Metrics sketch, base;
  for (auto _ : state) {
    Engine engine(k, {.bandwidth_bits = kBandwidth, .seed = 5});
    const auto part = VertexPartition::by_hash(n, k, 42);
    sketch = sketch_connectivity(g, part, engine, 29).metrics;
    Engine engine2(k, {.bandwidth_bits = kBandwidth, .seed = 5});
    base = centralized_connectivity_baseline(g, part, engine2).metrics;
  }
  const auto m = static_cast<double>(g.num_edges());
  state.counters["m"] = m;
  state.counters["sketch_rounds"] = static_cast<double>(sketch.rounds);
  state.counters["baseline_rounds"] = static_cast<double>(base.rounds);
  auto& t = bench::SeriesTable::instance();
  t.add("connectivity/sketch vs m (rounds)", m,
        static_cast<double>(sketch.rounds));
  t.add("connectivity/baseline vs m (rounds)", m,
        static_cast<double>(base.rounds));
}
BENCHMARK(BM_DensitySeries)->Arg(8)->Arg(30)->Arg(120)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- Local kernels: the per-phase CPU cost of the sketch machinery ----
//
// Both throughput benches run once per runtime dispatch path: simd:0
// pins the scalar kernels, simd:1 the AVX2 ones (skipped where the CPU
// lacks them).  The paths are bit-identical by construction
// (tests/test_sketch_simd.cpp), so the only thing that may differ here
// is the rate.  Note GCC auto-vectorizes the "scalar" path with SSE2,
// so the measured AVX2 ratio understates the gap to naive per-cell
// code.

bool force_dispatch_or_skip(benchmark::State& state, std::int64_t arg) {
  const auto path = static_cast<detail::SketchDispatch>(arg);
  if (!detail::sketch_dispatch_supported(path)) {
    state.SkipWithError("dispatch path unsupported on this CPU");
    return false;
  }
  detail::force_sketch_dispatch(path);
  return true;
}

void BM_SketchBuildThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  if (!force_dispatch_or_skip(state, state.range(1))) return;
  const Graph& g = sparse_graph(n);
  const EdgeIdCodec codec(n);
  const L0SketchShape shape{.id_bits = codec.id_bits(), .rows = 4, .seed = 3};
  std::size_t arcs = 0;
  for (auto _ : state) {
    for (Vertex v = 0; v < n; ++v) {
      L0Sketch sketch(shape);
      for (const Vertex nb : g.neighbors(v)) {
        sketch.add(codec.encode(v, nb), EdgeIdCodec::sign_for(v, nb));
      }
      benchmark::DoNotOptimize(sketch);
      arcs += g.neighbors(v).size();
    }
  }
  state.counters["edge_adds/s"] = benchmark::Counter(
      static_cast<double>(arcs), benchmark::Counter::kIsRate);
  detail::reset_sketch_dispatch();
}
BENCHMARK(BM_SketchBuildThroughput)
    ->ArgNames({"n", "simd"})
    ->ArgsProduct({{1024, 4096}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_SketchMergeSampleThroughput(benchmark::State& state) {
  constexpr std::size_t n = 1024;
  if (!force_dispatch_or_skip(state, state.range(0))) return;
  const Graph& g = sparse_graph(n);
  const EdgeIdCodec codec(n);
  const L0SketchShape shape{.id_bits = codec.id_bits(), .rows = 4, .seed = 5};
  std::vector<L0Sketch> parts;
  parts.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    L0Sketch sketch(shape);
    for (const Vertex nb : g.neighbors(v)) {
      sketch.add(codec.encode(v, nb), EdgeIdCodec::sign_for(v, nb));
    }
    parts.push_back(std::move(sketch));
  }
  std::size_t merges = 0;
  for (auto _ : state) {
    L0Sketch folded(shape);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i + 1 < parts.size()) parts[i + 1].prefetch();
      folded.merge(parts[i]);
    }
    auto sample = folded.sample();
    benchmark::DoNotOptimize(sample);
    merges += parts.size();
  }
  state.counters["merges/s"] = benchmark::Counter(
      static_cast<double>(merges), benchmark::Counter::kIsRate);
  detail::reset_sketch_dispatch();
}
BENCHMARK(BM_SketchMergeSampleThroughput)
    ->ArgNames({"simd"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

struct RegisterExpectations {
  RegisterExpectations() {
    auto& t = bench::SeriesTable::instance();
    t.expect_slope("connectivity/sketch (rounds)", -2.0);
    t.expect_slope("connectivity/baseline (rounds)", -1.0);
    t.expect_slope("connectivity/sketch vs m (rounds)", 0.0);
    t.expect_slope("connectivity/baseline vs m (rounds)", 1.0);
  }
} register_expectations;

}  // namespace

KM_BENCH_MAIN("k machines")
