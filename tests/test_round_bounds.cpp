// Round-complexity regression harness: turns the paper's asymptotic
// separation — sketch connectivity in Õ(n/k²) rounds versus the Õ(n/k)
// centralized baseline — into permanent assertions over measured
// Metrics::rounds from real engine runs.
//
// Measurement reality at test scale: the whp analysis hides polylog
// factors that do not vanish at small n.  Two effects flatten the
// sketch curve towards the high-k end: (a) every superstep with any
// traffic costs at least one round, and a phase is five supersteps, so
// k where per-link payloads approach B pays a fixed floor the
// asymptote ignores, and (b) cell-granularity load balancing leaves a
// residual ~1.2x binomial max-over-links factor that shrinks only as
// per-link cell counts grow.  Both effects amortize with n, so the
// exponent fit runs over k ∈ {2, 4, 8} at n = 4096 — where the sketch
// payload dominates the floors at B = 512 and the fitted slope clears
// the paper's -2 target minus finite-scale slack — and asserts the
// exponent alongside an absolute envelope c·(n/k²)·log³n that the
// pre-aggregation regression (per-vertex sketch shipping, Θ(n/k) per
// link) demonstrably violates.  The cleanest finite-scale separation
// is edge-density independence: sketch rounds are a function of n (up
// to the log-factor below), baseline rounds scale with m.  Next to the
// fitted exponents, one dense cell pins the crossover itself: the
// sketch algorithm must lose to the baseline at small k and win at a
// larger k, so its advantage is shown at a concrete (n, m, k), not only
// through a slope.
//
// All runs are deterministic (fixed seeds, hash-based randomness), so
// every asserted number is stable across platforms and schedulers.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/dataset.hpp"
#include "runtime/workload.hpp"
#include "util/mathx.hpp"

namespace km {
namespace {

constexpr std::uint64_t kBandwidth = 512;  // fixed B: clean scaling fits
constexpr std::uint64_t kSeed = 3;

/// Deterministic run cache: grid cells are shared between fits.
std::uint64_t measured_rounds(const std::string& workload_name,
                              const std::string& spec, std::size_t k) {
  using Key = std::tuple<std::string, std::string, std::size_t>;
  static std::map<Key, std::uint64_t> cache;
  const Key key{workload_name, spec, k};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const Workload* workload = WorkloadRegistry::instance().find(workload_name);
  if (workload == nullptr) throw std::logic_error("unknown workload");
  RunParams params;
  params.k = k;
  params.bandwidth_bits = kBandwidth;
  params.seed = kSeed;
  params.record_timeline = false;
  params.check = false;  // correctness grids live in test_sketch.cpp
  const Dataset dataset = load_dataset(spec, workload->input_kind(), kSeed);
  const RunResult result = run_workload(*workload, dataset, params);
  cache[key] = result.metrics.rounds;
  return result.metrics.rounds;
}

/// Sparse G(n, p) with expected average degree 8: m = Θ(n), so n-scaling
/// fits are not polluted by a changing m/n ratio.
std::string sparse_spec(std::size_t n) {
  return "gnp:n=" + std::to_string(n) + ",p=" +
         std::to_string(8.0 / static_cast<double>(n));
}

double fitted_k_slope(const std::string& workload_name, std::size_t n,
                      const std::vector<std::size_t>& ks) {
  std::vector<double> xs, ys;
  for (const std::size_t k : ks) {
    xs.push_back(static_cast<double>(k));
    ys.push_back(static_cast<double>(
        measured_rounds(workload_name, sparse_spec(n), k)));
  }
  return fit_log_log_slope(xs, ys);
}

TEST(RoundBounds, SketchConnectivityRoundsScaleLikeNOverKSquared) {
  // Measured ≈ -1.57 on the pinned grid (the -2 asymptote minus the
  // finite-scale floor and balance effects documented above) after the
  // phase-batched five-superstep protocol with sliced cell-granularity
  // aggregation landed; the pre-slicing protocol sat at ≈ -1.3 and a
  // regression to per-link Θ(n/k) drags the fit towards -1.  The runs
  // are fully deterministic, so the 0.07 margin is stable.
  const double slope = fitted_k_slope("connectivity", 4096, {2, 4, 8});
  EXPECT_LE(slope, -1.5) << "sketch connectivity lost its k^-2 scaling";
  EXPECT_GE(slope, -2.5) << "suspiciously steep: measurement broken?";
}

TEST(RoundBounds, BaselineRoundsScaleLikeNOverK) {
  const double slope =
      fitted_k_slope("connectivity_baseline", 1024, {2, 4, 8});
  EXPECT_LE(slope, -0.6) << "baseline stopped scaling down with k";
  EXPECT_GE(slope, -1.25) << "baseline scales better than its n/k design";
}

TEST(RoundBounds, SketchBeatsBaselineExponentBySeparatedMargin) {
  // Measured ≈ -1.57 vs ≈ -0.91 at n = 4096: a 0.66 exponent gap, more
  // than twice the asserted separation.
  const double sketch = fitted_k_slope("connectivity", 4096, {2, 4, 8});
  const double baseline =
      fitted_k_slope("connectivity_baseline", 4096, {2, 4, 8});
  EXPECT_LE(sketch, baseline - 0.3)
      << "the paper's k^-2 vs k^-1 separation collapsed: sketch " << sketch
      << " vs baseline " << baseline;
}

TEST(RoundBounds, SketchCrossesBelowBaselineAtPinnedDenseCell) {
  // m ≈ 26k edges on n = 1024.  Measured at B = 512, seed 3: k = 16
  // gives 160 sketch vs 195 baseline rounds, k = 4 gives 904 vs 595.
  // The sketch's per-link load shrinks by k² against the baseline's k,
  // so its polylog(n) sketch size only pays off once k is large enough.
  const std::string dense = "gnp:n=1024,p=0.05";
  EXPECT_LT(measured_rounds("connectivity", dense, 16),
            measured_rounds("connectivity_baseline", dense, 16))
      << "sketch connectivity no longer beats the baseline at k = 16";
  EXPECT_GT(measured_rounds("connectivity", dense, 4),
            measured_rounds("connectivity_baseline", dense, 4))
      << "sketch wins at k = 4 too: re-pin the crossover cell";
}

TEST(RoundBounds, RoundsGrowRoughlyLinearlyInN) {
  for (const char* workload : {"connectivity", "connectivity_baseline"}) {
    std::vector<double> xs, ys;
    for (const std::size_t n : {256u, 512u, 1024u}) {
      xs.push_back(static_cast<double>(n));
      ys.push_back(
          static_cast<double>(measured_rounds(workload, sparse_spec(n), 8)));
    }
    const double slope = fit_log_log_slope(xs, ys);
    EXPECT_GE(slope, 0.6) << workload << " rounds sublinear in n?";
    EXPECT_LE(slope, 1.6) << workload
                          << " rounds superlinear in n (polylog blowup?)";
  }
}

TEST(RoundBounds, SketchRoundsFitTheUpperBoundEnvelope) {
  // rounds <= c1 * (n/k^2) * log2(n)^3 + c2 * log2(n)^2, calibrated with
  // 3-10x headroom over the measured grid.  The pre-aggregation
  // regression (one sketch per vertex to the proxy) lands 1.4-2.8x
  // *above* this envelope at k >= 8, so the bound is tight enough to
  // catch a real Θ(n/k) relapse while loose enough for seed wiggle.
  constexpr double c1 = 1.0;
  constexpr double c2 = 10.0;
  for (const std::size_t n : {256u, 512u, 1024u}) {
    const double logn = static_cast<double>(ceil_log2(n));
    for (const std::size_t k : {2u, 4u, 8u, 16u}) {
      const auto rounds = static_cast<double>(
          measured_rounds("connectivity", sparse_spec(n), k));
      const double nd = static_cast<double>(n);
      const double kd = static_cast<double>(k);
      const double envelope =
          c1 * (nd / (kd * kd)) * logn * logn * logn + c2 * logn * logn;
      EXPECT_LE(rounds, envelope)
          << "n=" << n << " k=" << k
          << ": rounds blew past c*(n/k^2)*polylog(n)";
    }
  }
}

TEST(RoundBounds, SketchRoundsAreIndependentOfEdgeDensity) {
  // The sketch algorithm's communication depends on m only through how
  // many cells of the level cascade a vertex's edges touch — ~log(deg)
  // nonzero cells under the sparse wire format, capped at the full
  // cascade — while the baseline ships every edge.  Same n, ~15x the
  // edges: sketch rounds may grow by that log factor (measured 1.52x)
  // but not with m, while baseline rounds scale by ~an order of
  // magnitude (measured 11x).
  const std::string sparse = "gnp:n=512,p=0.008";  // m ~ 1k
  const std::string dense = "gnp:n=512,p=0.12";    // m ~ 16k
  const double sketch_ratio =
      static_cast<double>(measured_rounds("connectivity", dense, 8)) /
      static_cast<double>(measured_rounds("connectivity", sparse, 8));
  const double baseline_ratio =
      static_cast<double>(
          measured_rounds("connectivity_baseline", dense, 8)) /
      static_cast<double>(
          measured_rounds("connectivity_baseline", sparse, 8));
  EXPECT_GE(sketch_ratio, 0.55) << "denser graph should not cut rounds much";
  EXPECT_LE(sketch_ratio, 2.0)
      << "sketch rounds picked up a superlogarithmic edge-count dependence";
  EXPECT_GE(baseline_ratio, 4.0)
      << "baseline no longer pays per edge — is it still the baseline?";
}

TEST(RoundBounds, MonotoneInKAcrossTheAcceptanceGrid) {
  // The acceptance grid's k values: more machines never cost more
  // rounds, for either algorithm.
  for (const char* workload : {"connectivity", "connectivity_baseline"}) {
    std::uint64_t prev = ~std::uint64_t{0};
    for (const std::size_t k : {4u, 8u, 16u}) {
      const std::uint64_t rounds =
          measured_rounds(workload, sparse_spec(1024), k);
      EXPECT_LT(rounds, prev) << workload << " at k=" << k;
      prev = rounds;
    }
  }
}

/// One run on the ROADMAP's n = 16384 rounds-table graph at the default
/// B = 16·⌈log₂ n⌉² = 3136 and seed 1, cached like measured_rounds().
Metrics table_cell_metrics(const std::string& workload_name, std::size_t k) {
  using Key = std::pair<std::string, std::size_t>;
  static std::map<Key, Metrics> cache;
  const Key key{workload_name, k};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  constexpr std::uint64_t kTableSeed = 1;
  const Workload* workload = WorkloadRegistry::instance().find(workload_name);
  if (workload == nullptr) throw std::logic_error("unknown workload");
  RunParams params;
  params.k = k;
  params.bandwidth_bits = 0;  // the default B
  params.seed = kTableSeed;
  params.record_timeline = false;
  params.check = false;  // correctness lives in test_mst_km.cpp
  const Dataset dataset = load_dataset("gnp:n=16384,p=0.002",
                                       workload->input_kind(), kTableSeed);
  const RunResult result = run_workload(*workload, dataset, params);
  cache[key] = result.metrics;
  return result.metrics;
}

TEST(RoundBounds, ProxyBoruvkaBeatsCentralizedBaselineAtK32) {
  // m ≈ 268k edges.  Measured: components 88 rounds against
  // connectivity_baseline's 143.  While Borůvka's termination sums,
  // confirmation jumps and root queries each took a superstep of their
  // own, components ran 142 rounds here: a tie, not a win.  Pin a win
  // by at least a quarter.
  const std::uint64_t components = table_cell_metrics("components", 32).rounds;
  const std::uint64_t baseline =
      table_cell_metrics("connectivity_baseline", 32).rounds;
  EXPECT_LE(4 * components, 3 * baseline)
      << "components no longer clearly beats the centralized baseline at "
         "k = 32: "
      << components << " vs " << baseline << " rounds";
}

TEST(RoundBounds, ProxyBoruvkaStaysUnderEightySupersteps) {
  // Both run 7 Borůvka phases here.  Measured: 53 supersteps each (114
  // and 111 when every control step of a phase was a superstep).  At
  // k ≥ 64 a superstep costs about one round, so this is the floor the
  // rounds cannot go under.
  EXPECT_LE(table_cell_metrics("mst", 32).supersteps, 80u);
  EXPECT_LE(table_cell_metrics("components", 32).supersteps, 80u);
}

}  // namespace
}  // namespace km
