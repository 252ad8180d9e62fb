// Tests for distributed triangle enumeration (core/triangles.hpp): exact
// agreement with the sequential reference across graph families, machine
// counts, partitions and seeds (Theorem 5 correctness: "all possible
// triangles are examined"), plus open triads, the baseline, and the
// congested-clique instantiation (Corollary 1).
#include "core/triangles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/cliques.hpp"
#include "core/detail/tripartition.hpp"
#include "graph/generators.hpp"
#include "graph/triangle_ref.hpp"
#include "util/mathx.hpp"

namespace km {
namespace {

TriangleResult run(const Graph& g, std::size_t k, std::uint64_t seed,
                   TriangleConfig cfg = {}, bool baseline = false) {
  Engine engine(k, {.bandwidth_bits = EngineConfig::default_bandwidth(
                        g.num_vertices()),
                    .seed = seed});
  Rng prng(seed ^ 0x7777);
  const auto part = VertexPartition::random(g.num_vertices(), k, prng);
  return baseline ? distributed_triangles_baseline(g, part, engine, cfg)
                  : distributed_triangles(g, part, engine, cfg);
}

TEST(TrianglesKm, ExactOnSmallCompleteGraph) {
  const auto g = complete_graph(12);
  const auto res = run(g, 8, 1);
  EXPECT_EQ(res.total, 220u);  // C(12,3)
  EXPECT_EQ(res.merged_sorted(), enumerate_triangles(g));
}

TEST(TrianglesKm, TriangleFreeGraphsYieldNothing) {
  EXPECT_EQ(run(star_graph(200), 8, 2).total, 0u);
  EXPECT_EQ(run(cycle_graph(100), 8, 3).total, 0u);
  Rng rng(4);
  EXPECT_EQ(run(random_bipartite(50, 50, 0.3, rng), 8, 5).total, 0u);
}

class TriangleGraphSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(TriangleGraphSweep, MatchesReferenceOnGnp) {
  const auto [k, seed] = GetParam();
  Rng rng(seed);
  const auto g = gnp(120, 0.15, rng);
  const auto res = run(g, k, seed * 13 + 1);
  EXPECT_EQ(res.total, count_triangles(g)) << "k=" << k;
  EXPECT_EQ(res.merged_sorted(), enumerate_triangles(g));
  EXPECT_EQ(res.metrics.dropped_messages, 0u);
}

TEST_P(TriangleGraphSweep, MatchesReferenceOnWattsStrogatz) {
  const auto [k, seed] = GetParam();
  Rng rng(seed ^ 0xABCD);
  const auto g = watts_strogatz(200, 8, 0.2, rng);
  const auto res = run(g, k, seed * 17 + 3);
  EXPECT_EQ(res.total, count_triangles(g)) << "k=" << k;
  EXPECT_EQ(res.merged_sorted(), enumerate_triangles(g));
}

TEST_P(TriangleGraphSweep, MatchesReferenceOnBarabasiAlbert) {
  // Power-law degrees exercise the high-degree designation rule.
  const auto [k, seed] = GetParam();
  Rng rng(seed ^ 0x1234);
  const auto g = barabasi_albert(300, 4, rng);
  const auto res = run(g, k, seed * 19 + 7);
  EXPECT_EQ(res.total, count_triangles(g)) << "k=" << k;
  EXPECT_EQ(res.merged_sorted(), enumerate_triangles(g));
}

INSTANTIATE_TEST_SUITE_P(
    KAndSeed, TriangleGraphSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 27, 64),
                       ::testing::Values(1, 2, 3)));

TEST(TrianglesKm, BaselineMatchesReference) {
  Rng rng(6);
  const auto g = gnp(100, 0.2, rng);
  const auto res = run(g, 8, 7, {}, true);
  EXPECT_EQ(res.total, count_triangles(g));
  EXPECT_EQ(res.merged_sorted(), enumerate_triangles(g));
}

TEST(TrianglesKm, OpenTriadsMatchReference) {
  Rng rng(8);
  const auto g = gnp(80, 0.1, rng);
  TriangleConfig cfg;
  cfg.mode = TriadMode::kOpenTriads;
  const auto res = run(g, 8, 9, cfg);
  EXPECT_EQ(res.total, count_open_triads(g));
  EXPECT_EQ(res.merged_sorted(), enumerate_open_triads(g));
}

TEST(TrianglesKm, OpenTriadsBaselineMatchesReference) {
  Rng rng(10);
  const auto g = watts_strogatz(120, 6, 0.3, rng);
  TriangleConfig cfg;
  cfg.mode = TriadMode::kOpenTriads;
  const auto res = run(g, 8, 11, cfg, true);
  EXPECT_EQ(res.total, count_open_triads(g));
  EXPECT_EQ(res.merged_sorted(), enumerate_open_triads(g));
}

TEST(TrianglesKm, CongestedCliqueIdentityPartition) {
  // Corollary 1's setting: k = n machines, one vertex each.
  Rng rng(12);
  const std::size_t n = 64;
  const auto g = gnp(n, 0.3, rng);
  Engine engine(n, {.bandwidth_bits = EngineConfig::default_bandwidth(n),
                    .seed = 13});
  const auto part = VertexPartition::identity(n);
  const auto res = distributed_triangles(g, part, engine, {});
  EXPECT_EQ(res.total, count_triangles(g));
  EXPECT_EQ(res.merged_sorted(), enumerate_triangles(g));
}

TEST(TrianglesKm, EachTriangleReportedExactlyOnce) {
  Rng rng(14);
  const auto g = gnp(150, 0.12, rng);
  const auto res = run(g, 27, 15);
  const auto merged = res.merged_sorted();
  // merged_sorted is sorted; duplicates would be adjacent.
  EXPECT_EQ(std::adjacent_find(merged.begin(), merged.end()), merged.end());
}

TEST(TrianglesKm, OutputIsSpreadAcrossWorkers) {
  // With k=64 (c=4 colors, 20 triplets) a dense graph's triangles should
  // be distributed over many machines, not concentrated on one.
  Rng rng(16);
  const auto g = gnp(200, 0.3, rng);
  const auto res = run(g, 64, 17);
  const std::size_t active =
      std::count_if(res.per_machine_counts.begin(),
                    res.per_machine_counts.end(),
                    [](std::uint64_t c) { return c > 0; });
  EXPECT_GE(active, 15u);
  EXPECT_EQ(res.total, count_triangles(g));
}

TEST(TrianglesKm, WorkerAndColorCounts) {
  EXPECT_EQ(triangle_color_count(1), 1u);
  EXPECT_EQ(triangle_color_count(8), 2u);
  EXPECT_EQ(triangle_color_count(27), 3u);
  EXPECT_EQ(triangle_color_count(63), 3u);
  EXPECT_EQ(triangle_color_count(64), 4u);
  EXPECT_EQ(triangle_worker_count(1), 1u);
  EXPECT_EQ(triangle_worker_count(8), 4u);    // C(4,3)=4 multisets of 2
  EXPECT_EQ(triangle_worker_count(27), 10u);  // C(5,3)
  EXPECT_EQ(triangle_worker_count(64), 20u);  // C(6,3)
  // Worker count never exceeds k (every triplet fits on a machine).
  for (std::size_t k = 1; k < 600; ++k) {
    EXPECT_LE(triangle_worker_count(k), k) << k;
  }
}

// Each subgraph comes out exactly once because every color pair {x, y}
// is routed to exactly the tuples that contain it, and the tuples are
// distinct sorted multisets.  Checked for triangles (s = 3) and 4-cliques
// (s = 4) against a brute-force sub-multiset test.
TEST(TriPartition, ColorTuplesCoverEveryColorPair) {
  for (const std::size_t arity : {3, 4}) {
    for (std::size_t c = 1; c <= 6; ++c) {
      SCOPED_TRACE("arity=" + std::to_string(arity) +
                   " c=" + std::to_string(c));
      const detail::ColorTuples tuples(c, arity);
      EXPECT_EQ(tuples.size(), static_cast<std::size_t>(std::llround(
                                   binomial_coeff(c + arity - 1, arity))));
      EXPECT_EQ(tuples.size(), arity == 3 ? triangle_worker_count(c * c * c)
                                          : clique_worker_count(c * c * c * c));
      for (std::size_t i = 0; i < tuples.size(); ++i) {
        ASSERT_EQ(tuples.tuple(i).size(), arity);
        EXPECT_TRUE(std::ranges::is_sorted(tuples.tuple(i))) << i;
        if (i > 0) {
          EXPECT_TRUE(std::ranges::lexicographical_compare(tuples.tuple(i - 1),
                                                           tuples.tuple(i)))
              << i;
        }
      }
      for (std::size_t x = 0; x < c; ++x) {
        for (std::size_t y = 0; y < c; ++y) {
          std::vector<std::size_t> want;
          for (std::size_t i = 0; i < tuples.size(); ++i) {
            const auto t = tuples.tuple(i);
            const auto has_x = std::ranges::count(t, x);
            const auto has_y = std::ranges::count(t, y);
            if (x == y ? has_x >= 2 : has_x >= 1 && has_y >= 1) {
              want.push_back(i);
            }
          }
          EXPECT_EQ(tuples.hosts(x, y), want) << x << "," << y;
          EXPECT_EQ(tuples.hosts(x, y), tuples.hosts(y, x)) << x << "," << y;
        }
      }
    }
  }
  // Colors are stored as bytes; more than 256 must not wrap silently.
  EXPECT_THROW(detail::ColorTuples(257, 3), std::invalid_argument);
  EXPECT_THROW(detail::ColorTuples(0, 3), std::invalid_argument);
}

TEST(TrianglesKm, DeterministicForFixedSeeds) {
  Rng rng(18);
  const auto g = gnp(100, 0.15, rng);
  const auto a = run(g, 8, 19);
  const auto b = run(g, 8, 19);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.merged_sorted(), b.merged_sorted());
}

TEST(TrianglesKm, CountingWithoutRecordingTriples) {
  Rng rng(20);
  const auto g = gnp(100, 0.2, rng);
  TriangleConfig cfg;
  cfg.record_triples = false;
  const auto res = run(g, 8, 21, cfg);
  EXPECT_EQ(res.total, count_triangles(g));
  for (const auto& triples : res.per_machine_triples) {
    EXPECT_TRUE(triples.empty());
  }
}

TEST(TrianglesKm, HighDegreeThresholdZeroStillCorrect) {
  // Forcing every vertex through the "high degree" designation path
  // must not change the output, only the communication pattern.
  Rng rng(22);
  const auto g = gnp(80, 0.2, rng);
  TriangleConfig cfg;
  cfg.degree_threshold_factor = 0.0;  // everyone is high-degree
  const auto res = run(g, 8, 23, cfg);
  EXPECT_EQ(res.total, count_triangles(g));
  EXPECT_EQ(res.merged_sorted(), enumerate_triangles(g));
}

TEST(TrianglesKm, MismatchedPartitionThrows) {
  Rng rng(24);
  const auto g = gnp(50, 0.2, rng);
  Engine engine(4, {.bandwidth_bits = 256, .seed = 1});
  Rng prng(1);
  const auto wrong = VertexPartition::random(40, 4, prng);
  EXPECT_THROW(distributed_triangles(g, wrong, engine),
               std::invalid_argument);
}

}  // namespace
}  // namespace km
