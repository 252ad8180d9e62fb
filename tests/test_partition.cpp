// Tests for the input partitions (sim/partition.hpp): RVP balance
// (Section 1.1: every machine gets Theta~(n/k) vertices whp), hash
// determinism, the congested-clique identity partition and REP.
#include "sim/partition.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace km {
namespace {

TEST(VertexPartition, RandomCoversAllVertices) {
  Rng rng(1);
  const auto p = VertexPartition::random(1000, 8, rng);
  EXPECT_EQ(p.n(), 1000u);
  EXPECT_EQ(p.k(), 8u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    total += p.load(i);
    for (Vertex v : p.owned(i)) EXPECT_EQ(p.home(v), i);
  }
  EXPECT_EQ(total, 1000u);
}

TEST(VertexPartition, OwnedListsAreSortedAndDisjoint) {
  Rng rng(2);
  const auto p = VertexPartition::random(500, 7, rng);
  std::vector<bool> seen(500, false);
  for (std::size_t i = 0; i < 7; ++i) {
    const auto& o = p.owned(i);
    EXPECT_TRUE(std::is_sorted(o.begin(), o.end()));
    for (Vertex v : o) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(VertexPartition, RankIndexesTheHomeOwnedList) {
  Rng rng(3);
  for (const auto& p : {VertexPartition::random(300, 5, rng),
                        VertexPartition::by_hash(300, 4, 9),
                        VertexPartition::identity(6)}) {
    for (std::size_t i = 0; i < p.k(); ++i) {
      const auto& o = p.owned(i);
      for (std::size_t r = 0; r < o.size(); ++r) EXPECT_EQ(p.rank(o[r]), r);
    }
  }
}

class RvpBalanceSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RvpBalanceSweep, LoadIsBalancedWhp) {
  // RVP gives each machine Theta~(n/k) vertices whp; with n/k >= 64 a
  // 2x imbalance bound is extremely conservative (Chernoff).
  const auto [n, k] = GetParam();
  Rng rng(n * 31 + k);
  const auto p = VertexPartition::random(n, k, rng);
  EXPECT_LT(p.imbalance(), 2.0) << "n=" << n << " k=" << k;
  EXPECT_GT(p.imbalance(), 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RvpBalanceSweep,
    ::testing::Values(std::make_tuple(1024, 4), std::make_tuple(4096, 16),
                      std::make_tuple(10000, 8), std::make_tuple(20000, 32),
                      std::make_tuple(8192, 2)));

TEST(VertexPartition, HashIsDeterministicAndBalanced) {
  const auto a = VertexPartition::by_hash(5000, 16, 12345);
  const auto b = VertexPartition::by_hash(5000, 16, 12345);
  for (Vertex v = 0; v < 5000; ++v) EXPECT_EQ(a.home(v), b.home(v));
  EXPECT_LT(a.imbalance(), 1.5);
  const auto c = VertexPartition::by_hash(5000, 16, 54321);
  std::size_t same = 0;
  for (Vertex v = 0; v < 5000; ++v) same += (a.home(v) == c.home(v));
  EXPECT_LT(same, 1000u);  // different seeds give different placements
}

TEST(VertexPartition, RoundRobinIsPerfectlyBalanced) {
  const auto p = VertexPartition::round_robin(100, 10);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(p.load(i), 10u);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);
  EXPECT_EQ(p.home(37), 7u);
}

TEST(VertexPartition, IdentityIsCongestedClique) {
  const auto p = VertexPartition::identity(64);
  EXPECT_EQ(p.k(), 64u);
  for (Vertex v = 0; v < 64; ++v) {
    EXPECT_EQ(p.home(v), v);
    ASSERT_EQ(p.owned(v).size(), 1u);
    EXPECT_EQ(p.owned(v)[0], v);
  }
}

TEST(VertexPartition, ZeroMachinesThrows) {
  Rng rng(3);
  EXPECT_THROW(VertexPartition::random(10, 0, rng), std::invalid_argument);
  EXPECT_THROW(VertexPartition::round_robin(10, 0), std::invalid_argument);
}

TEST(VertexPartition, MoreMachinesThanVertices) {
  Rng rng(4);
  const auto p = VertexPartition::random(5, 20, rng);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 20; ++i) total += p.load(i);
  EXPECT_EQ(total, 5u);
}

TEST(EdgePartition, RandomCoversAllEdges) {
  Rng rng(5);
  const auto p = EdgePartition::random(999, 6, rng);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    total += p.owned(i).size();
    for (auto e : p.owned(i)) EXPECT_EQ(p.home(e), i);
  }
  EXPECT_EQ(total, 999u);
  EXPECT_LT(static_cast<double>(p.max_load()), 2.0 * 999.0 / 6.0);
}

TEST(EdgePartition, HashDeterministic) {
  const auto a = EdgePartition::by_hash(500, 4, 777);
  const auto b = EdgePartition::by_hash(500, 4, 777);
  for (std::size_t e = 0; e < 500; ++e) EXPECT_EQ(a.home(e), b.home(e));
}

}  // namespace
}  // namespace km
