// Distributed PageRank approximation in the k-machine model.
//
// distributed_pagerank() implements Algorithm 1 of the paper (Section
// 3.1), the O~(n/k^2)-round algorithm:
//   * every vertex starts ceil(c * ln n) random-walk tokens;
//   * each iteration every token terminates with probability eps and
//     otherwise moves to a uniformly random out-neighbor;
//   * *light* vertices (fewer than k tokens) aggregate token counts per
//     destination vertex and send <count, dest:v> messages to the
//     destination's home machine (a random machine under RVP, so direct
//     routing satisfies Lemma 13);
//   * *heavy* vertices (at least k tokens) aggregate per destination
//     *machine*, sampling machines proportionally to the number of
//     neighbors hosted there, and send at most k-1 <count, src:u>
//     messages; the receiving machine spreads the tokens uniformly over
//     the locally hosted out-neighbors of u (lines 18-27 / 31-36).
// The PageRank estimate of v is eps * psi_v / (n * ceil(c ln n)) where
// psi_v counts the tokens that visited v (Theorem 4; [20]).
//
// distributed_pagerank_baseline() is the Conversion-Theorem-style
// baseline bounded by O~(n/k) rounds [33]: identical token process but
// *every* vertex uses the per-destination-vertex path, so a machine
// hosting a high-degree vertex must emit up to deg(u) distinct messages
// per iteration (the star-graph hot spot described in Section 3.1).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/partition.hpp"

namespace km {

struct PageRankConfig {
  double eps = 0.2;  ///< reset probability (paper's epsilon)
  double c = 8.0;    ///< token multiplier; tokens0 = ceil(c * ln n)
  /// Safety cap on iterations; 0 means 10 * ceil(ln(n * tokens0) / eps),
  /// far beyond the whp termination point of [20].
  std::size_t max_iterations = 0;
  /// Global termination (all tokens dead) is detected every this many
  /// iterations by a sum that rides the iteration's token exchange: a
  /// check adds no superstep, but charges each machine k-1 varint
  /// messages.  Checking less often saves those charges at the cost of
  /// at most interval-1 trailing iterations with no token left, whose
  /// supersteps move nothing and charge no rounds.
  std::size_t termination_check_interval = 4;
};

struct PageRankResult {
  std::vector<double> estimates;  ///< per-vertex PageRank estimate
  std::size_t iterations = 0;     ///< token-walk iterations executed
  std::uint64_t initial_tokens_per_vertex = 0;
  Metrics metrics;
};

/// Algorithm 1 (light/heavy vertex split): O~(n/k^2) rounds whp.
PageRankResult distributed_pagerank(const Digraph& g,
                                    const VertexPartition& partition,
                                    Engine& engine,
                                    const PageRankConfig& config = {});

/// Naive token forwarding (no heavy-vertex machinery): O~(n/k) rounds
/// worst case; the baseline the paper improves on.
PageRankResult distributed_pagerank_baseline(const Digraph& g,
                                             const VertexPartition& partition,
                                             Engine& engine,
                                             const PageRankConfig& config = {});

}  // namespace km
