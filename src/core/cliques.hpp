// Distributed 4-clique enumeration: the paper's subgraph-enumeration
// generalization (Section 1.2: "Our techniques and results can be
// generalized to the enumeration of other small subgraphs such as cycles
// and cliques").
//
// The TriPartition scheme generalizes from triples to s-tuples: color
// vertices with c = floor(k^{1/s}) colors, assign each sorted color
// s-multiset to a machine, and replicate every edge to the machines
// whose multiset contains both endpoint colors.  For s = 4 an edge is
// replicated to C(c+1, 2) ~ k^{1/2} machines, giving total traffic
// m * k^{1/2} and round complexity O~(m/k^{3/2}) — the analogue of
// Theorem 5's O~(m/k^{5/3}).  Each 4-clique's color multiset identifies
// the unique machine that outputs it.  The designation and routing
// phases are core/detail/tripartition.hpp, shared with core/triangles.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/partition.hpp"

namespace km {

/// A 4-clique as its vertex IDs in increasing order.
using Clique4 = std::array<Vertex, 4>;

// ---- Sequential reference ----

/// Number of 4-cliques (K4 subgraphs) in g.
std::uint64_t count_four_cliques(const Graph& g);

/// All 4-cliques, sorted lexicographically.
std::vector<Clique4> enumerate_four_cliques(const Graph& g);

// ---- Distributed algorithm ----

struct CliqueConfig {
  std::uint64_t color_seed = 0xC11C0EULL;
  double degree_threshold_factor = 2.0;  ///< same designation rule
  bool record_cliques = true;
};

struct CliqueResult {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> per_machine_counts;
  std::vector<std::vector<Clique4>> per_machine_cliques;
  Metrics metrics;

  std::vector<Clique4> merged_sorted() const;
};

/// O~(m/k^{3/2})-round 4-clique enumeration.
CliqueResult distributed_four_cliques(const Graph& g,
                                      const VertexPartition& partition,
                                      Engine& engine,
                                      const CliqueConfig& config = {});

/// Colors used for k machines: floor(k^{1/4}).
std::size_t clique_color_count(std::size_t k) noexcept;

/// Machines hosting a color quadruplet: C(c+3, 4).
std::size_t clique_worker_count(std::size_t k) noexcept;

}  // namespace km
