// TriPartition routing (steps 1-3 of core/triangles.hpp), shared by
// triangle enumeration (s = 3) and 4-clique enumeration (s = 4,
// core/cliques.hpp).  Machine i hosts the i-th sorted color s-multiset
// and outputs exactly the subgraphs whose color multiset it is, so it
// needs every edge whose two endpoint colors both occur in that multiset.
// The callers differ only in their local enumeration kernel, which runs on
// `Graph::from_edges(n, edges)` over the received edges in global ids.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/partition.hpp"
#include "util/hash.hpp"

namespace km::detail {

/// v's color, one of `colors`, under the shared coloring hash `seed`.
inline std::uint8_t vertex_color(std::uint64_t seed, Vertex v,
                                 std::size_t colors) {
  return static_cast<std::uint8_t>(hash_vertex(seed, v) % colors);
}

/// Step 1: the sorted color s-multisets in lexicographic order.  Machine
/// i hosts tuple i: a fixed assignment known to all machines, as in the
/// paper's "deterministic assignment of triplets ... hard-coded into the
/// algorithm".  There are C(c+s-1, s) tuples.
class ColorTuples {
 public:
  /// Requires 1 <= colors <= 256 and arity >= 2.
  ColorTuples(std::size_t colors, std::size_t arity);

  std::size_t colors() const noexcept { return colors_; }
  std::size_t size() const noexcept { return tuples_.size() / arity_; }

  /// Tuple i's colors, ascending.
  std::span<const std::uint8_t> tuple(std::size_t i) const noexcept {
    return std::span(tuples_).subspan(i * arity_, arity_);
  }

  /// True if the colors of `vs` under `color_seed`, as a multiset, are
  /// tuple i: machine i is the one that outputs the subgraph on `vs`.
  template <std::size_t S>
  bool owns(std::size_t i, std::uint64_t color_seed,
            const std::array<Vertex, S>& vs) const {
    std::array<std::uint8_t, S> cols{};
    for (std::size_t j = 0; j < S; ++j) {
      cols[j] = vertex_color(color_seed, vs[j], colors_);
    }
    std::sort(cols.begin(), cols.end());
    return std::ranges::equal(cols, tuple(i));
  }

  /// The machines whose multiset contains both x and y (x twice when
  /// x == y), ascending.
  const std::vector<std::size_t>& hosts(std::size_t x,
                                        std::size_t y) const noexcept {
    return hosts_[x * colors_ + y];
  }

 private:
  std::size_t colors_;
  std::size_t arity_;
  std::vector<std::uint8_t> tuples_;            // size() * arity, row-major
  std::vector<std::vector<std::size_t>> hosts_;  // colors^2 lists
};

/// Step 2: broadcasts this machine's vertices of degree >= factor * k *
/// log2(n) (one exchange), then returns the edges this machine
/// designates, as (min, max) pairs in owned-vertex, then neighbour order.
/// An edge with exactly one high-degree endpoint is designated by the
/// other endpoint's home; ties break by an edge hash under `seed`.
/// Designation draws no randomness and sends nothing.
std::vector<Edge> designated_edges(MachineContext& ctx, const Graph& g,
                                   const VertexPartition& part,
                                   double threshold_factor,
                                   std::uint64_t seed);

/// Step 3: sends each designated edge to a uniformly random proxy
/// (one `rng().below(k)` draw per edge, in order), which forwards it to
/// `hosts` of its endpoint colors.  Returns the edges this machine's tuple
/// receives; two exchanges.
std::vector<Edge> route_to_tuples(MachineContext& ctx,
                                  const std::vector<Edge>& designated,
                                  const ColorTuples& tuples,
                                  std::uint64_t color_seed);

/// Appends the edge that each message of the next exchange carries;
/// every message must have tag `tag`.
void receive_edges(MachineContext& ctx, std::uint16_t tag,
                   std::vector<Edge>& out);

/// Calls fn(w) for each common neighbour w > v of u and v, ascending: the
/// merge of two sorted adjacency lists that both kernels build on.
template <typename Fn>
void for_each_common_above(const Graph& g, Vertex u, Vertex v, Fn fn) {
  const auto nu = g.neighbors(u);
  const auto nv = g.neighbors(v);
  auto iu = std::upper_bound(nu.begin(), nu.end(), v);
  auto iv = std::upper_bound(nv.begin(), nv.end(), v);
  while (iu != nu.end() && iv != nv.end()) {
    if (*iu < *iv) {
      ++iu;
    } else if (*iv < *iu) {
      ++iv;
    } else {
      fn(*iu);
      ++iu;
      ++iv;
    }
  }
}

}  // namespace km::detail
