#include "core/cliques.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/detail/tripartition.hpp"

namespace km {

namespace {

/// Enumerates each 4-clique once: base edge (a,b) with a<b the two
/// smallest vertices, then pairs (x<y) of common neighbors >b that are
/// themselves adjacent.
template <typename Accept, typename Out>
void enumerate_local_k4(const Graph& sub, Accept accept, Out out) {
  std::vector<Vertex> common;
  for (Vertex a = 0; a < sub.num_vertices(); ++a) {
    for (Vertex b : sub.neighbors(a)) {
      if (b <= a) continue;
      common.clear();
      detail::for_each_common_above(sub, a, b,
                                    [&](Vertex x) { common.push_back(x); });
      for (std::size_t i = 0; i < common.size(); ++i) {
        for (std::size_t j = i + 1; j < common.size(); ++j) {
          const Clique4 clique{a, b, common[i], common[j]};
          if (sub.has_edge(common[i], common[j]) && accept(clique)) {
            out(clique);
          }
        }
      }
    }
  }
}

constexpr auto kAcceptAll = [](const Clique4&) { return true; };

}  // namespace

// ---------------------------------------------------------------------------
// Sequential reference
// ---------------------------------------------------------------------------

std::vector<Clique4> enumerate_four_cliques(const Graph& g) {
  std::vector<Clique4> out;
  enumerate_local_k4(g, kAcceptAll,
                     [&](const Clique4& c) { out.push_back(c); });
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t count_four_cliques(const Graph& g) {
  std::uint64_t count = 0;
  enumerate_local_k4(g, kAcceptAll, [&](const Clique4&) { ++count; });
  return count;
}

// ---------------------------------------------------------------------------
// Distributed algorithm
// ---------------------------------------------------------------------------

std::vector<Clique4> CliqueResult::merged_sorted() const {
  std::vector<Clique4> all;
  for (const auto& cs : per_machine_cliques) {
    all.insert(all.end(), cs.begin(), cs.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::size_t clique_color_count(std::size_t k) noexcept {
  std::size_t c = 1;
  while ((c + 1) * (c + 1) * (c + 1) * (c + 1) <= k) ++c;
  return c;
}

std::size_t clique_worker_count(std::size_t k) noexcept {
  const std::size_t c = clique_color_count(k);
  return c * (c + 1) * (c + 2) * (c + 3) / 24;
}

CliqueResult distributed_four_cliques(const Graph& g,
                                      const VertexPartition& part,
                                      Engine& engine,
                                      const CliqueConfig& config) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument("cliques: partition does not match graph/k");
  }
  const detail::ColorTuples tuples(clique_color_count(k), 4);

  CliqueResult result;
  result.per_machine_counts.assign(k, 0);
  result.per_machine_cliques.assign(k, {});

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const std::vector<Edge> designated = detail::designated_edges(
        ctx, g, part, config.degree_threshold_factor, config.color_seed);
    std::vector<Edge> edges =
        detail::route_to_tuples(ctx, designated, tuples, config.color_seed);
    if (self >= tuples.size()) return;  // idle worker
    const Graph sub = Graph::from_edges(n, std::move(edges));

    // Accept exactly the cliques whose color multiset is this machine's
    // quadruplet, so each is output by one machine.
    auto accept = [&](const Clique4& clique) {
      return tuples.owns(self, config.color_seed, clique);
    };
    enumerate_local_k4(sub, accept, [&](const Clique4& clique) {
      ++result.per_machine_counts[self];
      if (config.record_cliques) {
        result.per_machine_cliques[self].push_back(clique);
      }
    });
  };

  result.metrics = engine.run(program);
  for (auto count : result.per_machine_counts) result.total += count;
  return result;
}

}  // namespace km
