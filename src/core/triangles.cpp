#include "core/triangles.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/detail/tripartition.hpp"
#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace km {

namespace {

constexpr std::uint16_t kEdgeBroadcastTag = 4;

/// Enumerates closed triangles of the local subgraph, each exactly once
/// (base edge (a,b) with a<b, apex w > b), filtered by `accept`.
template <typename Accept, typename Out>
void enumerate_local_triangles(const Graph& sub, Accept accept, Out out) {
  for (Vertex u = 0; u < sub.num_vertices(); ++u) {
    for (Vertex v : sub.neighbors(u)) {
      if (v <= u) continue;  // base edge u < v
      detail::for_each_common_above(sub, u, v, [&](Vertex w) {
        const Triangle t{u, v, w};
        if (accept(t)) out(t);
      });
    }
  }
}

/// Enumerates open triads u-v-w (center v, u < w, edge (u,w) absent),
/// each exactly once, filtered by `accept`.
template <typename Accept, typename Out>
void enumerate_local_triads(const Graph& sub, Accept accept, Out out) {
  for (Vertex v = 0; v < sub.num_vertices(); ++v) {
    const auto ns = sub.neighbors(v);
    for (std::size_t i = 0; i < ns.size(); ++i) {
      for (std::size_t j = i + 1; j < ns.size(); ++j) {
        const Vertex u = ns[i], w = ns[j];
        if (sub.has_edge(u, w)) continue;
        Triangle t{u, v, w};
        std::sort(t.begin(), t.end());
        if (accept(t)) out(t);
      }
    }
  }
}

TriangleResult run_triangles(const Graph& g, const VertexPartition& part,
                             Engine& engine, const TriangleConfig& config,
                             bool use_tripartition) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument("triangles: partition does not match graph/k");
  }
  const detail::ColorTuples tuples(triangle_color_count(k), 3);

  TriangleResult result;
  result.per_machine_counts.assign(k, 0);
  result.per_machine_triples.assign(k, {});

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    std::vector<Edge> edges = detail::designated_edges(
        ctx, g, part, config.degree_threshold_factor, config.color_seed);

    if (use_tripartition) {
      edges = detail::route_to_tuples(ctx, edges, tuples, config.color_seed);
      if (self >= tuples.size()) return;  // no triplet: idle worker
    } else {
      // Baseline: everyone receives every edge.
      for (const auto& [a, b] : edges) {
        Writer w;
        w.put_varint(a);
        w.put_varint(b);
        ctx.broadcast(kEdgeBroadcastTag, w);
      }
      detail::receive_edges(ctx, kEdgeBroadcastTag, edges);
    }
    const Graph sub = Graph::from_edges(n, std::move(edges));

    // TriPartition accepts exactly the triples whose color multiset is
    // this machine's triplet; the baseline, those whose smallest vertex
    // hashes here.  Either way each triple is output by one machine.
    auto accept = [&](const Triangle& t) {
      if (use_tripartition) return tuples.owns(self, config.color_seed, t);
      const Vertex smallest = *std::min_element(t.begin(), t.end());
      return hash_vertex(config.color_seed ^ 0x5a5a, smallest) % k == self;
    };
    auto emit = [&](const Triangle& t) {
      ++result.per_machine_counts[self];
      if (config.record_triples) {
        result.per_machine_triples[self].push_back(t);
      }
    };
    if (config.mode == TriadMode::kTriangles) {
      enumerate_local_triangles(sub, accept, emit);
    } else {
      enumerate_local_triads(sub, accept, emit);
    }
  };

  result.metrics = engine.run(program);
  for (auto count : result.per_machine_counts) result.total += count;
  return result;
}

}  // namespace

std::vector<Triangle> TriangleResult::merged_sorted() const {
  std::vector<Triangle> all;
  for (const auto& triples : per_machine_triples) {
    all.insert(all.end(), triples.begin(), triples.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

TriangleResult distributed_triangles(const Graph& g,
                                     const VertexPartition& partition,
                                     Engine& engine,
                                     const TriangleConfig& config) {
  return run_triangles(g, partition, engine, config, true);
}

TriangleResult distributed_triangles_baseline(const Graph& g,
                                              const VertexPartition& partition,
                                              Engine& engine,
                                              const TriangleConfig& config) {
  return run_triangles(g, partition, engine, config, false);
}

std::size_t triangle_color_count(std::size_t k) noexcept {
  return std::max<std::size_t>(1, floor_cbrt(k));
}

std::size_t triangle_worker_count(std::size_t k) noexcept {
  const std::size_t c = triangle_color_count(k);
  return c * (c + 1) * (c + 2) / 6;
}

}  // namespace km
