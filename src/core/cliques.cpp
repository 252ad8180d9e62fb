#include "core/cliques.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/detail/sorted.hpp"
#include "util/hash.hpp"

namespace km {

namespace {

constexpr std::uint16_t kHighDegreeTag = 1;
constexpr std::uint16_t kEdgeToProxyTag = 2;
constexpr std::uint16_t kEdgeToWorkerTag = 3;

/// Sorted color quadruplets {a<=b<=c<=d} in lex order; quadruplet i is
/// hosted by machine i.
struct QuadTable {
  std::size_t colors = 0;
  std::vector<std::array<std::uint8_t, 4>> quads;
  std::vector<std::int32_t> index_of;  // packed sorted quad -> machine

  explicit QuadTable(std::size_t c) : colors(c) {
    index_of.assign(c * c * c * c, -1);
    for (std::size_t a = 0; a < c; ++a) {
      for (std::size_t b = a; b < c; ++b) {
        for (std::size_t d = b; d < c; ++d) {
          for (std::size_t e = d; e < c; ++e) {
            index_of[pack(a, b, d, e)] =
                static_cast<std::int32_t>(quads.size());
            quads.push_back({static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b),
                             static_cast<std::uint8_t>(d),
                             static_cast<std::uint8_t>(e)});
          }
        }
      }
    }
  }

  std::size_t pack(std::size_t a, std::size_t b, std::size_t d,
                   std::size_t e) const {
    return ((a * colors + b) * colors + d) * colors + e;
  }

  std::size_t machine_of(std::array<std::size_t, 4> m) const {
    std::sort(m.begin(), m.end());
    return static_cast<std::size_t>(index_of[pack(m[0], m[1], m[2], m[3])]);
  }
};

/// Sorted-adjacency subgraph over received edges.
struct LocalEdges {
  std::unordered_map<Vertex, std::vector<Vertex>> adj;

  void add(Vertex u, Vertex v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  void finalize() {
    detail::for_sorted(adj, [](Vertex, std::vector<Vertex>& ns) {
      std::sort(ns.begin(), ns.end());
      ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
    });
  }
  bool has_edge(Vertex u, Vertex v) const {
    const auto it = adj.find(u);
    return it != adj.end() &&
           std::binary_search(it->second.begin(), it->second.end(), v);
  }
};

/// Enumerates each 4-clique once: base edge (a,b) with a<b the two
/// smallest vertices, then pairs (x<y) of common neighbors >b that are
/// themselves adjacent.
template <typename Accept, typename Out>
void enumerate_local_k4(const LocalEdges& edges, Accept accept, Out out) {
  std::vector<Vertex> common;
  detail::for_sorted(edges.adj, [&](Vertex a, const std::vector<Vertex>& ns) {
    for (Vertex b : ns) {
      if (b <= a) continue;
      const auto itb = edges.adj.find(b);
      if (itb == edges.adj.end()) continue;
      common.clear();
      const auto& na = ns;
      const auto& nb = itb->second;
      auto ia = std::upper_bound(na.begin(), na.end(), b);
      auto ib = std::upper_bound(nb.begin(), nb.end(), b);
      while (ia != na.end() && ib != nb.end()) {
        if (*ia < *ib) {
          ++ia;
        } else if (*ib < *ia) {
          ++ib;
        } else {
          common.push_back(*ia);
          ++ia;
          ++ib;
        }
      }
      for (std::size_t i = 0; i < common.size(); ++i) {
        for (std::size_t j = i + 1; j < common.size(); ++j) {
          if (edges.has_edge(common[i], common[j]) &&
              accept(a, b, common[i], common[j])) {
            out(Clique4{a, b, common[i], common[j]});
          }
        }
      }
    }
  });
}

/// Same designation rule as triangles.cpp: the low-degree side of a
/// high/low edge designates; ties break by edge hash.
bool designates(Vertex mine, Vertex other, const std::vector<bool>& high,
                std::uint64_t seed) {
  const bool mine_high = high[mine];
  const bool other_high = high[other];
  if (other_high && !mine_high) return true;
  if (mine_high && !other_high) return false;
  const Vertex chosen = (hash_edge(seed, mine, other) & 1)
                            ? std::min(mine, other)
                            : std::max(mine, other);
  return chosen == mine;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sequential reference
// ---------------------------------------------------------------------------

std::vector<Clique4> enumerate_four_cliques(const Graph& g) {
  LocalEdges edges;
  for (const auto& [u, v] : g.edge_list()) edges.add(u, v);
  edges.finalize();
  std::vector<Clique4> out;
  enumerate_local_k4(
      edges, [](Vertex, Vertex, Vertex, Vertex) { return true; },
      [&](const Clique4& c) { out.push_back(c); });
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t count_four_cliques(const Graph& g) {
  LocalEdges edges;
  for (const auto& [u, v] : g.edge_list()) edges.add(u, v);
  edges.finalize();
  std::uint64_t count = 0;
  enumerate_local_k4(
      edges, [](Vertex, Vertex, Vertex, Vertex) { return true; },
      [&](const Clique4&) { ++count; });
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
  const std::size_t c = clique_color_count(k);
  const QuadTable table(c);
  const double log2n =
      std::max(1.0, std::log2(std::max<double>(2.0, static_cast<double>(n))));
  const auto threshold = static_cast<std::size_t>(
      config.degree_threshold_factor * static_cast<double>(k) * log2n);

  auto color_of = [&](Vertex v) -> std::size_t {
    return hash_vertex(config.color_seed, v) % c;
  };

  CliqueResult result;
  result.per_machine_counts.assign(k, 0);
  result.per_machine_cliques.assign(k, {});

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = part.owned(self);

    // Phase 1: high-degree announcements (as in triangles.cpp).
    {
      Writer w;
      std::uint64_t count = 0;
      Writer ids;
      for (Vertex v : owned) {
        if (g.degree(v) >= threshold) {
          ids.put_varint(v);
          ++count;
        }
      }
      w.put_varint(count);
      w.put_bytes(ids.view());
      ctx.broadcast(kHighDegreeTag, w);
    }
    std::vector<bool> high(n, false);
    for (Vertex v : owned) {
      if (g.degree(v) >= threshold) high[v] = true;
    }
    for (const Message& msg : ctx.exchange()) {
      Reader r(msg.payload);
      const std::uint64_t count = r.get_varint();
      for (std::uint64_t i = 0; i < count; ++i) {
        high[static_cast<Vertex>(r.get_varint())] = true;
      }
    }

    // Phase 2: designation -> random edge proxies.
    std::vector<Edge> proxy_edges;
    for (Vertex v : owned) {
      for (Vertex u : g.neighbors(v)) {
        if (part.home(u) == self && u < v) continue;
        const bool both_local = part.home(u) == self;
        if (!both_local && !designates(v, u, high, config.color_seed)) {
          continue;
        }
        const auto [a, b] = std::minmax(u, v);
        const std::size_t proxy = ctx.rng().below(k);
        if (proxy == self) {
          proxy_edges.emplace_back(a, b);
        } else {
          Writer w;
          w.put_varint(a);
          w.put_varint(b);
          ctx.send(proxy, kEdgeToProxyTag, w);
        }
      }
    }

    // Phase 3: proxies fan each edge out to the C(c+1,2) quadruplet
    // machines whose multiset contains both endpoint colors.
    for (const Message& msg : ctx.exchange()) {
      Reader r(msg.payload);
      proxy_edges.emplace_back(static_cast<Vertex>(r.get_varint()),
                               static_cast<Vertex>(r.get_varint()));
    }
    std::vector<Edge> worker_edges;
    for (const auto& [a, b] : proxy_edges) {
      const std::size_t x = color_of(a);
      const std::size_t y = color_of(b);
      std::unordered_set<std::size_t> targets;
      for (std::size_t z = 0; z < c; ++z) {
        for (std::size_t w2 = z; w2 < c; ++w2) {
          targets.insert(table.machine_of({x, y, z, w2}));
        }
      }
      for (const std::size_t target : detail::sorted_keys(targets)) {
        if (target == self) {
          worker_edges.emplace_back(a, b);
        } else {
          Writer w;
          w.put_varint(a);
          w.put_varint(b);
          ctx.send(target, kEdgeToWorkerTag, w);
        }
      }
    }

    // Phase 4: local enumeration filtered by color multiset.
    for (const Message& msg : ctx.exchange()) {
      Reader r(msg.payload);
      worker_edges.emplace_back(static_cast<Vertex>(r.get_varint()),
                                static_cast<Vertex>(r.get_varint()));
    }
    if (self >= table.quads.size()) return;  // idle worker
    const auto quad = table.quads[self];

    LocalEdges subgraph;
    for (const auto& [a, b] : worker_edges) subgraph.add(a, b);
    subgraph.finalize();

    auto accept = [&](Vertex a, Vertex b, Vertex x, Vertex y) {
      std::array<std::uint8_t, 4> cols{
          static_cast<std::uint8_t>(color_of(a)),
          static_cast<std::uint8_t>(color_of(b)),
          static_cast<std::uint8_t>(color_of(x)),
          static_cast<std::uint8_t>(color_of(y))};
      std::sort(cols.begin(), cols.end());
      return cols == quad;
    };
    enumerate_local_k4(subgraph, accept, [&](const Clique4& clique) {
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
