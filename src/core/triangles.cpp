#include "core/triangles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/detail/sorted.hpp"
#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace km {

namespace {

constexpr std::uint16_t kHighDegreeTag = 1;  ///< list of high-degree vertices
constexpr std::uint16_t kEdgeToProxyTag = 2;
constexpr std::uint16_t kEdgeToWorkerTag = 3;
constexpr std::uint16_t kEdgeBroadcastTag = 4;

/// Sorted color triplets {a <= b <= c'} in lexicographic order; triplet i
/// is hosted by machine i (a fixed assignment known to all machines, as in
/// the paper's "deterministic assignment of triplets ... hard-coded into
/// the algorithm").
struct TripletTable {
  std::size_t colors = 0;
  std::vector<std::array<std::uint8_t, 3>> triplets;
  std::vector<std::int32_t> index_of;  // packed sorted triple -> machine

  explicit TripletTable(std::size_t c) : colors(c) {
    index_of.assign(c * c * c, -1);
    for (std::size_t a = 0; a < c; ++a) {
      for (std::size_t b = a; b < c; ++b) {
        for (std::size_t d = b; d < c; ++d) {
          index_of[pack(a, b, d)] =
              static_cast<std::int32_t>(triplets.size());
          triplets.push_back({static_cast<std::uint8_t>(a),
                              static_cast<std::uint8_t>(b),
                              static_cast<std::uint8_t>(d)});
        }
      }
    }
  }

  std::size_t pack(std::size_t a, std::size_t b, std::size_t d) const {
    return (a * colors + b) * colors + d;
  }

  /// Machine hosting the sorted multiset {x, y, z}.
  std::size_t machine_of(std::size_t x, std::size_t y, std::size_t z) const {
    std::array<std::size_t, 3> t{x, y, z};
    std::sort(t.begin(), t.end());
    return static_cast<std::size_t>(index_of[pack(t[0], t[1], t[2])]);
  }
};

struct EdgeSet {
  // Adjacency built from received edges; sorted lists, queried via
  // binary search for the open-triad absence test.
  std::unordered_map<Vertex, std::vector<Vertex>> adjacency;

  void add(Vertex u, Vertex v) {
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
  }

  void finalize() {
    detail::for_sorted(adjacency, [](Vertex, std::vector<Vertex>& ns) {
      std::sort(ns.begin(), ns.end());
      ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
    });
  }

  bool has_edge(Vertex u, Vertex v) const {
    const auto it = adjacency.find(u);
    if (it == adjacency.end()) return false;
    return std::binary_search(it->second.begin(), it->second.end(), v);
  }
};

/// Enumerates closed triangles of the local edge set, each exactly once
/// (base edge (a,b) with a<b, apex w > b), filtered by `accept`.
template <typename Accept, typename Out>
void enumerate_local_triangles(const EdgeSet& edges, Accept accept, Out out) {
  detail::for_sorted(edges.adjacency, [&](Vertex u,
                                          const std::vector<Vertex>& ns) {
    for (Vertex v : ns) {
      if (v <= u) continue;  // base edge u < v
      const auto itv = edges.adjacency.find(v);
      if (itv == edges.adjacency.end()) continue;
      const auto& nu = ns;
      const auto& nv = itv->second;
      auto iu = std::upper_bound(nu.begin(), nu.end(), v);
      auto iv = std::upper_bound(nv.begin(), nv.end(), v);
      while (iu != nu.end() && iv != nv.end()) {
        if (*iu < *iv) {
          ++iu;
        } else if (*iv < *iu) {
          ++iv;
        } else {
          if (accept(u, v, *iu)) out(Triangle{u, v, *iu});
          ++iu;
          ++iv;
        }
      }
    }
  });
}

/// Enumerates open triads u-v-w (center v, u < w, edge (u,w) absent),
/// each exactly once, filtered by `accept`.
template <typename Accept, typename Out>
void enumerate_local_triads(const EdgeSet& edges, Accept accept, Out out) {
  detail::for_sorted(edges.adjacency, [&](Vertex v,
                                          const std::vector<Vertex>& ns) {
    for (std::size_t i = 0; i < ns.size(); ++i) {
      for (std::size_t j = i + 1; j < ns.size(); ++j) {
        const Vertex u = ns[i], w = ns[j];
        if (!edges.has_edge(u, w) && accept(u, v, w)) {
          Triangle t{u, v, w};
          std::sort(t.begin(), t.end());
          out(t);
        }
      }
    }
  });
}

/// True if this machine (not the other endpoint's home) must designate
/// the proxy for edge (mine, other), where `mine` is owned locally.
bool designates(Vertex mine, Vertex other, const std::vector<bool>& high,
                std::uint64_t seed) {
  const bool mine_high = high[mine];
  const bool other_high = high[other];
  if (other_high && !mine_high) return true;   // low side serves high side
  if (mine_high && !other_high) return false;
  // Both high or both low: pseudo-random tie break (paper: "broken
  // randomly"); the hash makes both endpoints agree without messages.
  const Vertex chosen = (hash_edge(seed, mine, other) & 1)
                            ? std::min(mine, other)
                            : std::max(mine, other);
  return chosen == mine;
}

TriangleResult run_triangles(const Graph& g, const VertexPartition& part,
                             Engine& engine, const TriangleConfig& config,
                             bool use_tripartition) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument("triangles: partition does not match graph/k");
  }
  const std::size_t c = std::max<std::size_t>(1, floor_cbrt(k));
  const TripletTable table(c);
  const double log2n = std::max(1.0, std::log2(std::max<double>(2.0, static_cast<double>(n))));
  const auto threshold = static_cast<std::size_t>(
      config.degree_threshold_factor * static_cast<double>(k) * log2n);

  auto color_of = [&](Vertex v) -> std::size_t {
    return hash_vertex(config.color_seed, v) % c;
  };

  TriangleResult result;
  result.per_machine_counts.assign(k, 0);
  result.per_machine_triples.assign(k, {});

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = part.owned(self);

    // ---- Phase 1: announce high-degree vertices (one broadcast). ----
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
      if (msg.tag != kHighDegreeTag) {
        throw std::logic_error("triangles: unexpected tag in phase 1");
      }
      Reader r(msg.payload);
      const std::uint64_t count = r.get_varint();
      for (std::uint64_t i = 0; i < count; ++i) {
        high[static_cast<Vertex>(r.get_varint())] = true;
      }
    }

    // ---- Phase 2: designate each edge once; ship it to a random proxy
    // (TriPartition) or broadcast it to everyone (baseline). ----
    std::vector<Edge> proxy_edges;   // edges proxied locally
    EdgeSet local_subgraph;          // baseline: full graph replica
    for (Vertex v : owned) {
      for (Vertex u : g.neighbors(v)) {
        // Skip the duplicate enumeration when both endpoints are local.
        if (part.home(u) == self && u < v) continue;
        const bool both_local = part.home(u) == self;
        if (!both_local && !designates(v, u, high, config.color_seed)) {
          continue;
        }
        const auto [a, b] = std::minmax(u, v);
        if (use_tripartition) {
          const std::size_t proxy = ctx.rng().below(k);
          if (proxy == self) {
            proxy_edges.emplace_back(a, b);
          } else {
            Writer w;
            w.put_varint(a);
            w.put_varint(b);
            ctx.send(proxy, kEdgeToProxyTag, w);
          }
        } else {
          local_subgraph.add(a, b);
          Writer w;
          w.put_varint(a);
          w.put_varint(b);
          ctx.broadcast(kEdgeBroadcastTag, w);
        }
      }
    }

    if (!use_tripartition) {
      // ---- Baseline: everyone receives every edge; machine j outputs
      // the triangles/triads whose smallest vertex hashes to j. ----
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto a = static_cast<Vertex>(r.get_varint());
        const auto b = static_cast<Vertex>(r.get_varint());
        local_subgraph.add(a, b);
      }
      local_subgraph.finalize();
      auto mine = [&](Vertex u, Vertex v, Vertex w) {
        const Vertex smallest = std::min({u, v, w});
        return hash_vertex(config.color_seed ^ 0x5a5a, smallest) % k == self;
      };
      auto emit = [&](const Triangle& t) {
        ++result.per_machine_counts[self];
        if (config.record_triples) {
          result.per_machine_triples[self].push_back(t);
        }
      };
      if (config.mode == TriadMode::kTriangles) {
        enumerate_local_triangles(local_subgraph, mine, emit);
      } else {
        enumerate_local_triads(local_subgraph, mine, emit);
      }
      return;
    }

    // ---- Phase 3 (TriPartition): proxies forward each edge to the <= c
    // machines whose triplet contains both endpoint colors. ----
    for (const Message& msg : ctx.exchange()) {
      if (msg.tag != kEdgeToProxyTag) {
        throw std::logic_error("triangles: unexpected tag in phase 3");
      }
      Reader r(msg.payload);
      proxy_edges.emplace_back(static_cast<Vertex>(r.get_varint()),
                               static_cast<Vertex>(r.get_varint()));
    }
    std::vector<Edge> worker_edges;  // edges this machine works on
    for (const auto& [a, b] : proxy_edges) {
      const std::size_t x = color_of(a);
      const std::size_t y = color_of(b);
      std::unordered_set<std::size_t> targets;
      for (std::size_t z = 0; z < c; ++z) {
        targets.insert(table.machine_of(x, y, z));
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

    // ---- Phase 4: local enumeration on the triplet subgraph. ----
    for (const Message& msg : ctx.exchange()) {
      if (msg.tag != kEdgeToWorkerTag) {
        throw std::logic_error("triangles: unexpected tag in phase 4");
      }
      Reader r(msg.payload);
      worker_edges.emplace_back(static_cast<Vertex>(r.get_varint()),
                                static_cast<Vertex>(r.get_varint()));
    }
    if (self >= table.triplets.size()) return;  // no triplet: idle worker
    const auto triplet = table.triplets[self];

    EdgeSet subgraph;
    for (const auto& [a, b] : worker_edges) subgraph.add(a, b);
    subgraph.finalize();

    // Accept exactly the triples whose color multiset equals our triplet,
    // so each triangle/triad is output by exactly one machine.
    auto accept = [&](Vertex u, Vertex v, Vertex w) {
      std::array<std::uint8_t, 3> cols{
          static_cast<std::uint8_t>(color_of(u)),
          static_cast<std::uint8_t>(color_of(v)),
          static_cast<std::uint8_t>(color_of(w))};
      std::sort(cols.begin(), cols.end());
      return cols == triplet;
    };
    auto emit = [&](const Triangle& t) {
      ++result.per_machine_counts[self];
      if (config.record_triples) {
        result.per_machine_triples[self].push_back(t);
      }
    };
    if (config.mode == TriadMode::kTriangles) {
      enumerate_local_triangles(subgraph, accept, emit);
    } else {
      enumerate_local_triads(subgraph, accept, emit);
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
