#include "core/detail/tripartition.hpp"

#include <cmath>
#include <stdexcept>

namespace km::detail {

namespace {

constexpr std::uint16_t kHighDegreeTag = 1;  ///< list of high-degree vertices
constexpr std::uint16_t kEdgeToProxyTag = 2;
constexpr std::uint16_t kEdgeToWorkerTag = 3;

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

void send_edge(MachineContext& ctx, std::size_t dst, std::uint16_t tag,
               Vertex a, Vertex b) {
  Writer w;
  w.put_varint(a);
  w.put_varint(b);
  ctx.send(dst, tag, w);
}

}  // namespace

ColorTuples::ColorTuples(std::size_t colors, std::size_t arity)
    : colors_(colors), arity_(arity) {
  if (colors == 0 || colors > 256 || arity < 2) {
    throw std::invalid_argument("ColorTuples: need 1..256 colors, arity >= 2");
  }
  // Non-decreasing sequences in lexicographic order: bump the rightmost
  // color below the maximum and reset everything after it to its value.
  std::vector<std::uint8_t> t(arity, 0);
  while (true) {
    tuples_.insert(tuples_.end(), t.begin(), t.end());
    std::size_t p = arity;
    while (p > 0 && t[p - 1] + 1u == colors) --p;
    if (p == 0) break;
    std::fill(t.begin() + static_cast<std::ptrdiff_t>(p - 1), t.end(),
              static_cast<std::uint8_t>(t[p - 1] + 1));
  }
  // Every pair of positions of tuple i names a color pair it hosts.
  // Tuples are visited in ascending i, so each list stays sorted.
  hosts_.assign(colors * colors, {});
  for (std::size_t i = 0; i < size(); ++i) {
    const auto tup = tuple(i);
    for (std::size_t p = 0; p < arity; ++p) {
      for (std::size_t q = p + 1; q < arity; ++q) {
        for (const std::size_t slot : {tup[p] * colors + tup[q],
                                       tup[q] * colors + tup[p]}) {
          if (hosts_[slot].empty() || hosts_[slot].back() != i) {
            hosts_[slot].push_back(i);
          }
        }
      }
    }
  }
}

std::vector<Edge> designated_edges(MachineContext& ctx, const Graph& g,
                                   const VertexPartition& part,
                                   double threshold_factor,
                                   std::uint64_t seed) {
  const std::size_t n = g.num_vertices();
  const std::size_t self = ctx.id();
  const auto& owned = part.owned(self);
  const double log2n =
      std::max(1.0, std::log2(std::max<double>(2.0, static_cast<double>(n))));
  const auto threshold = static_cast<std::size_t>(
      threshold_factor * static_cast<double>(ctx.k()) * log2n);

  // Announce high-degree vertices (one broadcast).
  std::vector<bool> high(n, false);
  {
    Writer w;
    std::uint64_t count = 0;
    Writer ids;
    for (Vertex v : owned) {
      if (g.degree(v) >= threshold) {
        high[v] = true;
        ids.put_varint(v);
        ++count;
      }
    }
    w.put_varint(count);
    w.put_bytes(ids.view());
    ctx.broadcast(kHighDegreeTag, w);
  }
  for (const Message& msg : ctx.exchange()) {
    if (msg.tag != kHighDegreeTag) {
      throw std::logic_error(
          "tripartition: unexpected tag in high-degree broadcast");
    }
    Reader r(msg.payload);
    const std::uint64_t count = r.get_varint();
    for (std::uint64_t i = 0; i < count; ++i) {
      high[static_cast<Vertex>(r.get_varint())] = true;
    }
  }

  // Designate each edge once (no randomness, no sends).
  std::vector<Edge> edges;
  for (Vertex v : owned) {
    for (Vertex u : g.neighbors(v)) {
      const bool both_local = part.home(u) == self;
      // Both endpoints local: keep the edge once, from its smaller end.
      if (both_local && u < v) continue;
      if (!both_local && !designates(v, u, high, seed)) continue;
      edges.emplace_back(std::minmax(u, v));
    }
  }
  return edges;
}

std::vector<Edge> route_to_tuples(MachineContext& ctx,
                                  const std::vector<Edge>& designated,
                                  const ColorTuples& tuples,
                                  std::uint64_t color_seed) {
  // Each designated edge goes to a uniformly random proxy.
  const std::size_t self = ctx.id();
  std::vector<Edge> proxied;  // edges this machine proxies
  for (const auto& [a, b] : designated) {
    const std::size_t proxy = ctx.rng().below(ctx.k());
    if (proxy == self) {
      proxied.emplace_back(a, b);
    } else {
      send_edge(ctx, proxy, kEdgeToProxyTag, a, b);
    }
  }
  receive_edges(ctx, kEdgeToProxyTag, proxied);

  // Each proxy forwards an edge to the machines whose multiset contains
  // both endpoint colors (the paper's k^{1/3} copies per edge for s = 3).
  std::vector<Edge> received;  // edges this machine's tuple works on
  for (const auto& [a, b] : proxied) {
    for (const std::size_t host :
         tuples.hosts(vertex_color(color_seed, a, tuples.colors()),
                      vertex_color(color_seed, b, tuples.colors()))) {
      if (host == self) {
        received.emplace_back(a, b);
      } else {
        send_edge(ctx, host, kEdgeToWorkerTag, a, b);
      }
    }
  }
  receive_edges(ctx, kEdgeToWorkerTag, received);
  return received;
}

void receive_edges(MachineContext& ctx, std::uint16_t tag,
                   std::vector<Edge>& out) {
  for (const Message& msg : ctx.exchange()) {
    if (msg.tag != tag) {
      throw std::logic_error("tripartition: unexpected message tag");
    }
    Reader r(msg.payload);
    const auto a = static_cast<Vertex>(r.get_varint());
    const auto b = static_cast<Vertex>(r.get_varint());
    out.emplace_back(a, b);
  }
}

}  // namespace km::detail
