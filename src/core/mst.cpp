#include "core/mst.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace km {

namespace {

constexpr std::uint16_t kFragPushTag = 1;   // (vertex, fragment)
constexpr std::uint16_t kCandidateTag = 2;  // (frag, u, v, w, other_frag)
constexpr std::uint16_t kMutualTag = 3;     // (to_frag, from_frag, u, v, w)
constexpr std::uint16_t kJumpQueryTag = 4;  // (queried_frag, asking_frag)
constexpr std::uint16_t kJumpReplyTag = 5;  // (asking_frag, new_ptr)
constexpr std::uint16_t kRootQueryTag = 6;  // (frag)
constexpr std::uint16_t kRootReplyTag = 7;  // (frag, root)

/// No label received for a neighbor this phase (fragment ids are vertex
/// ids, so never this value).
constexpr std::uint32_t kNoFrag = 0xFFFFFFFF;
/// An owned vertex with no neighbor on its own machine has no ghost slot.
constexpr std::uint32_t kNoSlot = 0xFFFFFFFF;

struct Candidate {
  bool valid = false;
  WeightedEdge edge;
  std::uint32_t other_frag = 0;

  void offer(const WeightedEdge& e, std::uint32_t other) {
    if (!valid || mst_edge_less(e, edge)) {
      valid = true;
      edge = e;
      other_frag = other;
    }
  }
};

/// Per-fragment state a proxy machine tracks within one phase.
struct FragState {
  Candidate moe;
  std::uint32_t ptr = 0;   // pointer-jumping cursor towards the root
  bool record = false;     // whether this proxy emits the MOE edge
};

void put_edge(Writer& w, const WeightedEdge& e) {
  w.put_varint(e.u);
  w.put_varint(e.v);
  w.put_varint(e.weight);
}

WeightedEdge get_edge(Reader& r) {
  WeightedEdge e;
  e.u = static_cast<Vertex>(r.get_varint());
  e.v = static_cast<Vertex>(r.get_varint());
  e.weight = r.get_varint();
  return e;
}

DistributedMstResult run_boruvka(const WeightedGraph& g,
                                 const VertexPartition& part, Engine& engine,
                                 std::uint64_t proxy_seed) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument("mst: partition does not match graph/k");
  }
  const std::size_t max_phases = ceil_log2(std::max<std::size_t>(n, 2)) + 1;
  const std::size_t jump_iters = ceil_log2(std::max<std::size_t>(n, 2)) + 1;

  DistributedMstResult result;
  result.fragment_of.assign(n, 0);
  std::vector<std::vector<WeightedEdge>> emitted(k);
  std::vector<std::size_t> phases_by_machine(k, 0);

  const auto proxy_of = [&](std::uint32_t frag) {
    return static_cast<std::size_t>(hash_vertex(proxy_seed, frag) % k);
  };

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = part.owned(self);

    // Dense local indexes, fixed for the run: ghost = the sorted
    // distinct neighbors of the owned vertices; arc_ghost = each arc's
    // ghost slot (owned[i]'s arcs are [arc_begin[i], arc_begin[i + 1]));
    // targets = each owned vertex's sorted distinct remote neighbor
    // machines; own_ghost[i] = owned[i]'s ghost slot when a neighbor of
    // it is hosted here, kNoSlot otherwise.
    std::vector<Vertex> ghost;
    std::vector<std::size_t> arc_begin{0};
    for (const Vertex v : owned) {
      const auto ns = g.neighbors(v);
      ghost.insert(ghost.end(), ns.begin(), ns.end());
      arc_begin.push_back(ghost.size());
    }
    std::sort(ghost.begin(), ghost.end());
    ghost.erase(std::unique(ghost.begin(), ghost.end()), ghost.end());
    const auto ghost_slot = [&](Vertex v) {
      const auto it = std::lower_bound(ghost.begin(), ghost.end(), v);
      if (it == ghost.end() || *it != v) {
        throw std::logic_error("mst: label for a vertex with no neighbor here");
      }
      return static_cast<std::uint32_t>(it - ghost.begin());
    };
    std::vector<std::uint32_t> arc_ghost;
    arc_ghost.reserve(arc_begin.back());
    std::vector<std::uint32_t> own_ghost(owned.size(), kNoSlot);
    std::vector<std::uint32_t> targets;
    std::vector<std::size_t> target_begin{0};
    for (std::size_t i = 0; i < owned.size(); ++i) {
      bool local = false;
      for (const Vertex u : g.neighbors(owned[i])) {
        arc_ghost.push_back(ghost_slot(u));
        const std::uint32_t m = part.home(u);
        if (m == self) {
          local = true;
        } else {
          targets.push_back(m);
        }
      }
      if (local) own_ghost[i] = ghost_slot(owned[i]);
      const auto first = targets.begin() +
                         static_cast<std::ptrdiff_t>(target_begin.back());
      std::sort(first, targets.end());
      targets.erase(std::unique(first, targets.end()), targets.end());
      target_begin.push_back(targets.size());
    }
    // arrival = the ghost slots homed elsewhere, in the order Step A's
    // labels arrive: by ascending source, and within a source in its
    // ascending owned order.  Each such ghost has a neighbor here, so its
    // home pushes its label here exactly once per phase.
    std::vector<std::uint32_t> arrival;
    for (std::uint32_t s = 0; s < ghost.size(); ++s) {
      if (part.home(ghost[s]) != self) arrival.push_back(s);
    }
    std::stable_sort(arrival.begin(), arrival.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return part.home(ghost[a]) < part.home(ghost[b]);
                     });

    // frag[i] = fragment (root vertex id) of owned[i].
    std::vector<std::uint32_t> frag(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) frag[i] = owned[i];
    std::vector<std::uint32_t> nbr_frag(ghost.size());
    Writer label;
    std::size_t phase = 0;
    while (phase < max_phases) {
      ++phase;

      // ---- Step A: push fragment labels to neighbors' machines. ----
      std::fill(nbr_frag.begin(), nbr_frag.end(), kNoFrag);
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (own_ghost[i] != kNoSlot) nbr_frag[own_ghost[i]] = frag[i];
        label.clear();
        label.put_varint(owned[i]);
        label.put_varint(frag[i]);
        for (std::size_t t = target_begin[i]; t < target_begin[i + 1]; ++t) {
          ctx.send(targets[t], kFragPushTag, label.view());
        }
      }
      std::size_t next = 0;
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto v = static_cast<Vertex>(r.get_varint());
        if (next == arrival.size() || ghost[arrival[next]] != v) {
          throw std::logic_error("mst: label push out of arrival order");
        }
        nbr_frag[arrival[next++]] = static_cast<std::uint32_t>(r.get_varint());
      }

      // ---- Step B: local MOE per fragment -> fragment proxies. ----
      // frags = the sorted distinct fragments of the owned vertices
      // (fixed until Step D relabels), frag_slot[i] = frag[i]'s index.
      std::vector<std::uint32_t> frags(frag);
      std::sort(frags.begin(), frags.end());
      frags.erase(std::unique(frags.begin(), frags.end()), frags.end());
      std::vector<std::uint32_t> frag_slot(owned.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        frag_slot[i] = static_cast<std::uint32_t>(
            std::lower_bound(frags.begin(), frags.end(), frag[i]) -
            frags.begin());
      }
      std::vector<Candidate> local_best(frags.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        const Vertex v = owned[i];
        const auto ns = g.neighbors(v);
        const auto ws = g.weights(v);
        for (std::size_t j = 0; j < ns.size(); ++j) {
          const std::uint32_t other = nbr_frag[arc_ghost[arc_begin[i] + j]];
          if (other == kNoFrag) {
            throw std::logic_error("mst: missing neighbor fragment");
          }
          if (other == frag[i]) continue;  // internal edge
          local_best[frag_slot[i]].offer(
              WeightedEdge{std::min(v, ns[j]), std::max(v, ns[j]), ws[j]},
              other);
        }
      }
      // proxy_state: the fragments this machine is proxy for, sorted by
      // id.  The global MOE is a minimum under a total order, so it does
      // not depend on the order the candidates arrive in.
      std::vector<std::pair<std::uint32_t, FragState>> proxy_state;
      const auto add_candidate = [&](std::uint32_t f, const WeightedEdge& e,
                                     std::uint32_t other) {
        FragState st;
        st.moe.offer(e, other);
        proxy_state.emplace_back(f, st);
      };
      for (std::size_t c = 0; c < frags.size(); ++c) {
        const Candidate& cand = local_best[c];
        if (!cand.valid) continue;
        const std::uint32_t f = frags[c];
        const std::size_t proxy = proxy_of(f);
        if (proxy == self) {
          add_candidate(f, cand.edge, cand.other_frag);
        } else {
          Writer w;
          w.put_varint(f);
          put_edge(w, cand.edge);
          w.put_varint(cand.other_frag);
          ctx.send(proxy, kCandidateTag, w);
        }
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto f = static_cast<std::uint32_t>(r.get_varint());
        const WeightedEdge e = get_edge(r);
        add_candidate(f, e, static_cast<std::uint32_t>(r.get_varint()));
      }
      // By fragment, then MOE first; keep each fragment's first entry.
      std::sort(proxy_state.begin(), proxy_state.end(),
                [](const auto& a, const auto& b) {
                  return a.first != b.first
                             ? a.first < b.first
                             : mst_edge_less(a.second.moe.edge,
                                             b.second.moe.edge);
                });
      proxy_state.erase(
          std::unique(proxy_state.begin(), proxy_state.end(),
                      [](const auto& a, const auto& b) {
                        return a.first == b.first;
                      }),
          proxy_state.end());
      // The tracked state of fragment f, or null when f is finished.
      const auto find_state = [&](std::uint32_t f) -> FragState* {
        const auto it = std::lower_bound(
            proxy_state.begin(), proxy_state.end(), f,
            [](const auto& entry, std::uint32_t key) {
              return entry.first < key;
            });
        return (it == proxy_state.end() || it->first != f) ? nullptr
                                                           : &it->second;
      };

      // ---- Step C: break mutual-MOE 2-cycles, pick roots. ----
      // Every tracked fragment tells its parent's proxy about its MOE;
      // the smaller fragment of a mutual pair becomes the root and emits
      // the edge (dedup), the larger one drops its copy.
      // Each tracked fragment f points at its MOE partner; the merge
      // graph is a functional graph whose only cycles are the mutual-MOE
      // 2-cycles (the MOE is unique under mst_edge_less).  The larger
      // half of each mutual pair drops its duplicate edge copy here; the
      // pair minimum becomes the root via the min rule during pointer
      // jumping below.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> drop_if_mutual;
      for (auto& [f, st] : proxy_state) {
        st.ptr = st.moe.other_frag;
        st.record = true;
        const std::size_t target = proxy_of(st.moe.other_frag);
        if (target == self) {
          drop_if_mutual.emplace_back(st.moe.other_frag, f);
          continue;
        }
        Writer w;
        w.put_varint(st.moe.other_frag);
        w.put_varint(f);
        put_edge(w, st.moe.edge);
        ctx.send(target, kMutualTag, w);
      }
      auto apply_mutual = [&](std::uint32_t gf, std::uint32_t from,
                              const WeightedEdge& e) {
        FragState* st = find_state(gf);
        if (st == nullptr) return;  // finished fragment
        if (st->moe.valid && st->moe.other_frag == from &&
            st->moe.edge == e && gf > from) {
          st->record = false;  // duplicate (larger) half of a mutual pair
        }
      };
      for (const auto& [gf, from] : drop_if_mutual) {
        apply_mutual(gf, from, find_state(from)->moe.edge);
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto gf = static_cast<std::uint32_t>(r.get_varint());
        const auto from = static_cast<std::uint32_t>(r.get_varint());
        apply_mutual(gf, from, get_edge(r));
      }

      // Pointer jumping across fragment proxies: ptr[f] <- ptr[ptr[f]]
      // each iteration; a query that closes a 2-cycle resolves to the
      // pair minimum, which thereby becomes the root.
      for (std::size_t jump = 0; jump < jump_iters; ++jump) {
        bool changed = false;
        for (const auto& [f, st] : proxy_state) {
          const std::size_t target = proxy_of(st.ptr);
          if (target == self) continue;  // resolved locally below
          Writer w;
          w.put_varint(st.ptr);
          w.put_varint(f);
          ctx.send(target, kJumpQueryTag, w);
        }
        // Answer queries: ptr[g], with the 2-cycle min rule.
        auto answer = [&](std::uint32_t g,
                          std::uint32_t asking) -> std::uint32_t {
          const FragState* st = find_state(g);
          if (st == nullptr) return g;  // finished: g is a root
          const std::uint32_t next = st->ptr;
          if (next == asking) return std::min(g, asking);  // 2-cycle
          return next;
        };
        // (index into proxy_state, new ptr)
        std::vector<std::pair<std::size_t, std::uint32_t>> local_updates;
        for (std::size_t c = 0; c < proxy_state.size(); ++c) {
          const auto& [f, st] = proxy_state[c];
          if (proxy_of(st.ptr) != self) continue;
          local_updates.emplace_back(c, answer(st.ptr, f));
        }
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          const auto g2 = static_cast<std::uint32_t>(r.get_varint());
          const auto asking = static_cast<std::uint32_t>(r.get_varint());
          Writer w;
          w.put_varint(asking);
          w.put_varint(answer(g2, asking));
          ctx.send(msg.src, kJumpReplyTag, w);
        }
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          const auto f = static_cast<std::uint32_t>(r.get_varint());
          const auto next = static_cast<std::uint32_t>(r.get_varint());
          FragState* st = find_state(f);
          if (st == nullptr) {
            throw std::logic_error("mst: jump reply for an untracked fragment");
          }
          changed |= (st->ptr != next);
          st->ptr = next;
        }
        for (const auto& [c, next] : local_updates) {
          FragState& st = proxy_state[c].second;
          changed |= (st.ptr != next);
          st.ptr = next;
        }
        // Chains are typically short; stop jumping as soon as every
        // pointer is stable everywhere (one tiny collective per jump).
        if (!ctx.all_reduce_or(changed)) break;
      }

      // ---- Emit this phase's MST edges at the proxies. ----
      std::uint64_t added_here = 0;
      for (const auto& [f, st] : proxy_state) {
        if (st.record && st.moe.valid) {
          emitted[self].push_back(st.moe.edge);
          ++added_here;
        }
      }

      // ---- Step D: home machines learn their vertices' new roots. ----
      const auto root_at_proxy = [&](std::uint32_t f) {
        const FragState* st = find_state(f);
        return st == nullptr ? f : st->ptr;
      };
      std::vector<std::uint32_t> root_of(frags.size());
      for (std::size_t c = 0; c < frags.size(); ++c) {
        const std::uint32_t f = frags[c];
        const std::size_t proxy = proxy_of(f);
        if (proxy == self) {
          root_of[c] = root_at_proxy(f);
        } else {
          Writer w;
          w.put_varint(f);
          ctx.send(proxy, kRootQueryTag, w);
        }
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto f = static_cast<std::uint32_t>(r.get_varint());
        Writer w;
        w.put_varint(f);
        w.put_varint(root_at_proxy(f));
        ctx.send(msg.src, kRootReplyTag, w);
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        const auto f = static_cast<std::uint32_t>(r.get_varint());
        const auto it = std::lower_bound(frags.begin(), frags.end(), f);
        if (it == frags.end() || *it != f) {
          throw std::logic_error("mst: root reply for an unknown fragment");
        }
        root_of[static_cast<std::size_t>(it - frags.begin())] =
            static_cast<std::uint32_t>(r.get_varint());
      }
      for (std::size_t i = 0; i < owned.size(); ++i) {
        frag[i] = root_of[frag_slot[i]];
      }

      // ---- Termination: no fragment found an outgoing edge. ----
      if (ctx.all_reduce_sum(added_here) == 0) break;
    }

    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.fragment_of[owned[i]] = frag[i];
    }
    phases_by_machine[self] = phase;
  };

  result.metrics = engine.run(program);
  for (auto& edges : emitted) {
    result.edges.insert(result.edges.end(), edges.begin(), edges.end());
  }
  std::sort(result.edges.begin(), result.edges.end(), mst_edge_less);
  for (const auto& e : result.edges) result.total_weight += e.weight;
  result.phases = phases_by_machine.empty() ? 0 : phases_by_machine[0];
  return result;
}

}  // namespace

DistributedMstResult distributed_mst(const WeightedGraph& g,
                                     const VertexPartition& partition,
                                     Engine& engine,
                                     std::uint64_t proxy_seed) {
  return run_boruvka(g, partition, engine, proxy_seed);
}

DistributedComponentsResult distributed_components(
    const Graph& g, const VertexPartition& partition, Engine& engine,
    std::uint64_t proxy_seed) {
  // Arbitrary distinct weights make Boruvka's choices unique; the
  // resulting forest spans each component.
  std::vector<WeightedEdge> edges;
  edges.reserve(g.num_edges());
  for (const auto& [u, v] : g.edge_list()) {
    edges.push_back({u, v, 1 + hash_edge(proxy_seed ^ 0x11, u, v) % 1000003});
  }
  const auto wg = WeightedGraph::from_edges(g.num_vertices(), std::move(edges));
  auto mst = run_boruvka(wg, partition, engine, proxy_seed);

  DistributedComponentsResult result;
  result.labels = std::move(mst.fragment_of);
  result.phases = mst.phases;
  result.metrics = mst.metrics;
  std::vector<std::uint32_t> distinct(result.labels);
  std::sort(distinct.begin(), distinct.end());
  result.num_components = static_cast<std::size_t>(
      std::unique(distinct.begin(), distinct.end()) - distinct.begin());
  return result;
}

}  // namespace km
