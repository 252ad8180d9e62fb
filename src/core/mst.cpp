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
constexpr std::uint16_t kRegisterTag = 3;   // (frag): a host, no candidate
constexpr std::uint16_t kJumpQueryTag = 4;  // (queried_frag, asking_frag)
constexpr std::uint16_t kJumpReplyTag = 5;  // (asking_frag, new_ptr)
constexpr std::uint16_t kJumpRootTag = 6;   // the same, new_ptr is a root
constexpr std::uint16_t kRootPushTag = 7;   // (frag, root)
constexpr std::uint16_t kFinishedTag = 8;   // (frag): no outgoing edge

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
  Candidate moe;           // invalid: the fragment has no outgoing edge
  std::uint32_t ptr = 0;   // pointer-jumping cursor towards the root
  bool record = false;     // whether this proxy emits the MOE edge
  bool at_root = false;    // ptr is the fragment's new root
  bool pushed = false;     // the root went to the fragment's hosts
  std::uint32_t hosts_begin = 0;  // the hosts to push to, as a range of
  std::uint32_t hosts_end = 0;    // the proxy's host list
};

/// A pointer-jumping query at the queried fragment's proxy: `asking`'s
/// pointer is `queried`, and machine `src` is `asking`'s proxy.
struct JumpQuery {
  std::uint32_t queried = 0;
  std::uint32_t asking = 0;
  std::uint32_t src = 0;
};

/// Its answer: `asking`'s new pointer, and whether that is a root.
struct JumpReply {
  std::uint32_t asking = 0;
  std::uint32_t ptr = 0;
  bool at_root = false;
};

/// One host's Step B entry for a fragment, at the fragment's proxy.
struct Registration {
  std::uint32_t frag = 0;
  std::uint32_t host = 0;
  Candidate cand;  // the host's local MOE of the fragment, if any
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
    // finished[i]: owned[i]'s fragment has no outgoing edge, so it is a
    // whole component and stays as it is.
    std::vector<char> finished(owned.size(), 0);
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
      // frags = the sorted distinct fragments of the owned vertices not
      // known to be finished (fixed until Step D relabels), frag_slot[i]
      // = frag[i]'s index.  Every host of such a fragment registers with
      // its proxy, with its local candidate or empty, so the proxy knows
      // where to push the fragment's new root.
      std::vector<std::uint32_t> frags;
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (!finished[i]) frags.push_back(frag[i]);
      }
      std::sort(frags.begin(), frags.end());
      frags.erase(std::unique(frags.begin(), frags.end()), frags.end());
      std::vector<std::uint32_t> frag_slot(owned.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (finished[i]) continue;
        frag_slot[i] = static_cast<std::uint32_t>(
            std::lower_bound(frags.begin(), frags.end(), frag[i]) -
            frags.begin());
      }
      std::vector<Candidate> local_best(frags.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (finished[i]) continue;
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
      // The registrations this machine receives as a proxy, its own
      // included.
      std::vector<Registration> registrations;
      for (std::size_t c = 0; c < frags.size(); ++c) {
        const Candidate& cand = local_best[c];
        const std::uint32_t f = frags[c];
        const std::size_t proxy = proxy_of(f);
        if (proxy == self) {
          registrations.push_back(
              {.frag = f, .host = static_cast<std::uint32_t>(self),
               .cand = cand});
          continue;
        }
        Writer w;
        w.put_varint(f);
        if (cand.valid) {
          put_edge(w, cand.edge);
          w.put_varint(cand.other_frag);
        }
        ctx.send(proxy, cand.valid ? kCandidateTag : kRegisterTag, w);
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        Registration reg;
        reg.frag = static_cast<std::uint32_t>(r.get_varint());
        reg.host = msg.src;
        if (msg.tag == kCandidateTag) {
          const WeightedEdge e = get_edge(r);
          reg.cand.offer(e, static_cast<std::uint32_t>(r.get_varint()));
        }
        registrations.push_back(reg);
      }
      // proxy_state: one entry per registered fragment, sorted by id.  Its
      // MOE is the least candidate, a minimum under a total order, so it
      // does not depend on the order the candidates arrive in; `hosts`
      // lists the fragment's other hosts in ascending order.
      std::sort(registrations.begin(), registrations.end(),
                [](const Registration& a, const Registration& b) {
                  return a.frag != b.frag ? a.frag < b.frag : a.host < b.host;
                });
      std::vector<std::pair<std::uint32_t, FragState>> proxy_state;
      std::vector<std::uint32_t> hosts;
      for (const Registration& reg : registrations) {
        if (proxy_state.empty() || proxy_state.back().first != reg.frag) {
          proxy_state.emplace_back(reg.frag, FragState{});
          proxy_state.back().second.hosts_begin =
              static_cast<std::uint32_t>(hosts.size());
        }
        FragState& st = proxy_state.back().second;
        if (reg.cand.valid) st.moe.offer(reg.cand.edge, reg.cand.other_frag);
        if (reg.host != self) hosts.push_back(reg.host);
        st.hosts_end = static_cast<std::uint32_t>(hosts.size());
      }
      // The tracked state of fragment f.  Every fragment a pointer or a
      // query can name has an outgoing edge, so its hosts registered it.
      const auto state_of = [&](std::uint32_t f) -> FragState& {
        const auto it = std::lower_bound(
            proxy_state.begin(), proxy_state.end(), f,
            [](const auto& entry, std::uint32_t key) {
              return entry.first < key;
            });
        if (it == proxy_state.end() || it->first != f) {
          throw std::logic_error("mst: fragment not registered at its proxy");
        }
        return it->second;
      };

      // ---- Step C: new roots by pointer jumping across proxies. ----
      // Each fragment f with an MOE starts pointing at its MOE partner;
      // the merge graph is a functional graph whose only cycles are the
      // mutual-MOE 2-cycles (the MOE is unique under mst_edge_less).  A
      // fragment without an MOE is a whole component: its own root.
      // A jump is a query superstep and a reply superstep: ptr[f] <-
      // ptr[ptr[f]], and the reply says whether the new pointer is a
      // root (the answering fragment's own pointer had reached one); a
      // pointer at a root stops asking.  The first query doubles as the
      // mutual check: g's proxy learns from f's query that {f, g} is a
      // mutual pair when g's MOE points back at f.  The smaller half
      // becomes the root and emits the edge, the larger one drops its
      // copy, and both pointers are then at the root.
      // Every query superstep carries the OR of "a pointer here has not
      // reached its root".  False at the first jump, it means no
      // fragment has an MOE and the forest is complete; false later, it
      // means every root is known.  From the second jump on, a query
      // superstep also pushes the root of every fragment that reached it
      // since the previous one to the hosts that registered the fragment
      // in Step B.
      for (auto& [f, st] : proxy_state) {
        if (st.moe.valid) {
          st.ptr = st.moe.other_frag;
          st.record = true;
        } else {
          st.ptr = f;
          st.at_root = true;
        }
      }
      std::vector<std::uint32_t> root_of(frags.size(), kNoFrag);
      std::vector<char> frag_done(frags.size(), 0);
      const auto learn_root = [&](std::uint32_t f, std::uint32_t root,
                                  bool done) {
        const auto it = std::lower_bound(frags.begin(), frags.end(), f);
        if (it == frags.end() || *it != f) {
          throw std::logic_error("mst: root push for an unknown fragment");
        }
        const auto c = static_cast<std::size_t>(it - frags.begin());
        root_of[c] = root;
        frag_done[c] = done ? 1 : 0;
      };
      bool complete = false;
      for (std::size_t jump = 0;; ++jump) {
        if (jump > jump_iters) {
          throw std::logic_error("mst: pointer jumping did not converge");
        }
        // The queries this machine answers this jump: its own first.
        std::vector<JumpQuery> queries;
        bool jumping = false;
        for (auto& [f, st] : proxy_state) {
          if (st.at_root) {
            if (jump == 0 || st.pushed) continue;
            st.pushed = true;
            Writer w;
            w.put_varint(f);
            if (st.moe.valid) w.put_varint(st.ptr);
            const std::uint16_t tag =
                st.moe.valid ? kRootPushTag : kFinishedTag;
            for (std::uint32_t h = st.hosts_begin; h < st.hosts_end; ++h) {
              ctx.send(hosts[h], tag, w.view());
            }
            continue;
          }
          jumping = true;
          const std::size_t target = proxy_of(st.ptr);
          if (target == self) {
            queries.push_back({.queried = st.ptr, .asking = f,
                               .src = static_cast<std::uint32_t>(self)});
            continue;
          }
          Writer w;
          w.put_varint(st.ptr);
          w.put_varint(f);
          ctx.send(target, kJumpQueryTag, w);
        }
        const Gathered step = ctx.exchange_gather(jumping ? 1 : 0);
        for (const Message& msg : step.messages) {
          Reader r(msg.payload);
          const auto g2 = static_cast<std::uint32_t>(r.get_varint());
          if (msg.tag == kJumpQueryTag) {
            queries.push_back(
                {.queried = g2,
                 .asking = static_cast<std::uint32_t>(r.get_varint()),
                 .src = msg.src});
          } else if (msg.tag == kRootPushTag) {
            learn_root(g2, static_cast<std::uint32_t>(r.get_varint()), false);
          } else {
            learn_root(g2, g2, true);
          }
        }
        if (step.sum() == 0) {
          complete = jump == 0;
          break;
        }
        if (jump == 0) {
          for (const JumpQuery& q : queries) {
            FragState& st = state_of(q.queried);
            if (st.moe.other_frag != q.asking) continue;
            if (q.queried > q.asking) {
              st.record = false;  // duplicate (larger) half of the pair
            } else {
              st.ptr = q.queried;
            }
            st.at_root = true;
          }
        }
        // Answers read the pointers as they were before this jump: the
        // local ones wait for the remote replies.
        std::vector<JumpReply> local_replies;
        for (const JumpQuery& q : queries) {
          const FragState& st = state_of(q.queried);
          if (q.src == self) {
            local_replies.push_back(
                {.asking = q.asking, .ptr = st.ptr, .at_root = st.at_root});
            continue;
          }
          Writer w;
          w.put_varint(q.asking);
          w.put_varint(st.ptr);
          ctx.send(q.src, st.at_root ? kJumpRootTag : kJumpReplyTag, w);
        }
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          FragState& st = state_of(static_cast<std::uint32_t>(r.get_varint()));
          st.ptr = static_cast<std::uint32_t>(r.get_varint());
          st.at_root = msg.tag == kJumpRootTag;
        }
        for (const JumpReply& reply : local_replies) {
          FragState& st = state_of(reply.asking);
          st.ptr = reply.ptr;
          st.at_root = reply.at_root;
        }
      }
      if (complete) break;

      // ---- Emit this phase's MST edges at the proxies. ----
      for (const auto& [f, st] : proxy_state) {
        if (st.record) emitted[self].push_back(st.moe.edge);
      }

      // ---- Step D: relabel the owned vertices. ----
      for (std::size_t c = 0; c < frags.size(); ++c) {
        if (proxy_of(frags[c]) != self) continue;
        const FragState& st = state_of(frags[c]);
        learn_root(frags[c], st.ptr, !st.moe.valid);
      }
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (finished[i]) continue;
        const std::uint32_t c = frag_slot[i];
        if (root_of[c] == kNoFrag) {
          throw std::logic_error("mst: no root pushed for a fragment");
        }
        frag[i] = root_of[c];
        finished[i] = frag_done[c];
      }
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
