#include "core/connectivity.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/sketch.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace km {

namespace {

// Every plane is batched per link: one message per (src, dst, superstep)
// holding every entry bound for dst, so the per-message header is paid
// once per link instead of once per label.
constexpr std::uint16_t kSketchTag = 1;  // [label, nnz, (cell pos, cell)*]*
constexpr std::uint16_t kCandidateTag = 7;  // [label, n, edge id*]*
constexpr std::uint16_t kLabelQueryTag = 4;  // [vertex]*
constexpr std::uint16_t kLabelReplyTag = 5;  // [label]* in query order
// stats (attempts, failures, alive) then [label, root, finished]*
constexpr std::uint16_t kRootPushTag = 6;
constexpr std::uint16_t kEdgeShipTag = 8;    // baseline: (u, v)
constexpr std::uint16_t kLabelShipTag = 9;   // baseline: labels, owned order

// ℓ₀ samplers per sketch.  Phase 0 uses kMinRows; between phases the
// count adapts within [kMinRows, kMaxRows] from the global sample-failure
// rate (>= 1/4 of the folds failing adds a row, <= 1/16 drops one).  The
// failure totals ride the root push, so every machine sees the same
// numbers and the next phase's sketch shapes stay agreed.
constexpr std::uint32_t kMinRows = 2;
constexpr std::uint32_t kMaxRows = 6;

/// Candidate edges kept per component and phase; bounds the label-query
/// bits.
constexpr std::size_t kMaxCandidates = 4;

/// An outgoing edge a holder recovered for a component this phase.
struct CandidateEdge {
  Vertex a = 0;
  Vertex b = 0;
};

/// A nonzero cell of label's sketch at grid position pos, held for the
/// fold at its holder.
struct HeldCell {
  std::uint32_t label = 0;
  std::uint32_t pos = 0;
  SketchCell cell;
};

/// A sort key: hi groups, lo orders within a group.
std::uint64_t pack(std::uint64_t hi, std::uint64_t lo) {
  return (hi << 32) | lo;
}

std::size_t count_distinct(std::vector<std::uint32_t> labels) {
  std::sort(labels.begin(), labels.end());
  return static_cast<std::size_t>(
      std::unique(labels.begin(), labels.end()) - labels.begin());
}

}  // namespace

DistributedComponentsResult sketch_connectivity(const Graph& g,
                                                const VertexPartition& part,
                                                Engine& engine,
                                                std::uint64_t seed) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument(
        "sketch connectivity: partition does not match graph/k");
  }
  const EdgeIdCodec codec(n);
  const std::uint32_t id_bits = codec.id_bits();
  // Generous against the O(log n) whp phase bound; running out throws.
  const std::size_t max_phases =
      4 * std::size_t{ceil_log2(std::max<std::uint64_t>(n, 2))} + 16;

  DistributedComponentsResult result;
  result.labels.assign(n, 0);

  // part.rank(v) = v's index in its home machine's owned list: the
  // home's slot for v's per-vertex state, and the proxy key.  Balanced
  // proxies (rank mod k) spread machine m's hosted labels over proxies in
  // lockstep — at phase 0 (labels = owned vertices) every (machine,
  // proxy) link carries exactly floor/ceil(|owned|/k) sketches, where a
  // hashed assignment pays a binomial tail of ~1.8x the mean on some
  // link.  The partition is shared knowledge, so every host of a label
  // computes the same proxy without communication.
  const auto proxy_of = [&](std::uint32_t label) {
    return static_cast<std::size_t>(part.rank(label) % k);
  };

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = part.owned(self);

    // frag[i] = component label of owned[i]; done[i] marks a vertex of a
    // complete connected component.  Its label never changes again, and
    // no live vertex can take it (a complete component has no outgoing
    // edge to hook across).
    std::vector<std::uint32_t> frag(owned.begin(), owned.end());
    std::vector<bool> done(owned.size(), false);

    // One reusable Writer per destination; flush() sends every non-empty
    // one under the plane's tag (send() consumes the contents, so the
    // writers are clean for the next plane).
    std::vector<Writer> outbox(k);
    const auto flush = [&](std::uint16_t tag) {
      for (std::size_t dst = 0; dst < k; ++dst) {
        if (dst != self && outbox[dst].size_bytes() != 0) {
          ctx.send(dst, tag, outbox[dst]);
        }
      }
    };
    // Per-destination scratch reused every phase: label-query indexes
    // per home machine, and flat (label, root, finished) push triples
    // per host.
    std::vector<std::vector<std::uint32_t>> asked(k);
    std::vector<std::vector<std::uint32_t>> tri(k);

    std::uint32_t rows = kMinRows;
    std::size_t phase = 0;
    bool converged = false;
    while (!converged) {
      if (phase >= max_phases) {
        throw std::runtime_error(
            "sketch connectivity: phase budget exhausted without convergence");
      }
      const std::uint64_t phase_seed = mix64(seed, 0xB0'12'34'00ULL + phase);
      const std::uint64_t z = sketch_fingerprint_base(phase_seed);
      const L0SketchShape shape{
          .id_bits = id_bits, .rows = rows, .seed = phase_seed};

      // labels = the sorted distinct labels of the live owned vertices,
      // slot[i] = owned[i]'s index into them.
      std::vector<std::uint32_t> labels;
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (!done[i]) labels.push_back(frag[i]);
      }
      std::sort(labels.begin(), labels.end());
      labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
      const auto label_slot = [&](std::uint32_t c) {
        const auto it = std::lower_bound(labels.begin(), labels.end(), c);
        if (it == labels.end() || *it != c) {
          throw std::logic_error("sketch connectivity: label not hosted here");
        }
        return static_cast<std::size_t>(it - labels.begin());
      };
      std::vector<std::uint32_t> slot(owned.size(), 0);
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (!done[i]) {
          slot[i] = static_cast<std::uint32_t>(label_slot(frag[i]));
        }
      }

      // Proxy side: (label << 32 | host) for every host of a label
      // proxied here, recorded from the sketch-up exchange (the root push
      // goes only to them); the labels with a nonzero folded cell; and
      // (label, edge id) for every id the holders recovered.
      std::vector<std::uint64_t> hosts;
      std::vector<std::uint32_t> nonzero;
      std::vector<std::pair<std::uint32_t, std::uint64_t>> cand_ids;
      {
        // Sliced two-stage aggregation.  A single-proxy fold pays the
        // per-link *max*, not the mean: which labels a machine hosts is
        // random, so some (host, proxy) link carries 1.6-5x the average
        // sketch load and the measured rounds flatten away from n/k².
        // Instead every nonzero cell travels to a holder hashed from
        // (label, cell position) — cell-granularity balls-into-bins, so
        // every link carries (hosted bits)/k to within a few percent no
        // matter which labels a machine hosts or which cells of the
        // cascade are dense.  All copies of one (label, position) cell
        // hash to the same holder, so each holder folds the true cells
        // of the folded sketch (by linearity the fold of the copies is
        // the cell of the fold).  Holders then recover candidate
        // support members from their folded cells and forward only the
        // ids, so reassembly costs a few varints per label instead of
        // a second sketch-sized hop.  Hosts always send the proxy an
        // entry (possibly empty): it doubles as the host census for
        // the root push.
        const std::uint32_t levels = shape.levels();
        const std::uint64_t stripe_seed = mix64(phase_seed, 0x57'81'9eULL);
        // The cells this machine holds, in arrival order: its own slices
        // first, then the inbox in ascending source order.
        std::vector<HeldCell> held;
        {
          // Pre-aggregate per (machine, label): summing the sketches of
          // every locally-hosted member costs nothing (linearity), and
          // it is what keeps the per-link load at Õ(n/k²) — without it,
          // a nearly-merged graph funnels one sketch per *vertex* into a
          // single proxy, Θ(n/k) per link.
          std::vector<L0Sketch> partial(labels.size(), L0Sketch(shape));
          for (std::size_t i = 0; i < owned.size(); ++i) {
            if (done[i]) continue;
            const Vertex v = owned[i];
            L0Sketch& sketch = partial[slot[i]];
            for (const Vertex nb : g.neighbors(v)) {
              sketch.add(codec.encode(v, nb), EdgeIdCodec::sign_for(v, nb));
            }
          }
          // One label's nonzero cells as (holder << 32 | pos, cell);
          // sorted, that groups them by holder with positions ascending.
          std::vector<std::pair<std::uint64_t, SketchCell>> slices;
          for (std::size_t s = 0; s < labels.size(); ++s) {
            const std::uint32_t c = labels[s];
            const std::size_t proxy = proxy_of(c);
            if (proxy == self) hosts.push_back(pack(c, self));
            const std::uint64_t stripe = mix64(stripe_seed, c);
            slices.clear();
            std::uint32_t pos = 0;
            for (std::uint32_t row = 0; row < rows; ++row) {
              for (std::uint32_t level = 0; level < levels; ++level, ++pos) {
                const SketchCell cell = partial[s].cell(row, level);
                if (cell.is_zero()) continue;
                slices.emplace_back(pack(mix64(stripe, pos) % k, pos), cell);
              }
            }
            std::sort(slices.begin(), slices.end(),
                      [](const auto& a, const auto& b) {
                        return a.first < b.first;
                      });
            bool proxy_told = proxy == self;
            for (auto it = slices.begin(); it != slices.end();) {
              const std::size_t holder = it->first >> 32;
              const auto end =
                  std::find_if(it, slices.end(), [&](const auto& e) {
                    return (e.first >> 32) != holder;
                  });
              if (holder == self) {
                for (; it != end; ++it) {
                  held.push_back(
                      {c, static_cast<std::uint32_t>(it->first), it->second});
                }
                continue;
              }
              proxy_told = proxy_told || holder == proxy;
              Writer& w = outbox[holder];
              w.put_varint(c);
              w.put_varint(static_cast<std::uint64_t>(end - it));
              for (; it != end; ++it) {
                w.put_varint(static_cast<std::uint32_t>(it->first));
                it->second.serialize(w);
              }
            }
            if (!proxy_told) {
              outbox[proxy].put_varint(c);
              outbox[proxy].put_varint(0);
            }
          }
        }
        flush(kSketchTag);
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          while (!r.done()) {
            const auto c = static_cast<std::uint32_t>(r.get_varint());
            const std::uint64_t nnz = r.get_varint();
            if (proxy_of(c) == self) hosts.push_back(pack(c, msg.src));
            for (std::uint64_t t = 0; t < nnz; ++t) {
              const auto pos = static_cast<std::uint32_t>(r.get_varint());
              held.push_back({c, pos, SketchCell::deserialize(r)});
            }
          }
        }

        // ---- Candidate forward: fold each label's cells by position in
        // first-arrival order, recover from the folded cells, ship ids.
        // A label with no nonzero cell anywhere has an empty folded
        // sketch (internal edges cancelled in the fold), so absence of
        // reports is the emptiness certificate. ----
        std::vector<std::uint64_t> order(held.size());
        for (std::size_t j = 0; j < held.size(); ++j) {
          order[j] = pack(held[j].label, j);
        }
        std::sort(order.begin(), order.end());
        const std::uint64_t universe =
            id_bits >= 64 ? 0 : (std::uint64_t{1} << id_bits);
        const detail::FingerprintPowers* powers =
            SketchCell::recovery_powers(z, universe);
        std::vector<std::pair<std::uint32_t, SketchCell>> fold;
        std::vector<std::uint64_t> ids;
        for (std::size_t j = 0; j < order.size();) {
          const auto c = static_cast<std::uint32_t>(order[j] >> 32);
          fold.clear();
          for (; j < order.size() && (order[j] >> 32) == c; ++j) {
            const HeldCell& in = held[order[j] & 0xFFFF'FFFFULL];
            const auto it =
                std::find_if(fold.begin(), fold.end(), [&](const auto& f) {
                  return f.first == in.pos;
                });
            if (it == fold.end()) {
              fold.emplace_back(in.pos, in.cell);
            } else {
              it->second.merge(in.cell);
            }
          }
          bool any_nonzero = false;
          ids.clear();
          for (const auto& [pos, cell] : fold) {
            if (cell.is_zero()) continue;
            any_nonzero = true;
            if (const auto id = cell.recover(z, universe, powers)) {
              ids.push_back(*id);
            }
          }
          if (!any_nonzero) continue;
          const std::size_t proxy = proxy_of(c);
          if (proxy == self) {
            nonzero.push_back(c);
            for (const std::uint64_t id : ids) cand_ids.emplace_back(c, id);
          } else {
            Writer& w = outbox[proxy];
            w.put_varint(c);
            w.put_varint(ids.size());
            for (const std::uint64_t id : ids) w.put_varint(id);
          }
        }
      }
      flush(kCandidateTag);
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        while (!r.done()) {
          const auto c = static_cast<std::uint32_t>(r.get_varint());
          nonzero.push_back(c);
          const std::uint64_t m = r.get_varint();
          for (std::uint64_t t = 0; t < m; ++t) {
            cand_ids.emplace_back(c, r.get_varint());
          }
        }
      }

      // Walk the proxied labels (ascending) in step with the sorted
      // nonzero marks and candidate ids.  found_* are flat per found
      // label: its label, its edges [found_begin[f], found_begin[f+1]).
      std::sort(hosts.begin(), hosts.end());
      std::sort(nonzero.begin(), nonzero.end());
      nonzero.erase(std::unique(nonzero.begin(), nonzero.end()),
                    nonzero.end());
      std::sort(cand_ids.begin(), cand_ids.end());
      cand_ids.erase(std::unique(cand_ids.begin(), cand_ids.end()),
                     cand_ids.end());
      std::vector<std::uint32_t> found_labels;
      std::vector<std::uint32_t> found_begin{0};
      std::vector<CandidateEdge> found_edges;
      bool any_alive = false;
      std::uint64_t attempts = 0;
      std::uint64_t failures = 0;
      // Calls fn(label, first host, end of hosts) per proxied label.
      const auto for_each_proxied = [&](auto&& fn) {
        for (auto it = hosts.begin(); it != hosts.end();) {
          const auto c = static_cast<std::uint32_t>(*it >> 32);
          const auto end =
              std::find_if(it, hosts.end(),
                           [&](std::uint64_t h) { return (h >> 32) != c; });
          fn(c, it, end);
          it = end;
        }
      };
      const auto live = [&](std::uint32_t c) {
        return std::binary_search(nonzero.begin(), nonzero.end(), c);
      };
      {
        auto cand = cand_ids.begin();
        for_each_proxied([&](std::uint32_t c, auto, auto) {
          if (!live(c)) return;  // finished: the root push says so
          any_alive = true;
          ++attempts;
          while (cand != cand_ids.end() && cand->first < c) ++cand;
          const std::size_t before = found_edges.size();
          for (; cand != cand_ids.end() && cand->first == c; ++cand) {
            if (found_edges.size() - before == kMaxCandidates) continue;
            const auto [a, b] = codec.decode(cand->second);
            if (a < b && b < n) found_edges.push_back(CandidateEdge{a, b});
          }
          // A recovery-free fold leaves the component idle this phase
          // (the next phase retries with fresh hashes) and feeds the
          // row adaptation below.
          if (found_edges.size() == before) {
            ++failures;
          } else {
            found_labels.push_back(c);
            found_begin.push_back(
                static_cast<std::uint32_t>(found_edges.size()));
          }
        });
      }

      // ---- Label queries: who is on each end of the found edges? ----
      // Batched per home machine; replies mirror the query order, so a
      // reply message is bare labels.
      std::vector<Vertex> query;
      for (const CandidateEdge& edge : found_edges) {
        query.push_back(edge.a);
        query.push_back(edge.b);
      }
      std::sort(query.begin(), query.end());
      query.erase(std::unique(query.begin(), query.end()), query.end());
      std::vector<std::uint32_t> query_label(query.size());
      for (auto& a : asked) a.clear();
      for (std::size_t j = 0; j < query.size(); ++j) {
        const Vertex v = query[j];
        const std::size_t home = part.home(v);
        if (home == self) {
          query_label[j] = frag[part.rank(v)];
        } else {
          asked[home].push_back(static_cast<std::uint32_t>(j));
          outbox[home].put_varint(v);
        }
      }
      flush(kLabelQueryTag);
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        Writer& w = outbox[msg.src];
        while (!r.done()) {
          const auto v = static_cast<Vertex>(r.get_varint());
          w.put_varint(frag[part.rank(v)]);
        }
      }
      flush(kLabelReplyTag);
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        for (const std::uint32_t j : asked[msg.src]) {
          query_label[j] = static_cast<std::uint32_t>(r.get_varint());
        }
      }
      const auto label_of = [&](Vertex v) {
        return query_label[static_cast<std::size_t>(
            std::lower_bound(query.begin(), query.end(), v) - query.begin())];
      };

      // ---- Min-label hooking: a component hooks across the smallest
      // sampled neighbour whose label is below its own.  Every hook
      // edge points strictly down in label order, so the hook graph is
      // acyclic, and the cluster-maximum label with a successful
      // sample always hooks — with several candidates per fold the
      // merge rate beats a coin-flip rule without any coin exchange.
      std::vector<std::uint32_t> new_root(found_labels);
      for (std::size_t f = 0; f < found_labels.size(); ++f) {
        const std::uint32_t c = found_labels[f];
        for (std::uint32_t e = found_begin[f]; e < found_begin[f + 1]; ++e) {
          const std::uint32_t la = label_of(found_edges[e].a);
          const std::uint32_t lb = label_of(found_edges[e].b);
          if (la != c && lb != c) continue;  // stale sample: skip safely
          new_root[f] = std::min(new_root[f], la == c ? lb : la);
        }
      }

      // ---- Root push: proxies push (label, root, finished) to the
      // recorded hosts, only for labels that changed; every machine's
      // sampling stats ride in the same superstep, so termination needs
      // no separate all-reduce and roots need no query round-trip. ----
      // next_label/now_done: the pushed state per hosted label slot.
      std::vector<std::uint32_t> next_label(labels);
      std::vector<bool> now_done(labels.size(), false);
      const auto apply_push = [&](std::uint32_t c, std::uint32_t root,
                                  bool fin) {
        const std::size_t s = label_slot(c);
        next_label[s] = root;
        now_done[s] = fin;  // fin implies root == c
      };
      {
        for (auto& t : tri) t.clear();
        std::size_t f = 0;
        for_each_proxied([&](std::uint32_t c, auto first, auto last) {
          const bool fin = !live(c);
          std::uint32_t root = c;
          if (f < found_labels.size() && found_labels[f] == c) {
            root = new_root[f++];
          }
          if (root == c && !fin) return;
          for (auto h = first; h != last; ++h) {
            const auto m = static_cast<std::uint32_t>(*h & 0xFFFF'FFFFULL);
            if (m == self) {
              apply_push(c, root, fin);
            } else {
              tri[m].insert(tri[m].end(), {c, root, fin ? 1u : 0u});
            }
          }
        });
        const bool have_stats = attempts != 0 || failures != 0 || any_alive;
        for (std::size_t dst = 0; dst < k; ++dst) {
          if (dst == self || (tri[dst].empty() && !have_stats)) continue;
          Writer& w = outbox[dst];
          w.put_varint(attempts);
          w.put_varint(failures);
          w.put_u8(any_alive ? 1 : 0);
          for (std::size_t j = 0; j < tri[dst].size(); j += 3) {
            w.put_varint(tri[dst][j]);
            w.put_varint(tri[dst][j + 1]);
            w.put_u8(tri[dst][j + 2] != 0 ? 1 : 0);
          }
          ctx.send(dst, kRootPushTag, w);
        }
      }
      std::uint64_t g_attempts = attempts;
      std::uint64_t g_failures = failures;
      bool g_alive = any_alive;
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        g_attempts += r.get_varint();
        g_failures += r.get_varint();
        g_alive = r.get_u8() != 0 || g_alive;
        while (!r.done()) {
          const auto c = static_cast<std::uint32_t>(r.get_varint());
          const auto root = static_cast<std::uint32_t>(r.get_varint());
          apply_push(c, root, r.get_u8() != 0);
        }
      }
      for (std::size_t i = 0; i < owned.size(); ++i) {
        if (done[i]) continue;
        frag[i] = next_label[slot[i]];
        done[i] = now_done[slot[i]];
      }
      // Row adaptation from the global failure rate (see kMinRows).
      if (g_attempts != 0) {
        if (g_failures * 4 >= g_attempts) {
          rows = std::min(rows + 1, kMaxRows);
        } else if (g_failures * 16 <= g_attempts) {
          rows = std::max(rows - 1, kMinRows);
        }
      }

      ++phase;
      converged = !g_alive;
    }

    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.labels[owned[i]] = frag[i];
    }
    if (self == 0) result.phases = phase;
  };

  result.metrics = engine.run(program);
  result.num_components = count_distinct(result.labels);
  return result;
}

DistributedComponentsResult centralized_connectivity_baseline(
    const Graph& g, const VertexPartition& partition, Engine& engine) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (partition.n() != n || partition.k() != k) {
    throw std::invalid_argument(
        "centralized_connectivity_baseline: partition mismatch");
  }

  DistributedComponentsResult result;
  result.labels.assign(n, 0);
  result.phases = 1;

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = partition.owned(self);

    // Ship every locally-held edge to the coordinator (each edge once,
    // from its min endpoint's home): per-link load Θ(m/k · log n).
    std::vector<std::pair<Vertex, Vertex>> local;
    for (const Vertex u : owned) {
      for (const Vertex v : g.neighbors(u)) {
        if (u >= v) continue;
        if (self == 0) {
          local.emplace_back(u, v);
        } else {
          Writer w;
          w.put_varint(u);
          w.put_varint(v);
          ctx.send(0, kEdgeShipTag, w);
        }
      }
    }
    std::vector<Message> inbox = ctx.exchange();
    if (self == 0) {
      UnionFind uf(n);
      for (const auto& [u, v] : local) uf.unite(u, v);
      for (const Message& msg : inbox) {
        Reader r(msg.payload);
        const auto u = static_cast<Vertex>(r.get_varint());
        const auto v = static_cast<Vertex>(r.get_varint());
        uf.unite(u, v);
      }
      // Scatter labels, one message per machine, in owned-vertex order:
      // per-link load Θ(n/k · log n).
      for (std::size_t m = 1; m < k; ++m) {
        Writer w;
        for (const Vertex v : partition.owned(m)) {
          w.put_varint(uf.find(v));
        }
        ctx.send(m, kLabelShipTag, w);
      }
      for (const Vertex v : owned) result.labels[v] = uf.find(v);
    }
    inbox = ctx.exchange();
    if (self != 0) {
      if (inbox.size() != 1 && !owned.empty()) {
        throw std::logic_error("baseline: expected one label message");
      }
      if (!inbox.empty()) {
        Reader r(inbox.front().payload);
        for (const Vertex v : owned) {
          result.labels[v] = static_cast<std::uint32_t>(r.get_varint());
        }
      }
    }
  };

  result.metrics = engine.run(program);
  result.num_components = count_distinct(result.labels);
  return result;
}

}  // namespace km
