#include "core/connectivity.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/detail/sorted.hpp"
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

    // frag[i] = component label of owned[i]; a label in `finished` heads
    // a complete connected component and never changes again.
    std::vector<std::uint32_t> frag(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) frag[i] = owned[i];
    std::unordered_set<std::uint32_t> finished;

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

    std::uint32_t rows = kMinRows;
    std::size_t phase = 0;
    bool done = false;
    while (!done) {
      if (phase >= max_phases) {
        throw std::runtime_error(
            "sketch connectivity: phase budget exhausted without convergence");
      }
      const std::uint64_t phase_seed = mix64(seed, 0xB0'12'34'00ULL + phase);
      const std::uint64_t z = sketch_fingerprint_base(phase_seed);
      const L0SketchShape shape{
          .id_bits = id_bits, .rows = rows, .seed = phase_seed};

      // ---- Sketch-up: outgoing edge candidates per hosted component.
      // Every distinct edge the fold's rows recover is harvested (more
      // candidates -> more components hook per phase). ----
      std::unordered_map<std::uint32_t, std::vector<CandidateEdge>> found;
      std::unordered_set<std::uint32_t> finished_here;         // proxy side
      // Machines hosting each label proxied here, recorded from the
      // sketch-up exchange; the root push goes only to them.
      std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> hosts;
      bool any_alive = false;                                  // proxy side
      std::uint64_t attempts = 0;                              // proxy side
      std::uint64_t failures = 0;                              // proxy side

      // Pre-aggregate per (machine, label): summing the sketches of
      // every locally-hosted member costs nothing (linearity), and it
      // is what keeps the per-link load at Õ(n/k²) — without it, a
      // nearly-merged graph funnels one sketch per *vertex* into a
      // single proxy, Θ(n/k) per link.
      std::unordered_map<std::uint32_t, L0Sketch> partial;
      for (std::size_t i = 0; i < owned.size(); ++i) {
        const std::uint32_t c = frag[i];
        if (finished.contains(c)) continue;
        const Vertex v = owned[i];
        L0Sketch& sketch = partial.try_emplace(c, shape).first->second;
        for (const Vertex nb : g.neighbors(v)) {
          sketch.add(codec.encode(v, nb), EdgeIdCodec::sign_for(v, nb));
        }
      }
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
      const std::size_t ncells_total = std::size_t{rows} * levels;
      const std::uint64_t universe =
          id_bits >= 64 ? 0 : (std::uint64_t{1} << id_bits);
      const std::uint64_t stripe_seed = mix64(phase_seed, 0x57'81'9eULL);
      const auto holder_of = [&](std::uint32_t c, std::size_t pos) {
        return static_cast<std::size_t>(
            mix64(mix64(stripe_seed, c), static_cast<std::uint64_t>(pos)) %
            k);
      };
      // Folded (position, cell) pairs this machine holds per label.
      std::unordered_map<std::uint32_t,
                         std::vector<std::pair<std::uint32_t, SketchCell>>>
          slice_fold;
      const auto fold_into = [&](std::uint32_t c, std::uint32_t pos,
                                 const SketchCell& cell) {
        auto& acc = slice_fold[c];
        for (auto& [p, folded] : acc) {
          if (p == pos) {
            folded.merge(cell);
            return;
          }
        }
        acc.emplace_back(pos, cell);
      };
      std::vector<std::vector<std::pair<std::uint32_t, SketchCell>>> sliced(k);
      for (const std::uint32_t c : detail::sorted_keys(partial)) {
        const L0Sketch& sketch = partial.at(c);
        const std::size_t proxy = proxy_of(c);
        if (proxy == self) {
          hosts[c].push_back(static_cast<std::uint32_t>(self));
        }
        for (auto& cells : sliced) cells.clear();
        for (std::size_t pos = 0; pos < ncells_total; ++pos) {
          const SketchCell cell = sketch.cell(pos / levels, pos % levels);
          if (cell.is_zero()) continue;
          sliced[holder_of(c, pos)].emplace_back(
              static_cast<std::uint32_t>(pos), cell);
        }
        for (std::size_t dst = 0; dst < k; ++dst) {
          if (dst == self) {
            for (const auto& [pos, cell] : sliced[dst]) {
              fold_into(c, pos, cell);
            }
            continue;
          }
          if (sliced[dst].empty() && dst != proxy) continue;
          Writer& w = outbox[dst];
          w.put_varint(c);
          w.put_varint(sliced[dst].size());
          for (const auto& [pos, cell] : sliced[dst]) {
            w.put_varint(pos);
            cell.serialize(w);
          }
        }
      }
      partial.clear();
      flush(kSketchTag);
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        while (!r.done()) {
          const auto c = static_cast<std::uint32_t>(r.get_varint());
          const std::uint64_t nnz = r.get_varint();
          if (proxy_of(c) == self) hosts[c].push_back(msg.src);
          for (std::uint64_t t = 0; t < nnz; ++t) {
            const auto pos = static_cast<std::uint32_t>(r.get_varint());
            fold_into(c, pos, SketchCell::deserialize(r));
          }
        }
      }

      // ---- Candidate forward: recover from the folded stripes, ship
      // ids.  A label with no nonzero stripe anywhere has an empty
      // folded sketch (internal edges cancelled in the fold), so absence
      // of reports is the emptiness certificate. ----
      std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> cand_ids;
      std::unordered_set<std::uint32_t> nonzero_marks;  // proxy side
      for (const std::uint32_t c : detail::sorted_keys(slice_fold)) {
        bool nonzero = false;
        std::vector<std::uint64_t> ids;
        for (const auto& [pos, cell] : slice_fold.at(c)) {
          if (cell.is_zero()) continue;
          nonzero = true;
          if (const auto id = cell.recover(z, universe)) ids.push_back(*id);
        }
        if (!nonzero) continue;
        const std::size_t proxy = proxy_of(c);
        if (proxy == self) {
          nonzero_marks.insert(c);
          auto& acc = cand_ids[c];
          acc.insert(acc.end(), ids.begin(), ids.end());
        } else {
          Writer& w = outbox[proxy];
          w.put_varint(c);
          w.put_varint(ids.size());
          for (const std::uint64_t id : ids) w.put_varint(id);
        }
      }
      slice_fold.clear();
      flush(kCandidateTag);
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        while (!r.done()) {
          const auto c = static_cast<std::uint32_t>(r.get_varint());
          nonzero_marks.insert(c);
          const std::uint64_t m = r.get_varint();
          auto& acc = cand_ids[c];
          for (std::uint64_t t = 0; t < m; ++t) {
            acc.push_back(r.get_varint());
          }
        }
      }
      for (const std::uint32_t c : detail::sorted_keys(hosts)) {
        if (!nonzero_marks.contains(c)) {
          finished_here.insert(c);
          continue;
        }
        any_alive = true;
        ++attempts;
        auto& ids = cand_ids[c];
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        std::vector<CandidateEdge> cand;
        for (const std::uint64_t id : ids) {
          const auto [a, b] = codec.decode(id);
          if (a < b && b < n) cand.push_back(CandidateEdge{a, b});
          if (cand.size() == kMaxCandidates) break;
        }
        // A recovery-free fold leaves the component idle this phase
        // (the next phase retries with fresh hashes) and feeds the
        // row adaptation below.
        if (cand.empty()) {
          ++failures;
        } else {
          found[c] = std::move(cand);
        }
      }

      // ---- Label queries: who is on each end of the found edges? ----
      // Batched per home machine; replies mirror the query order, so a
      // reply message is bare labels.
      std::unordered_map<Vertex, std::uint32_t> vertex_label;
      std::vector<std::vector<Vertex>> asked(k);
      {
        std::unordered_set<Vertex> query;
        for (const std::uint32_t c : detail::sorted_keys(found)) {
          for (const CandidateEdge& edge : found.at(c)) {
            query.insert(edge.a);
            query.insert(edge.b);
          }
        }
        for (const Vertex v : detail::sorted_keys(query)) {
          const std::size_t home = part.home(v);
          if (home == self) {
            vertex_label[v] = frag[part.rank(v)];
          } else {
            asked[home].push_back(v);
            outbox[home].put_varint(v);
          }
        }
        flush(kLabelQueryTag);
      }
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
        for (const Vertex v : asked[msg.src]) {
          vertex_label[v] = static_cast<std::uint32_t>(r.get_varint());
        }
      }

      // ---- Min-label hooking: a component hooks across the smallest
      // sampled neighbour whose label is below its own.  Every hook
      // edge points strictly down in label order, so the hook graph is
      // acyclic, and the cluster-maximum label with a successful
      // sample always hooks — with several candidates per fold the
      // merge rate beats a coin-flip rule without any coin exchange.
      std::unordered_map<std::uint32_t, std::uint32_t> new_root;
      for (const std::uint32_t c : detail::sorted_keys(found)) {
        bool hooked = false;
        std::uint32_t best_other = 0;
        for (const CandidateEdge& edge : found.at(c)) {
          const std::uint32_t la = vertex_label.at(edge.a);
          const std::uint32_t lb = vertex_label.at(edge.b);
          if (la != c && lb != c) continue;  // stale sample: skip safely
          const std::uint32_t other = la == c ? lb : la;
          if (other < c && (!hooked || other < best_other)) {
            hooked = true;
            best_other = other;
          }
        }
        if (hooked) new_root[c] = best_other;
      }

      // ---- Root push: proxies push (label, root, finished) to the
      // recorded hosts, only for labels that changed; every machine's
      // sampling stats ride in the same superstep, so termination needs
      // no separate all-reduce and roots need no query round-trip. ----
      std::unordered_map<std::uint32_t, std::pair<std::uint32_t, bool>> push;
      {
        std::vector<std::vector<std::uint32_t>> tri(k);  // flat (c,root,fin)
        for (const std::uint32_t c : detail::sorted_keys(hosts)) {
          const auto it = new_root.find(c);
          const std::uint32_t root = it == new_root.end() ? c : it->second;
          const bool fin = finished_here.contains(c);
          if (root == c && !fin) continue;
          for (const std::uint32_t m : hosts.at(c)) {
            if (m == self) {
              push[c] = {root, fin};
            } else {
              tri[m].push_back(c);
              tri[m].push_back(root);
              tri[m].push_back(fin ? 1 : 0);
            }
          }
        }
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
          const bool fin = r.get_u8() != 0;
          push[c] = {root, fin};
        }
      }
      for (std::size_t i = 0; i < owned.size(); ++i) {
        const std::uint32_t c = frag[i];
        if (finished.contains(c)) continue;
        const auto it = push.find(c);
        if (it == push.end()) continue;  // unchanged this phase
        frag[i] = it->second.first;
        if (it->second.second) finished.insert(c);  // fin implies root == c
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
      done = !g_alive;
    }

    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.labels[owned[i]] = frag[i];
    }
    if (self == 0) result.phases = phase;
  };

  result.metrics = engine.run(program);
  const std::unordered_set<std::uint32_t> distinct(result.labels.begin(),
                                                   result.labels.end());
  result.num_components = n == 0 ? 0 : distinct.size();
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
  const std::unordered_set<std::uint32_t> distinct(result.labels.begin(),
                                                   result.labels.end());
  result.num_components = n == 0 ? 0 : distinct.size();
  return result;
}

}  // namespace km
