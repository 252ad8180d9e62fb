#include "core/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "util/mathx.hpp"

namespace km {

namespace {

constexpr std::uint16_t kLightTag = 1;  ///< <count, dest:v>
constexpr std::uint16_t kHeavyTag = 2;  ///< <count, src:u>

/// For every vertex u with an out-neighbor hosted on this machine, those
/// out-neighbors as owned-list slots (Algorithm 1, lines 33-35), built
/// once per run from the in-arcs of the owned vertices.  A row ascends
/// by vertex id, exactly like out_neighbors(u) filtered to this machine.
class LocalOuts {
 public:
  LocalOuts(const Digraph& g, const std::vector<Vertex>& owned) {
    std::vector<std::uint64_t> arcs;  // (u << 32) | slot of the head
    for (std::size_t i = 0; i < owned.size(); ++i) {
      for (const Vertex u : g.in_neighbors(owned[i])) {
        arcs.push_back(std::uint64_t{u} << 32 | i);
      }
    }
    std::sort(arcs.begin(), arcs.end());
    slots_.reserve(arcs.size());
    for (const std::uint64_t arc : arcs) {
      const auto u = static_cast<Vertex>(arc >> 32);
      if (sources_.empty() || sources_.back() != u) {
        sources_.push_back(u);
        offsets_.push_back(slots_.size());
      }
      slots_.push_back(static_cast<std::uint32_t>(arc));
    }
    offsets_.push_back(slots_.size());
  }

  /// Slots of u's locally hosted out-neighbors, ascending; throws when
  /// this machine hosts none (heavy tokens were misrouted).
  std::span<const std::uint32_t> of(Vertex u) const {
    const auto it = std::lower_bound(sources_.begin(), sources_.end(), u);
    if (it == sources_.end() || *it != u) {
      throw std::logic_error("pagerank: heavy tokens sent to machine hosting "
                             "no out-neighbor of the source vertex");
    }
    const auto row = static_cast<std::size_t>(it - sources_.begin());
    return std::span<const std::uint32_t>(slots_).subspan(
        offsets_[row], offsets_[row + 1] - offsets_[row]);
  }

 private:
  std::vector<Vertex> sources_;
  std::vector<std::size_t> offsets_;  // row r is [offsets_[r], offsets_[r+1])
  std::vector<std::uint32_t> slots_;
};

struct MachineState {
  std::vector<std::uint64_t> tokens;  // current tokens per owned vertex
  std::vector<std::uint64_t> visits;  // psi per owned vertex

  /// Deposits `count` tokens arriving at owned slot i (visit + hold).
  void deposit(std::size_t i, std::uint64_t count) {
    tokens[i] += count;
    visits[i] += count;
  }
};

/// Spreads `count` tokens of remote vertex u uniformly over the locally
/// hosted out-neighbors of u (Algorithm 1, lines 31-36).
void spread_heavy(MachineState& st, const LocalOuts& local_outs, Rng& rng,
                  Vertex u, std::uint64_t count) {
  const auto outs = local_outs.of(u);
  for (std::uint64_t i = 0; i < count; ++i) {
    st.deposit(outs[rng.below(outs.size())], 1);
  }
}

PageRankResult run_pagerank(const Digraph& g, const VertexPartition& part,
                            Engine& engine, const PageRankConfig& config,
                            bool heavy_path_enabled) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument("pagerank: partition does not match graph/k");
  }
  const auto tokens0 = static_cast<std::uint64_t>(
      std::ceil(config.c * std::log(std::max<double>(2.0, static_cast<double>(n)))));
  const std::size_t max_iters =
      config.max_iterations
          ? config.max_iterations
          : static_cast<std::size_t>(
                10.0 *
                std::ceil(std::log(static_cast<double>(n) *
                                   static_cast<double>(tokens0) + 2.0) /
                          config.eps));

  PageRankResult result;
  result.estimates.assign(n, 0.0);
  result.initial_tokens_per_vertex = tokens0;
  std::vector<std::size_t> iterations_by_machine(k, 0);

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = part.owned(self);
    const LocalOuts local_outs =
        heavy_path_enabled ? LocalOuts(g, owned) : LocalOuts(g, {});
    MachineState st;
    st.tokens.assign(owned.size(), tokens0);
    st.visits.assign(owned.size(), tokens0);  // creation counts as visit

    // Reused per iteration: the sampled light destinations, the heavy
    // per-machine counts (all zero between heavy vertices), and the
    // message encoder.
    std::vector<Vertex> alpha;
    std::vector<std::uint64_t> beta(k, 0);
    Writer w;
    const auto send_pair = [&](std::size_t machine, std::uint16_t tag,
                               std::uint64_t a, std::uint64_t b) {
      w.clear();
      w.put_varint(a);
      w.put_varint(b);
      ctx.send(machine, tag, w.view());
    };

    const std::size_t interval =
        std::max<std::size_t>(1, config.termination_check_interval);
    std::size_t iteration = 0;
    while (iteration < max_iters) {
      ++iteration;
      // Terminate each token independently with probability eps (line 5).
      for (auto& t : st.tokens) {
        t -= ctx.rng().binomial(t, config.eps);
      }
      // Tokens that move this iteration; summed over the machines, the
      // tokens still walking once they land.
      std::uint64_t moved = 0;

      // Tokens deposited locally this iteration must only become active
      // in the next one; stage them separately.
      std::vector<std::pair<std::size_t, std::uint64_t>> local_light;
      std::vector<std::pair<Vertex, std::uint64_t>> local_heavy;

      // alpha: per-destination-vertex counts for light vertices (line 8),
      // as the multiset of sampled destinations.
      alpha.clear();
      for (std::size_t i = 0; i < owned.size(); ++i) {
        std::uint64_t t = st.tokens[i];
        if (t == 0) continue;
        const Vertex u = owned[i];
        const auto outs = g.out_neighbors(u);
        if (outs.empty()) {
          st.tokens[i] = 0;  // dangling vertex: walks terminate here
          continue;
        }
        moved += t;
        const bool light = !heavy_path_enabled || t < k;
        if (light) {
          // Lines 9-16: route each token to a uniform out-neighbor,
          // aggregated per destination vertex.
          for (; t > 0; --t) {
            alpha.push_back(outs[ctx.rng().below(outs.size())]);
          }
        } else {
          // Lines 18-27: heavy vertex; aggregate per destination machine.
          // Sampling a uniform out-neighbor and binning by its home
          // machine realizes exactly the (n_{1,u}/d_u, ..., n_{k,u}/d_u)
          // distribution of line 23.
          for (; t > 0; --t) {
            ++beta[part.home(outs[ctx.rng().below(outs.size())])];
          }
          for (std::size_t machine = 0; machine < k; ++machine) {
            const std::uint64_t count = beta[machine];
            if (count == 0) continue;
            beta[machine] = 0;
            if (machine == self) {
              local_heavy.emplace_back(u, count);
            } else {
              send_pair(machine, kHeavyTag, u, count);
            }
          }
        }
        st.tokens[i] = 0;
      }
      // Ascending destinations, one message per distinct one.
      std::sort(alpha.begin(), alpha.end());
      for (std::size_t run = 0; run < alpha.size();) {
        const Vertex v = alpha[run];
        std::size_t end = run + 1;
        while (end < alpha.size() && alpha[end] == v) ++end;
        const std::uint64_t count = end - run;
        run = end;
        const std::uint32_t machine = part.home(v);
        if (machine == self) {
          local_light.emplace_back(part.rank(v), count);
        } else {
          send_pair(machine, kLightTag, v, count);
        }
      }

      // Superstep boundary: deliver all token messages.  Global
      // termination (no token left anywhere) is checked every interval
      // iterations by a collective riding this superstep, so a check
      // costs k - 1 charged varints per machine, not a superstep.
      const bool check = iteration % interval == 0 || iteration == max_iters;
      const Gathered step =
          check ? ctx.exchange_gather(moved)
                : Gathered{.messages = ctx.exchange(), .values = {}};
      for (const Message& msg : step.messages) {
        Reader r(msg.payload);
        if (msg.tag == kLightTag) {
          const auto v = static_cast<Vertex>(r.get_varint());
          if (v >= n || part.home(v) != self) {
            throw std::logic_error(
                "pagerank: message for vertex not hosted here");
          }
          st.deposit(part.rank(v), r.get_varint());
        } else if (msg.tag == kHeavyTag) {
          const auto u = static_cast<Vertex>(r.get_varint());
          spread_heavy(st, local_outs, ctx.rng(), u, r.get_varint());
        } else {
          throw std::logic_error("pagerank: unexpected message tag");
        }
      }
      for (const auto& [i, count] : local_light) st.deposit(i, count);
      for (const auto& [u, count] : local_heavy) {
        spread_heavy(st, local_outs, ctx.rng(), u, count);
      }
      if (check && step.sum() == 0) break;
    }

    // Publish estimates: owned index ranges are disjoint across machines.
    const double denom =
        static_cast<double>(n) * static_cast<double>(tokens0);
    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.estimates[owned[i]] =
          config.eps * static_cast<double>(st.visits[i]) / denom;
    }
    iterations_by_machine[self] = iteration;
  };

  result.metrics = engine.run(program);
  result.iterations = iterations_by_machine.empty() ? 0 : iterations_by_machine[0];
  return result;
}

}  // namespace

PageRankResult distributed_pagerank(const Digraph& g,
                                    const VertexPartition& partition,
                                    Engine& engine,
                                    const PageRankConfig& config) {
  return run_pagerank(g, partition, engine, config, true);
}

PageRankResult distributed_pagerank_baseline(const Digraph& g,
                                             const VertexPartition& partition,
                                             Engine& engine,
                                             const PageRankConfig& config) {
  return run_pagerank(g, partition, engine, config, false);
}

}  // namespace km
