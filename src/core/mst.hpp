// Distributed minimum spanning tree and connected components in the
// k-machine model.
//
// Section 1.3 of the paper derives the Omega~(n/Bk^2) round lower bound
// for MST directly from the General Lower Bound Theorem (complete graph
// with random edge weights; each machine outputs ~n/k MST edges) and
// notes the matching O~(n/k^2) upper bound of Pandurangan et al. [51].
// Crucially, the bound holds under the output criterion used throughout
// the paper: *any* machine may output any part of the solution — which
// is exactly what happens here: MST edges are emitted by the randomized
// fragment proxies, not by the edges' home machines.
//
// distributed_mst() is a Boruvka algorithm built on the paper's
// randomized proxy computation idea:
//   - every Boruvka fragment f is assigned a proxy machine hash(f) mod k,
//     spreading per-fragment coordination uniformly over the cluster;
//   - each phase, home machines push current fragment labels to their
//     neighbors' machines, locally reduce minimum outgoing edges (MOE)
//     per fragment, and send one entry per (machine, fragment) to the
//     fragment proxy: the local candidate, or an empty registration;
//   - proxies pick the global MOE (unique under the (weight, endpoints)
//     total order), break the mutual-MOE 2-cycles, and resolve the new
//     fragment roots by pointer jumping across proxies;
//   - proxies push each new root to the machines that registered the
//     fragment, riding the jumps' query supersteps.
// Each of the <= log2(n) phases costs O~((m+n)/k^2) rounds whp, a
// simplified variant of [51] (which removes the log factors with graph
// sketches).  A phase whose pointers settle in J jumps is 2J + 3
// supersteps: the label push, the candidates, and J query/reply pairs
// plus one last query superstep.  The collectives the loops need ride
// those supersteps; the last phase, which finds no outgoing edge, is 3.
//
// distributed_components() runs the same machinery with hash-derived
// (distinct, arbitrary) edge weights and returns component labels.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/weighted.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/partition.hpp"

namespace km {

struct DistributedMstResult {
  std::vector<WeightedEdge> edges;  ///< the MSF, sorted by mst_edge_less
  std::uint64_t total_weight = 0;
  std::vector<std::uint32_t> fragment_of;  ///< final fragment per vertex
  std::size_t phases = 0;
  Metrics metrics;
};

DistributedMstResult distributed_mst(const WeightedGraph& g,
                                     const VertexPartition& partition,
                                     Engine& engine,
                                     std::uint64_t proxy_seed = 0xF7A6);

struct DistributedComponentsResult {
  std::vector<std::uint32_t> labels;  ///< component label per vertex
  std::size_t num_components = 0;
  std::size_t phases = 0;
  Metrics metrics;
};

DistributedComponentsResult distributed_components(
    const Graph& g, const VertexPartition& partition, Engine& engine,
    std::uint64_t proxy_seed = 0xF7A6);

}  // namespace km
