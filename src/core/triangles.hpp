// Distributed triangle enumeration in the k-machine model (Section 3.2).
//
// distributed_triangles() implements the paper's O~(m/k^{5/3} + n/k^{4/3})
// algorithm, a randomized generalization of Dolev et al.'s TriPartition:
//
//  1. Color classes.  A shared hash function colors every vertex with one
//     of c = floor(k^{1/3}) colors, splitting V into c classes of
//     O~(n/c) vertices.  Each *sorted* color triplet {a <= b <= c'} is
//     deterministically assigned to a distinct machine (there are
//     C(c+2,3) <= k of them); that machine is responsible for exactly the
//     triangles whose color multiset equals its triplet, so every
//     triangle is enumerated exactly once.
//  2. Edge designation (the paper's proxy assignment rule).  Both
//     endpoints' home machines know an edge; exactly one must forward it.
//     Machines first broadcast which of their vertices have degree
//     >= 2k log n ("high degree").  For an edge with exactly one
//     high-degree endpoint, the *other* endpoint's machine designates
//     (spreading the high vertex's load over its neighbors' machines);
//     ties (both high / both low) are broken by an edge hash.
//  3. Edge proxies.  The designating machine sends each edge to a
//     uniformly random proxy machine; the proxy forwards it to the <= c
//     machines whose triplet contains both endpoint colors (the paper's
//     "k^{1/3} copies per edge" bound, total traffic m * k^{1/3}).
//  4. Local enumeration.  Each triplet machine builds the received
//     subgraph and enumerates its triangles locally.
//
// Steps 1-3 are core/detail/tripartition.hpp, the routing shared with
// 4-clique enumeration (core/cliques.hpp).
//
// distributed_triangles_baseline() is the naive comparison point: every
// designated edge is broadcast to all machines (O~(m/k) rounds), and
// machine j enumerates the triangles whose smallest vertex hashes to j.
//
// Both algorithms can enumerate *open triads* (u-v-w with exactly two
// edges) instead: Section 1.2 notes the bounds carry over.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/triangle_ref.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/partition.hpp"

namespace km {

enum class TriadMode {
  kTriangles,   ///< enumerate closed triangles
  kOpenTriads,  ///< enumerate paths u-v-w with edge (u,w) absent
};

struct TriangleConfig {
  std::uint64_t color_seed = 0xC0106AULL;  ///< shared hash for coloring
  /// High-degree threshold factor: threshold = factor * k * log2(n).
  /// The paper uses 2 k log n.
  double degree_threshold_factor = 2.0;
  TriadMode mode = TriadMode::kTriangles;
  /// Keep the enumerated triples (for verification); counting always runs.
  bool record_triples = true;
};

struct TriangleResult {
  std::uint64_t total = 0;  ///< triangles (or triads) enumerated
  std::vector<std::uint64_t> per_machine_counts;
  /// Per machine, the enumerated triples (empty if !record_triples).
  std::vector<std::vector<Triangle>> per_machine_triples;
  Metrics metrics;

  /// All triples merged and sorted (for comparison with the reference).
  std::vector<Triangle> merged_sorted() const;
};

/// TriPartition-style algorithm: O~(m/k^{5/3} + n/k^{4/3}) rounds whp.
TriangleResult distributed_triangles(const Graph& g,
                                     const VertexPartition& partition,
                                     Engine& engine,
                                     const TriangleConfig& config = {});

/// Broadcast-everything baseline: O~(m/k) rounds.
TriangleResult distributed_triangles_baseline(const Graph& g,
                                              const VertexPartition& partition,
                                              Engine& engine,
                                              const TriangleConfig& config = {});

/// Number of color classes used for k machines: floor(cbrt(k)).
std::size_t triangle_color_count(std::size_t k) noexcept;

/// Number of machines that host a color triplet: C(c+2, 3) with
/// c = triangle_color_count(k).
std::size_t triangle_worker_count(std::size_t k) noexcept;

}  // namespace km
