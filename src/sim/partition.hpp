// Input partitions for the k-machine model (Section 1.1).
//
// The paper's default is the random vertex partition (RVP): each vertex is
// assigned independently and uniformly at random to one of the k machines,
// together with its incident edges.  RVP is conveniently realized by
// hashing (by_hash): any machine that knows a vertex ID can compute its
// home machine locally — the algorithms rely on this for addressing.
//
// The random edge partition (REP, footnote 3) assigns each *edge*
// independently to a machine; convert_rep_to_rvp (in core/) transforms one
// into the other in O~(m/k^2 + n/k) rounds.
//
// identity() gives the congested-clique special case k = n, one vertex per
// machine (Corollary 1).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace km {

/// Assignment of vertices [0,n) to machines [0,k).
class VertexPartition {
 public:
  VertexPartition() = default;

  /// RVP via true independent uniform assignment.
  static VertexPartition random(std::size_t n, std::size_t k, Rng& rng);

  /// RVP via hashing: home(v) = hash(seed, v) mod k.  Deterministic given
  /// the seed; this is how real systems (Pregel/Giraph) place vertices.
  static VertexPartition by_hash(std::size_t n, std::size_t k,
                                 std::uint64_t seed);

  /// Deterministic balanced partition (vertex v -> v mod k); for tests.
  static VertexPartition round_robin(std::size_t n, std::size_t k);

  /// Congested clique: k = n, machine v hosts exactly vertex v.
  static VertexPartition identity(std::size_t n);

  std::size_t n() const noexcept { return home_.size(); }
  std::size_t k() const noexcept { return k_; }

  std::uint32_t home(Vertex v) const noexcept { return home_[v]; }

  /// Vertices owned by machine i, ascending.
  const std::vector<Vertex>& owned(std::size_t machine) const noexcept {
    return owned_[machine];
  }

  /// v's index in owned(home(v)): the home machine's dense local slot
  /// for v, shared knowledge like home() itself.
  std::uint32_t rank(Vertex v) const noexcept { return rank_[v]; }

  std::size_t load(std::size_t machine) const noexcept {
    return owned_[machine].size();
  }
  std::size_t max_load() const noexcept;

  /// max load / (n/k); 1.0 = perfectly balanced.
  double imbalance() const noexcept;

 private:
  VertexPartition(std::size_t k, std::vector<std::uint32_t> home);

  std::size_t k_ = 0;
  std::vector<std::uint32_t> home_;
  std::vector<std::vector<Vertex>> owned_;
  std::vector<std::uint32_t> rank_;
};

/// Assignment of edge-list indices [0,m) to machines [0,k).
class EdgePartition {
 public:
  static EdgePartition random(std::size_t m, std::size_t k, Rng& rng);
  static EdgePartition by_hash(std::size_t m, std::size_t k,
                               std::uint64_t seed);

  std::size_t m() const noexcept { return home_.size(); }
  std::size_t k() const noexcept { return k_; }
  std::uint32_t home(std::size_t edge_index) const noexcept {
    return home_[edge_index];
  }
  const std::vector<std::uint32_t>& owned(std::size_t machine) const noexcept {
    return owned_[machine];
  }
  std::size_t max_load() const noexcept;

 private:
  EdgePartition(std::size_t k, std::vector<std::uint32_t> home);

  std::size_t k_ = 0;
  std::vector<std::uint32_t> home_;
  std::vector<std::vector<std::uint32_t>> owned_;
};

}  // namespace km
