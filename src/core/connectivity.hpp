// Sketch-based connectivity in the k-machine model: the paper's
// Õ(n/k²)-round upper bound (Section 1.3, the algorithm of [51] built on
// AGM linear graph sketches), plus the trivial Õ(n/k) centralized
// baseline the round-bounds harness measures it against.
//
// sketch_connectivity() runs Borůvka phases where *no machine ever
// enumerates a component's edge set*.  A phase is exactly five
// supersteps:
//   1. sketch-up: every home machine builds a fresh-seeded ℓ₀ sketch
//      (core/sketch.hpp, O(polylog n) bits) of each hosted component's
//      summed edge-incidence vector, pre-aggregated over its owned
//      members, and ships each nonzero cell to a *holder* machine
//      hashed from (label, cell position).  All copies of one cell
//      meet at one holder, so the folded copies are exactly that cell
//      of the component's folded sketch (internal edges cancel by
//      linearity) — and because the balancing granularity is a single
//      cell, every link carries its machine's hosted sketch bits
//      spread 1/k-evenly *regardless of which labels it hosts*.  A
//      single designated proxy per label (rank mod k) always receives
//      an entry from each host, giving it the phase's host census;
//   2. candidate-forward: each holder runs 1-sparse recovery on its
//      folded cells and forwards just the recovered edge ids to the
//      label's proxy — a few varints per label, not a second
//      sketch-sized hop.  Absence of any nonzero report is the proxy's
//      (whp-exact) proof the component has no outgoing edge left;
//   3. label-query / 4. label-reply: proxies resolve the component
//      labels of the candidate endpoints from their home machines, one
//      batched query message per link with replies mirrored in query
//      order;
//   5. root-push: proxies decide hooking and *push* (label, root,
//      finished) only to the machines recorded as hosts in step 1, and
//      only for labels that actually changed — no per-label root
//      queries — with each machine's sampling statistics (attempts,
//      failures, any-alive) piggybacked on the same superstep, so the
//      phase needs neither a root-query round-trip nor a separate
//      all-reduce to detect termination.
// Components merge by min-label hooking: a component hooks across the
// smallest-labelled sampled neighbour whose label is below its own.
// Hook edges point strictly downward in label order, so no pointer
// cycle can form, and with several candidate edges per fold the
// per-phase merge probability beats a coin-flip rule — the measured
// grids converge in ~log₂(n)·0.9 phases.  Per phase each machine ships
// Õ(n/k) sketch bits spread cell-by-cell over all k links — Õ(n/k²)
// per link, hence Õ(n/k²) rounds per phase at B = polylog(n), against
// Ω̃(n/k²) from the paper's General Lower Bound Theorem.
// tests/test_round_bounds.cpp pins the measured exponent and the
// crossover against the baseline at one dense cell.
//
// centralized_connectivity_baseline() is the Õ(n/k) strawman: every
// machine ships its local edges to machine 0, which union-finds and
// ships labels back — per-link load Θ((m+n)/k · log n), one phase.
#pragma once

#include <cstdint>

#include "core/mst.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "sim/partition.hpp"

namespace km {

/// Sketch-based connectivity; labels are component-consistent vertex ids.
/// `seed` drives the sketch hashes and the cell-to-holder assignment.
DistributedComponentsResult sketch_connectivity(
    const Graph& g, const VertexPartition& partition, Engine& engine,
    std::uint64_t seed);

/// The Õ(n/k) baseline: centralize all edges at machine 0, union-find,
/// scatter labels.  Exists to give test_round_bounds and bench_sketch
/// the n/k-vs-n/k² separation the paper claims.
DistributedComponentsResult centralized_connectivity_baseline(
    const Graph& g, const VertexPartition& partition, Engine& engine);

}  // namespace km
