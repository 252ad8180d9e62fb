// Runtime-dispatched kernels for the ℓ₀-sketch hot loops.
//
// L0Sketch (core/sketch.hpp) stores its rows×levels cell grid as a
// structure-of-arrays arena — three contiguous streams (signed counts,
// wrapping id-sums, Mersenne-61 fingerprints) — so the two loops that
// dominate the sketch plane become straight-line passes over machine
// words.  The whole grid is handled per kernel call (the row loop lives
// inside the kernel), so the indirect-call cost amortizes over the grid
// rather than being paid per row:
//   - merge_grid: pointwise vector addition of another sketch's grid
//     into this one (counts += counts, id_sums += id_sums wrapping,
//     fps = addmod61(fps, fps)), swept densely over all cells so the
//     trip count is a pure function of the shape — data-dependent loop
//     bounds mispredict, and the mispredicts cost more than the adds.
//   - add_grid: the update of L0Sketch::add, applying one (sign, id,
//     z^id) triple to each row's subsample prefix [0, tz(hash)+1),
//     branch-free under a lane mask in the common (short-prefix) case.
//
// Both kernels exist in a scalar flavor and an AVX2 flavor selected at
// runtime from CPUID.  The two flavors perform the *same* integer
// arithmetic per element (64-bit adds, compare-and-subtract for the
// modular add; the subsample hash is the same scalar code in both), so
// their results are bit-identical — sketches stay exactly linear and
// merge-order invariant no matter which path ran.
// tests/test_sketch_simd.cpp holds byte-identical serialization across
// the paths as a property; force_sketch_dispatch() is the hook it (and
// bench_sketch's scalar-vs-SIMD comparison) uses to pin a path.
//
// FingerprintPowers batches the Mersenne-61 exponentiations: all
// sketches of a phase share one fingerprint base z, so z^id collapses
// into an 8-bit windowed table (256 entries per byte of the exponent)
// built once and shared thread-locally — ≤ 7 widening multiplies per
// pow() (2 for a 24-bit id) instead of ~2·bits, with results identical
// to powmod61.  Sketch adds and 1-sparse recovery both read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace km::detail {

enum class SketchDispatch : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

// Both kernels may touch up to 3 words past a stream's rows×levels
// cells with full-width vector accesses whose off-lane words are
// rewritten unchanged; every stream passed in (destination AND source)
// must therefore have at least 3 addressable words of slack after its
// cells.  The L0Sketch arena layout guarantees this (see arena_words in
// core/sketch.cpp).
struct SketchKernels {
  /// Merges `o_*`'s row-major grid into the destination streams as one
  /// dense sweep of all rows×levels cells (source cells above their row
  /// watermark are zero and adding zero changes nothing, so density is
  /// free correctness-wise and keeps the loop exits predictable);
  /// tops[r] is raised to max(tops[r], o_tops[r]).
  void (*merge_grid)(std::int64_t* counts, std::uint64_t* id_sums,
                     std::uint64_t* fps, std::uint64_t* tops,
                     const std::int64_t* o_counts,
                     const std::uint64_t* o_id_sums,
                     const std::uint64_t* o_fps, const std::uint64_t* o_tops,
                     std::uint32_t rows, std::uint32_t levels) noexcept;
  /// Applies one edge update to every row: row r's prefix
  /// [0, min(tz(hash_u64(row_seeds[r] ^ id_hash)) + 1, levels)) gets
  /// counts += sign, id_sums += id_delta (the pre-negated ±id,
  /// wrapping), fps = addmod61(fps, fp_delta) (the pre-negated ±z^id).
  /// id_hash is hash_u64(id + 0x9e3779b97f4a7c15), i.e. the inner half
  /// of hash_vertex(seed, id), hoisted out of the row loop.  tops[r] is
  /// raised to the touched length.
  void (*add_grid)(std::int64_t* counts, std::uint64_t* id_sums,
                   std::uint64_t* fps, std::uint64_t* tops,
                   const std::uint64_t* row_seeds, std::uint32_t rows,
                   std::uint32_t levels, std::uint64_t id_hash,
                   std::int64_t sign, std::uint64_t id_delta,
                   std::uint64_t fp_delta) noexcept;
  const char* name;
};

/// The kernel table for the active dispatch path.
const SketchKernels& sketch_kernels() noexcept;

/// The path sketch_kernels() currently resolves to (auto-detected from
/// CPUID unless forced).
SketchDispatch active_sketch_dispatch() noexcept;

bool sketch_dispatch_supported(SketchDispatch d) noexcept;

/// Pins the dispatch path (tests / benchmarks).  Throws
/// std::invalid_argument if this CPU does not support the requested
/// path.  Affects subsequent kernel calls process-wide.
void force_sketch_dispatch(SketchDispatch d);

/// Returns to CPUID auto-detection.
void reset_sketch_dispatch() noexcept;

/// 8-bit windowed power table over the Mersenne-61 field:
/// table[d][v] = z^(v << 8d) mod 2^61-1, so z^e is the product of one
/// table entry per nonzero byte of e.  Results are bit-identical to
/// powmod61(z, e).
class FingerprintPowers {
 public:
  FingerprintPowers(std::uint64_t z, std::uint32_t max_exp_bits);

  std::uint64_t z() const noexcept { return z_; }
  std::uint32_t digits() const noexcept { return digits_; }

  /// z^exp mod 2^61-1; exp must fit in the max_exp_bits the table was
  /// built for.
  std::uint64_t pow(std::uint64_t exp) const noexcept;

 private:
  std::uint64_t z_ = 1;
  std::uint32_t digits_ = 1;
  std::vector<std::uint64_t> table_;  ///< digits_ × 256, row-major
};

/// Thread-local memo of FingerprintPowers keyed by (z, exponent width):
/// every sketch of a phase shares one base, so the table is built once
/// per (phase, thread) and amortizes to nothing.
const FingerprintPowers& fingerprint_powers(std::uint64_t z,
                                            std::uint32_t max_exp_bits);

}  // namespace km::detail
