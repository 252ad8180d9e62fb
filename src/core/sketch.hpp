// Linear graph sketches: ℓ₀-sampling over signed edge-incidence vectors.
//
// The paper's Õ(n/k²) connectivity/MST upper bound (Section 1.3, the
// algorithm of Pandurangan-Robinson-Scquizzato [51], built on the
// Ahn-Guibas-McGregor sketching technique) rests on one linear-algebra
// fact: give every edge e = {a, b} (a < b) a ±1 entry in each endpoint's
// incidence vector (+1 at a, -1 at b).  Then for any vertex set S, the
// *sum* of the member vectors has support exactly on the edges crossing
// the cut (S, V∖S) — internal edges cancel.  A linear sketch of the
// incidence vectors therefore merges under addition: polylog(n) bits per
// vertex travel to a component's proxy machine, the proxy adds them, and
// sampling the folded sketch yields an outgoing edge of the whole
// component without anyone ever enumerating its edge set.
//
// Two layers:
//  - SketchCell: the classic 1-sparse recovery triple (signed count,
//    wrapping id-sum, Mersenne-61 polynomial fingerprint).  Exact when
//    the underlying vector really is 1-sparse; the fingerprint rejects
//    everything else with error ≤ 64/2⁶¹ per check.  Also an exact
//    emptiness test whp (a nonzero vector fingerprints to 0 with
//    probability ≤ support·64/2⁶¹).
//  - L0Sketch: rows × levels cells, level ℓ subsampling ids nested with
//    probability 2^-ℓ (trailing zeros of a seeded hash).  sample() scans
//    for a verified 1-sparse cell, giving a uniformly-ish random element
//    of the support with constant success probability per row.
//
// Storage is a structure-of-arrays arena: one 64-byte-aligned
// allocation holding three contiguous streams (counts, id-sums,
// fingerprints) over the rows×levels grid, plus per-row seeds and
// watermarks.  The add/merge loops run through runtime-dispatched SIMD
// kernels (core/detail/sketch_kernels.hpp: AVX2 when the CPU has it,
// scalar otherwise) that perform identical integer arithmetic, so the
// dispatch path never changes a single bit of any sketch.  Each row
// also keeps a watermark — one past the highest level any update
// touched — so merge and serialize skip the provably-zero tail of the
// level cascade.
//
// The wire format is sparse: a nonzero-cell bitmap over the grid
// followed by (varint count, varint id-sum, fixed fingerprint) per
// nonzero cell.  Empty cells cost one bit instead of ten bytes, which
// is what keeps the phase-0 payload (n singleton sketches, most of the
// cascade untouched) at Õ(n/k²) with a small constant.
//
// Everything here is deterministic given (seed, id): merging is integer
// addition, so sketches are exactly linear and merge-order invariant
// (tests/test_sketch.cpp holds both as properties, and
// tests/test_sketch_simd.cpp holds scalar/AVX2 bit-identity).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/serialize.hpp"

namespace km {

namespace detail {
class FingerprintPowers;
}  // namespace detail

/// Field modulus for fingerprints: the Mersenne prime 2^61 - 1.
inline constexpr std::uint64_t kSketchPrime = (std::uint64_t{1} << 61) - 1;

/// a * b mod 2^61-1.  Inputs may be arbitrary u64 values: both are
/// canonicalized at entry (values ≡ 2^61-1, e.g. the modulus itself or
/// UINT64_MAX, alias their residue — the modulus aliases zero).  The
/// result is always the canonical representative in [0, 2^61-1).
std::uint64_t mulmod61(std::uint64_t a, std::uint64_t b) noexcept;
/// base^exp mod 2^61-1.  The base is canonicalized at entry like
/// mulmod61; the exponent is a plain integer (not reduced mod p-1).
std::uint64_t powmod61(std::uint64_t base, std::uint64_t exp) noexcept;

/// Packs an undirected edge into one integer id and back: the basis of
/// the incidence vectors.  id = (min << vbits) | max, so ids are unique
/// per edge, nonzero, and decode without any shared state beyond n.
/// vbits tops out at 32 (Vertex is 32-bit): at that edge the id spans
/// the full 64-bit word and every shift below stays < 64, so the
/// arithmetic holds for n all the way up to 2^32.
struct EdgeIdCodec {
  explicit EdgeIdCodec(std::size_t n) noexcept;

  std::uint32_t vbits = 1;  ///< bits per endpoint; 2*vbits = id width

  std::uint64_t encode(Vertex a, Vertex b) const noexcept {
    const Vertex lo = a < b ? a : b;
    const Vertex hi = a < b ? b : a;
    return (std::uint64_t{lo} << vbits) | std::uint64_t{hi};
  }
  /// Sign of vertex v's entry for its incident edge {v, other}.
  static int sign_for(Vertex v, Vertex other) noexcept {
    return v < other ? +1 : -1;
  }
  std::pair<Vertex, Vertex> decode(std::uint64_t id) const noexcept {
    const auto lo = static_cast<Vertex>(id >> vbits);
    const auto hi =
        static_cast<Vertex>(id & ((std::uint64_t{1} << vbits) - 1));
    return {lo, hi};
  }
  std::uint32_t id_bits() const noexcept { return 2 * vbits; }
};

/// 1-sparse recovery cell over a signed integer vector indexed by ids.
/// All three components are linear: merge() is exact vector addition
/// (id_sum wraps mod 2^64 on purpose — recovery only ever reads it when
/// the cell is genuinely 1-sparse, and the fingerprint vetoes the rest).
struct SketchCell {
  std::int64_t count = 0;     ///< sum of signs
  std::uint64_t id_sum = 0;   ///< sum of sign * id, wrapping
  std::uint64_t fingerprint = 0;  ///< sum of sign * z^id mod 2^61-1

  /// Adds sign (±1) at `id`, with z the sketch's fingerprint base.
  void add(std::uint64_t id, int sign, std::uint64_t z) noexcept;
  void merge(const SketchCell& other) noexcept;

  /// True iff every component is zero: the sketched vector is empty whp
  /// (a nonempty vector fingerprints to zero with probability
  /// ≤ support * 64 / 2^61).
  bool is_zero() const noexcept {
    return count == 0 && id_sum == 0 && fingerprint == 0;
  }

  /// The unique id when the vector is 1-sparse with a ±1 value
  /// (guaranteed exact in that case); nullopt otherwise whp.  `universe`
  /// bounds valid ids (exclusive).
  std::optional<std::uint64_t> recover(std::uint64_t z,
                                       std::uint64_t universe) const noexcept;
  /// recover() reading z^id from `powers`, which must be
  /// recovery_powers(z, universe): loops over many cells resolve the
  /// table once instead of once per candidate cell.
  std::optional<std::uint64_t> recover(
      std::uint64_t z, std::uint64_t universe,
      const detail::FingerprintPowers* powers) const noexcept;
  /// The power table recover(z, universe) reads, or null for the full
  /// 64-bit universe (0), which falls back to powmod61.  Thread-local
  /// (detail::fingerprint_powers): valid until the calling thread
  /// resolves tables for other bases, so never across an exchange(),
  /// where other machines run on the same worker.
  static const detail::FingerprintPowers* recovery_powers(
      std::uint64_t z, std::uint64_t universe);

  void serialize(Writer& w) const;
  static SketchCell deserialize(Reader& r);

  friend bool operator==(const SketchCell&, const SketchCell&) = default;
};

/// Shape parameters a sender and receiver must agree on for sketches to
/// be mergeable; fully derived from (seed, id_bits, rows).
struct L0SketchShape {
  std::uint32_t id_bits = 2;  ///< universe = 2^id_bits ids
  std::uint32_t rows = 4;     ///< independent sampler repetitions
  std::uint64_t seed = 1;     ///< drives subsampling hashes and z

  std::uint32_t levels() const noexcept { return id_bits + 1; }
  friend bool operator==(const L0SketchShape&, const L0SketchShape&) = default;
};

/// ℓ₀-sampling sketch: `rows` independent samplers, each a geometric
/// cascade of 1-sparse cells over nested subsamples of the id universe.
class L0Sketch {
 public:
  L0Sketch() = default;
  explicit L0Sketch(const L0SketchShape& shape);
  L0Sketch(const L0Sketch& other);
  L0Sketch& operator=(const L0Sketch& other);
  L0Sketch(L0Sketch&& other) noexcept;
  L0Sketch& operator=(L0Sketch&& other) noexcept;
  ~L0Sketch();

  const L0SketchShape& shape() const noexcept { return shape_; }
  std::uint64_t fingerprint_base() const noexcept { return z_; }

  /// Adds sign (±1) at `id` to every cell whose subsample keeps `id`.
  void add(std::uint64_t id, int sign) noexcept;

  /// Exact pointwise vector addition.  Shapes must match (checked).
  void merge(const L0Sketch& other);

  /// Cache hint: request this sketch's merge-relevant lines.  Fold
  /// loops that stream many sketches into one accumulator should hint
  /// the *next* source before merging the current one — the merge is
  /// otherwise bound on the source's demand misses.
  void prefetch() const noexcept;

  /// Reads a serialized sketch of the same shape and merges it in
  /// without materializing a temporary.
  void merge_serialized(Reader& r);

  /// True iff the sketched vector is empty whp: the level-0 cells (no
  /// subsampling) of every row are zero.
  bool empty_whp() const noexcept;

  /// A member of the support, or nullopt if no cell is 1-sparse (retry
  /// with a fresh seed).  Deterministic in the cell contents, so two
  /// sketches that are equal — however they were merged — sample the
  /// same id.
  std::optional<std::uint64_t> sample() const noexcept;

  /// Every distinct support member any 1-sparse cell recovers, sorted
  /// ascending — the rows are independent samplers, so a single fold
  /// usually yields several distinct members for free.  Deterministic in
  /// the cell contents like sample() (which returns the first recovery
  /// in row-major order, not necessarily the smallest).
  std::vector<std::uint64_t> sample_all() const;

  /// Sparse wire format: nonzero-cell bitmap, then per nonzero cell
  /// (varint count, varint id-sum, fixed-width fingerprint).
  void serialize(Writer& w) const;

  /// Test access: the cell at (row, level), assembled from the arena.
  SketchCell cell(std::size_t row, std::size_t level) const noexcept {
    const std::size_t i = row * shape_.levels() + level;
    return SketchCell{counts_[i], id_sums_[i], fps_[i]};
  }
  std::size_t cell_count() const noexcept { return cells_; }

  friend bool operator==(const L0Sketch& a, const L0Sketch& b);

 private:
  void alloc_arena();

  L0SketchShape shape_;
  std::uint64_t z_ = 1;
  std::size_t cells_ = 0;  ///< rows * levels
  // One 64-byte-aligned arena; counts_/id_sums_/fps_ are the three SoA
  // streams over the row-major grid, followed by per-row subsampling
  // seeds and watermarks (tops_[r] = one past the highest level any
  // update touched in row r; every cell at or above it is zero).
  std::uint64_t* arena_ = nullptr;
  std::int64_t* counts_ = nullptr;
  std::uint64_t* id_sums_ = nullptr;
  std::uint64_t* fps_ = nullptr;
  std::uint64_t* row_seeds_ = nullptr;
  std::uint64_t* tops_ = nullptr;
};

/// Fingerprint base shared by every cell derived from `seed`: uniform in
/// [2, p-1].  L0Sketch uses it, and connectivity's holders pass it to
/// SketchCell::recover when they verify a folded cell.
std::uint64_t sketch_fingerprint_base(std::uint64_t seed) noexcept;

}  // namespace km
