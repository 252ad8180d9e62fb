#include "core/detail/sketch_kernels.hpp"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "core/detail/mersenne61.hpp"
#include "util/annotations.hpp"
#include "util/hash.hpp"

namespace km::detail {

namespace {

// ---------------------------------------------------------------------------
// Scalar span helpers — the per-row inner loops, shared by the grid
// kernels of both flavors (the AVX2 grid kernels use them for tails).
// ---------------------------------------------------------------------------

// id_sum wraps mod 2^64 by design (linearity over Z/2^64); keep clang's
// opt-in -fsanitize=integer from flagging the intentional wrap.
KM_NO_SANITIZE("unsigned-integer-overflow")
inline void merge_span_scalar(std::int64_t* counts, std::uint64_t* id_sums,
                              std::uint64_t* fps, const std::int64_t* o_counts,
                              const std::uint64_t* o_id_sums,
                              const std::uint64_t* o_fps,
                              std::size_t len) noexcept {
  for (std::size_t i = 0; i < len; ++i) counts[i] += o_counts[i];
  for (std::size_t i = 0; i < len; ++i) id_sums[i] += o_id_sums[i];
  for (std::size_t i = 0; i < len; ++i) {
    fps[i] = addmod61_unchecked(fps[i], o_fps[i]);
  }
}

KM_NO_SANITIZE("unsigned-integer-overflow")
inline void add_span_scalar(std::int64_t* counts, std::uint64_t* id_sums,
                            std::uint64_t* fps, std::size_t len,
                            std::int64_t sign, std::uint64_t id_delta,
                            std::uint64_t fp_delta) noexcept {
  for (std::size_t l = 0; l < len; ++l) counts[l] += sign;
  for (std::size_t l = 0; l < len; ++l) id_sums[l] += id_delta;
  for (std::size_t l = 0; l < len; ++l) {
    fps[l] = addmod61_unchecked(fps[l], fp_delta);
  }
}

/// Subsample depth of `id_hash` in row r: level l keeps the id iff the
/// seeded hash has >= l trailing zero bits, so level-l membership
/// implies level-(l-1) membership and each level halves the expected
/// support.  Identical scalar code in both flavors — the dispatch paths
/// only differ in how they sweep the resulting prefix.
inline std::uint32_t row_prefix_len(std::uint64_t row_seed,
                                    std::uint64_t id_hash,
                                    std::uint32_t levels) noexcept {
  const std::uint64_t h = hash_u64(row_seed ^ id_hash);
  const auto tz = static_cast<std::uint32_t>(std::countr_zero(h));
  return std::min(tz, levels - 1) + 1;
}

/// Shared merge sweep bound: every row is swept over the same span
/// [0, min(max_r o_tops[r], levels)).  Cells of the source at or above
/// its row watermark are zero and adding zero leaves all three streams
/// unchanged, so widening each row to the common span is free
/// correctness-wise — and it turns rows×streams data-dependent loop
/// exits (a branch mispredict each: the watermarks are
/// geometric-distributed) into a single bound per merge, while reading
/// only the watermarked prefix of the source instead of its whole
/// arena (in-memory merges stream many distinct sources, so the merge
/// loop is bandwidth-bound).  Watermarks are still maintained —
/// serialize()/sample() use them as scan bounds.
inline std::size_t merge_span_len(const std::uint64_t* o_tops,
                                  std::uint32_t rows,
                                  std::uint32_t levels) noexcept {
  std::uint64_t mtop = 0;
  for (std::uint32_t r = 0; r < rows; ++r) mtop = std::max(mtop, o_tops[r]);
  return std::min<std::size_t>(mtop, levels);
}

// ---------------------------------------------------------------------------
// Scalar grid kernels
// ---------------------------------------------------------------------------

/// Issues prefetches for every (stream, row) prefix of a merge source:
/// the three streams sit a stride apart and the row prefixes within a
/// stream another `levels` words apart, so a cold source costs up to
/// 3*rows distinct cache lines; requesting them all up front turns a
/// chain of demand misses into one overlapped wave.
inline void prefetch_source(const std::int64_t* o_counts,
                            const std::uint64_t* o_id_sums,
                            const std::uint64_t* o_fps, std::uint32_t rows,
                            std::uint32_t levels) noexcept {
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * levels;
    __builtin_prefetch(o_counts + off, 0, 3);
    __builtin_prefetch(o_id_sums + off, 0, 3);
    __builtin_prefetch(o_fps + off, 0, 3);
  }
}

void merge_grid_scalar(std::int64_t* counts, std::uint64_t* id_sums,
                       std::uint64_t* fps, std::uint64_t* tops,
                       const std::int64_t* o_counts,
                       const std::uint64_t* o_id_sums,
                       const std::uint64_t* o_fps, const std::uint64_t* o_tops,
                       std::uint32_t rows, std::uint32_t levels) noexcept {
  prefetch_source(o_counts, o_id_sums, o_fps, rows, levels);
  const std::size_t span = merge_span_len(o_tops, rows, levels);
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * levels;
    merge_span_scalar(counts + off, id_sums + off, fps + off, o_counts + off,
                      o_id_sums + off, o_fps + off, span);
  }
  for (std::uint32_t r = 0; r < rows; ++r) {
    tops[r] = std::max(tops[r], o_tops[r]);
  }
}

KM_NO_SANITIZE("unsigned-integer-overflow")
void add_grid_scalar(std::int64_t* counts, std::uint64_t* id_sums,
                     std::uint64_t* fps, std::uint64_t* tops,
                     const std::uint64_t* row_seeds, std::uint32_t rows,
                     std::uint32_t levels, std::uint64_t id_hash,
                     std::int64_t sign, std::uint64_t id_delta,
                     std::uint64_t fp_delta) noexcept {
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint32_t len = row_prefix_len(row_seeds[r], id_hash, levels);
    const std::size_t off = static_cast<std::size_t>(r) * levels;
    // One fused loop per row: a single data-dependent exit instead of
    // one per stream.
    for (std::uint32_t l = 0; l < len; ++l) {
      counts[off + l] += sign;
      id_sums[off + l] += id_delta;
      fps[off + l] = addmod61_unchecked(fps[off + l], fp_delta);
    }
    tops[r] = std::max<std::uint64_t>(tops[r], len);
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels — the same integer arithmetic, four lanes at a time.
// The modular add is branch-free: s = a + b (both < p < 2^62, so the
// sum fits in 2^63 and signed comparison is safe), then subtract p from
// every lane where s > p - 1.  That is exactly the scalar
// compare-and-subtract, so results are bit-identical.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void merge_grid_avx2(
    std::int64_t* counts, std::uint64_t* id_sums, std::uint64_t* fps,
    std::uint64_t* tops, const std::int64_t* o_counts,
    const std::uint64_t* o_id_sums, const std::uint64_t* o_fps,
    const std::uint64_t* o_tops, std::uint32_t rows,
    std::uint32_t levels) noexcept {
  prefetch_source(o_counts, o_id_sums, o_fps, rows, levels);
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kMersenne61));
  const __m256i pm1 =
      _mm256_set1_epi64x(static_cast<long long>(kMersenne61 - 1));
  // One shared span bound (see merge_span_len) — every row sweeps the
  // same number of blocks, so the data-dependent branches repeat the
  // same way on each row of a call.
  const std::size_t span = merge_span_len(o_tops, rows, levels);
  const std::size_t nfull = span & ~std::size_t{3};
  const std::size_t rem = span - nfull;
  const __m256i mrem = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(rem)),
      _mm256_set_epi64x(3, 2, 1, 0));
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * levels;
    for (std::size_t i = 0; i < nfull; i += 4) {
      const std::size_t j = off + i;
      const __m256i c = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + j)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o_counts + j)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + j), c);
      const __m256i s = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(id_sums + j)),
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(o_id_sums + j)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(id_sums + j), s);
      const __m256i f = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fps + j)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o_fps + j)));
      // f in [0, 2p); subtract p where f >= p, i.e. f > p - 1 (signed
      // compare is valid: every lane is < 2^62).
      const __m256i over = _mm256_cmpgt_epi64(f, pm1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(fps + j),
                          _mm256_sub_epi64(f, _mm256_and_si256(over, p)));
    }
    if (rem != 0) {
      // Remainder block, branch-free: source lanes >= rem are masked to
      // zero, so the destination lanes there store back what was loaded
      // (both arenas carry slack words past each stream, see the
      // L0Sketch arena layout, so full-width access stays in bounds).
      const std::size_t j = off + nfull;
      const __m256i c = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + j)),
          _mm256_and_si256(
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(o_counts + j)),
              mrem));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + j), c);
      const __m256i s = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(id_sums + j)),
          _mm256_and_si256(
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(o_id_sums + j)),
              mrem));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(id_sums + j), s);
      const __m256i f = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fps + j)),
          _mm256_and_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o_fps + j)),
              mrem));
      // Mask the fold too: off-lane words (arena slack, row seeds) are
      // arbitrary u64s that a bare compare-subtract would rewrite.
      const __m256i over =
          _mm256_and_si256(_mm256_cmpgt_epi64(f, pm1), mrem);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(fps + j),
                          _mm256_sub_epi64(f, _mm256_and_si256(over, p)));
    }
  }
  for (std::uint32_t r = 0; r < rows; ++r) {
    tops[r] = std::max(tops[r], o_tops[r]);
  }
}

__attribute__((target("avx2"))) void add_grid_avx2(
    std::int64_t* counts, std::uint64_t* id_sums, std::uint64_t* fps,
    std::uint64_t* tops, const std::uint64_t* row_seeds, std::uint32_t rows,
    std::uint32_t levels, std::uint64_t id_hash, std::int64_t sign,
    std::uint64_t id_delta, std::uint64_t fp_delta) noexcept {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kMersenne61));
  const __m256i pm1 =
      _mm256_set1_epi64x(static_cast<long long>(kMersenne61 - 1));
  const __m256i vsign = _mm256_set1_epi64x(static_cast<long long>(sign));
  const __m256i vid = _mm256_set1_epi64x(static_cast<long long>(id_delta));
  const __m256i vfp = _mm256_set1_epi64x(static_cast<long long>(fp_delta));
  const __m256i iota = _mm256_set_epi64x(3, 2, 1, 0);
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint32_t len = row_prefix_len(row_seeds[r], id_hash, levels);
    const std::size_t off = static_cast<std::size_t>(r) * levels;
    // The prefix length is geometric (E[len] = 2), so a length-bounded
    // loop would mispredict its exit on nearly every row; that, not the
    // arithmetic, dominated a span-loop formulation of this kernel.
    // Instead the first vector of levels is updated branch-free: the
    // deltas are masked to zero on lanes >= len, so those lanes store
    // back exactly what was loaded (the modular fold is also a no-op
    // there: the loaded residue is < p).  Lanes past the row (or, on
    // the last row, past the cell grid) read and rewrite unchanged
    // neighboring arena words — the L0Sketch arena layout guarantees at
    // least 3 words after each stream's cells.  Only 1 row in 8 has
    // len > 4 and takes the extension loop below.
    const __m256i vlen =
        _mm256_set1_epi64x(static_cast<long long>(len));
    const __m256i m = _mm256_cmpgt_epi64(vlen, iota);
    const __m256i c = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + off)),
        _mm256_and_si256(vsign, m));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + off), c);
    const __m256i s = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(id_sums + off)),
        _mm256_and_si256(vid, m));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(id_sums + off), s);
    __m256i f = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fps + off)),
        _mm256_and_si256(vfp, m));
    // The fold must honor the mask too: off-lane words (arena slack,
    // row seeds) are arbitrary u64s that a bare compare-subtract would
    // rewrite.
    const __m256i over =
        _mm256_and_si256(_mm256_cmpgt_epi64(f, pm1), m);
    f = _mm256_sub_epi64(f, _mm256_and_si256(over, p));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(fps + off), f);
    if (len > 4) {
      std::size_t l = 4;
      for (; l + 4 <= len; l += 4) {
        const __m256i c2 = _mm256_add_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(counts + off + l)),
            vsign);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + off + l), c2);
        const __m256i s2 = _mm256_add_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(id_sums + off + l)),
            vid);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(id_sums + off + l),
                            s2);
        const __m256i f2 = _mm256_add_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(fps + off + l)),
            vfp);
        const __m256i over2 = _mm256_cmpgt_epi64(f2, pm1);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(fps + off + l),
            _mm256_sub_epi64(f2, _mm256_and_si256(over2, p)));
      }
      if (l < len) {
        add_span_scalar(counts + off + l, id_sums + off + l, fps + off + l,
                        len - l, sign, id_delta, fp_delta);
      }
    }
    tops[r] = std::max<std::uint64_t>(tops[r], len);
  }
}

constexpr SketchKernels kScalarKernels{merge_grid_scalar, add_grid_scalar,
                                       "scalar"};
constexpr SketchKernels kAvx2Kernels{merge_grid_avx2, add_grid_avx2, "avx2"};

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// -1 = auto (CPUID); otherwise a forced SketchDispatch value.
std::atomic<int> g_forced{-1};

SketchDispatch resolve() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SketchDispatch>(forced);
  return cpu_has_avx2() ? SketchDispatch::kAvx2 : SketchDispatch::kScalar;
}

}  // namespace

const SketchKernels& sketch_kernels() noexcept {
  return resolve() == SketchDispatch::kAvx2 ? kAvx2Kernels : kScalarKernels;
}

SketchDispatch active_sketch_dispatch() noexcept { return resolve(); }

bool sketch_dispatch_supported(SketchDispatch d) noexcept {
  return d == SketchDispatch::kScalar || cpu_has_avx2();
}

void force_sketch_dispatch(SketchDispatch d) {
  if (!sketch_dispatch_supported(d)) {
    throw std::invalid_argument(
        "force_sketch_dispatch: requested path unsupported on this CPU");
  }
  g_forced.store(static_cast<int>(d), std::memory_order_relaxed);
}

void reset_sketch_dispatch() noexcept {
  g_forced.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// FingerprintPowers
// ---------------------------------------------------------------------------

FingerprintPowers::FingerprintPowers(std::uint64_t z,
                                     std::uint32_t max_exp_bits)
    : z_(reduce61(z)) {
  digits_ = (max_exp_bits + 7) / 8;
  if (digits_ == 0) digits_ = 1;
  if (digits_ > 8) digits_ = 8;
  table_.assign(static_cast<std::size_t>(digits_) * 256, 1);
  // table[d][v] = z^(v << 8d): within a digit multiply by the digit's
  // unit step; the next digit's unit step is the 256th power of this
  // one's, i.e. table[d][255] * table[d][1].
  std::uint64_t unit = z_;  // z^(1 << 8d)
  for (std::uint32_t d = 0; d < digits_; ++d) {
    std::uint64_t* row = table_.data() + static_cast<std::size_t>(d) * 256;
    row[0] = 1;
    for (std::uint32_t v = 1; v < 256; ++v) {
      row[v] = mulmod61_unchecked(row[v - 1], unit);
    }
    unit = mulmod61_unchecked(row[255], unit);
  }
}

std::uint64_t FingerprintPowers::pow(std::uint64_t exp) const noexcept {
  const std::uint64_t* row = table_.data();
  std::uint64_t r = row[exp & 255];
  exp >>= 8;
  for (std::uint32_t d = 1; d < digits_ && exp != 0; ++d, exp >>= 8) {
    row += 256;
    const std::uint64_t v = exp & 255;
    if (v != 0) r = mulmod61_unchecked(r, row[v]);
  }
  return r;
}

const FingerprintPowers& fingerprint_powers(std::uint64_t z,
                                            std::uint32_t max_exp_bits) {
  // A tiny thread-local memo: within a Borůvka phase every sketch shares
  // one base, and adjacent phases only ever juggle a couple of bases.
  struct Slot {
    std::uint64_t z = 0;
    std::uint32_t bits = 0;
    FingerprintPowers powers{1, 1};
  };
  thread_local Slot slots[4];
  thread_local std::uint32_t next = 0;
  for (auto& slot : slots) {
    if (slot.z == z && slot.bits >= max_exp_bits && slot.z != 0) {
      return slot.powers;
    }
  }
  Slot& slot = slots[next];
  next = (next + 1) % 4;
  slot.z = z;
  slot.bits = max_exp_bits;
  slot.powers = FingerprintPowers(z, max_exp_bits);
  return slot.powers;
}

}  // namespace km::detail
