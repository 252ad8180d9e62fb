#include "core/sketch.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "core/detail/mersenne61.hpp"
#include "core/detail/sketch_kernels.hpp"
#include "util/annotations.hpp"
#include "util/hash.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace km {

std::uint64_t mulmod61(std::uint64_t a, std::uint64_t b) noexcept {
  // Canonicalize at the boundary: the Mersenne folding inside the
  // unchecked multiply is only valid for reduced factors, and values
  // ≡ p (the modulus itself, UINT64_MAX, ...) must alias their residue.
  return detail::mulmod61_unchecked(detail::reduce61(a),
                                    detail::reduce61(b));
}

std::uint64_t powmod61(std::uint64_t base, std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  std::uint64_t b = detail::reduce61(base);
  while (exp > 0) {
    if (exp & 1) result = detail::mulmod61_unchecked(result, b);
    b = detail::mulmod61_unchecked(b, b);
    exp >>= 1;
  }
  return result;
}

std::uint64_t sketch_fingerprint_base(std::uint64_t seed) noexcept {
  // Uniform-ish in [2, p-1]; any value >= 2 gives z^id != 0 and the
  // polynomial-identity error bound.
  return 2 + mix64(seed, 0x51e7c4b1ULL) % (kSketchPrime - 2);
}

// ---------------------------------------------------------------------------
// SketchCell
// ---------------------------------------------------------------------------

// id_sum wraps mod 2^64 by design (linearity over Z/2^64); keep clang's
// opt-in -fsanitize=integer from flagging the intentional wrap.
KM_NO_SANITIZE("unsigned-integer-overflow")
void SketchCell::add(std::uint64_t id, int sign, std::uint64_t z) noexcept {
  const std::uint64_t z_pow_id = powmod61(z, id);
  if (sign > 0) {
    count += 1;
    id_sum += id;
    fingerprint = detail::addmod61_unchecked(fingerprint, z_pow_id);
  } else {
    count -= 1;
    id_sum -= id;  // wraps: exact inverse of the add
    fingerprint = detail::addmod61_unchecked(
        fingerprint, detail::negmod61_unchecked(z_pow_id));
  }
}

KM_NO_SANITIZE("unsigned-integer-overflow")
void SketchCell::merge(const SketchCell& other) noexcept {
  count += other.count;
  id_sum += other.id_sum;
  fingerprint = detail::addmod61_unchecked(fingerprint, other.fingerprint);
}

std::optional<std::uint64_t> SketchCell::recover(
    std::uint64_t z, std::uint64_t universe) const noexcept {
  // Only a ±1 count can recover: skip the table lookup for the rest.
  if (count != 1 && count != -1) return std::nullopt;
  return recover(z, universe, recovery_powers(z, universe));
}

const detail::FingerprintPowers* SketchCell::recovery_powers(
    std::uint64_t z, std::uint64_t universe) {
  // The phase's sketch adds have already built z's power table on this
  // thread; the full 64-bit universe (0) falls back to powmod61.
  if (universe == 0) return nullptr;
  return &detail::fingerprint_powers(
      z, static_cast<std::uint32_t>(std::bit_width(universe - 1)));
}

KM_NO_SANITIZE("unsigned-integer-overflow")  // 0 - id_sum: exact negation
std::optional<std::uint64_t> SketchCell::recover(
    std::uint64_t z, std::uint64_t universe,
    const detail::FingerprintPowers* powers) const noexcept {
  // A ±1-valued 1-sparse vector has count = ±1 and id_sum = ±id exactly
  // (single term: no wrapping).  Anything else that happens to pass the
  // count test is vetoed by the fingerprint whp.
  if (count != 1 && count != -1) return std::nullopt;
  const std::uint64_t id = count == 1 ? id_sum : (0 - id_sum);
  if (universe != 0 && id >= universe) return std::nullopt;
  std::uint64_t expect = powers == nullptr ? powmod61(z, id) : powers->pow(id);
  if (count == -1) expect = detail::negmod61_unchecked(expect);
  if (expect != fingerprint) return std::nullopt;
  return id;
}

void SketchCell::serialize(Writer& w) const {
  w.put_varint_signed(count);
  w.put_varint_signed(static_cast<std::int64_t>(id_sum));
  w.put_u64(fingerprint);
}

SketchCell SketchCell::deserialize(Reader& r) {
  SketchCell cell;
  cell.count = r.get_varint_signed();
  cell.id_sum = static_cast<std::uint64_t>(r.get_varint_signed());
  cell.fingerprint = r.get_u64();
  return cell;
}

// ---------------------------------------------------------------------------
// EdgeIdCodec
// ---------------------------------------------------------------------------

EdgeIdCodec::EdgeIdCodec(std::size_t n) noexcept
    : vbits(std::max<std::uint32_t>(
          1, ceil_log2(std::max<std::uint64_t>(n, 2)))) {}

// ---------------------------------------------------------------------------
// L0Sketch
// ---------------------------------------------------------------------------

namespace {

/// Per-stream stride in words: cells rounded up so each of the three
/// SoA streams starts on a 64-byte boundary within the arena.
std::size_t arena_stride(std::size_t cells) noexcept {
  return (cells + 7) & ~std::size_t{7};
}

std::size_t arena_words(std::size_t cells, std::uint32_t rows) noexcept {
  // +4 slack words: the vectorized add kernel handles a row's first
  // levels with full-width loads/stores whose off-lane words are
  // rewritten unchanged, so up to 3 words past the last stream's cells
  // must stay inside the allocation.
  return 3 * arena_stride(cells) + 2 * rows + 4;
}

std::size_t arena_bytes(std::size_t words) noexcept {
  return ((words * 8) + 63) & ~std::size_t{63};
}

/// Thread-local recycling pool for arena blocks.  A workload constructs
/// and destroys sketches by the million, all sharing one shape (and so
/// one block size) within a phase; without the pool, aligned_alloc +
/// free dominate construction.  One size class suffices — a different
/// size flushes the pool.  Blocks may migrate across threads (a sketch
/// built on one worker can be destroyed on another); each block simply
/// joins the releasing thread's pool.
struct ArenaPool {
  std::size_t bytes = 0;
  std::vector<std::uint64_t*> blocks;

  static constexpr std::size_t kMaxBlocks = 256;

  ~ArenaPool() {
    for (std::uint64_t* p : blocks) std::free(p);
  }
};

ArenaPool& arena_pool() {
  thread_local ArenaPool pool;
  return pool;
}

std::uint64_t* arena_alloc(std::size_t words) {
  const std::size_t bytes = arena_bytes(words);
  ArenaPool& pool = arena_pool();
  if (pool.bytes == bytes && !pool.blocks.empty()) {
    std::uint64_t* p = pool.blocks.back();
    pool.blocks.pop_back();
    return p;
  }
  void* p = std::aligned_alloc(64, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<std::uint64_t*>(p);
}

void arena_release(std::uint64_t* arena, std::size_t words) noexcept {
  if (arena == nullptr) return;
  const std::size_t bytes = arena_bytes(words);
  ArenaPool& pool = arena_pool();
  if (pool.bytes != bytes) {
    for (std::uint64_t* p : pool.blocks) std::free(p);
    pool.blocks.clear();
    pool.bytes = bytes;
  }
  if (pool.blocks.size() < ArenaPool::kMaxBlocks) {
    pool.blocks.push_back(arena);
  } else {
    std::free(arena);
  }
}

}  // namespace

void L0Sketch::alloc_arena() {
  const std::size_t stride = arena_stride(cells_);
  arena_ = arena_alloc(arena_words(cells_, shape_.rows));
  counts_ = reinterpret_cast<std::int64_t*>(arena_);
  id_sums_ = arena_ + stride;
  fps_ = arena_ + 2 * stride;
  row_seeds_ = arena_ + 3 * stride;
  tops_ = row_seeds_ + shape_.rows;
}

L0Sketch::L0Sketch(const L0SketchShape& shape)
    : shape_(shape),
      z_(sketch_fingerprint_base(shape.seed)),
      cells_(static_cast<std::size_t>(shape.rows) * shape.levels()) {
  alloc_arena();
  std::memset(arena_, 0, arena_words(cells_, shape_.rows) * 8);
  for (std::uint32_t r = 0; r < shape_.rows; ++r) {
    row_seeds_[r] = mix64(shape_.seed, 0xA0B1ULL + r);
  }
}

L0Sketch::L0Sketch(const L0Sketch& other)
    : shape_(other.shape_), z_(other.z_), cells_(other.cells_) {
  if (other.arena_ != nullptr) {
    alloc_arena();
    std::memcpy(arena_, other.arena_, arena_words(cells_, shape_.rows) * 8);
  }
}

L0Sketch& L0Sketch::operator=(const L0Sketch& other) {
  if (this == &other) return *this;
  L0Sketch copy(other);
  *this = std::move(copy);
  return *this;
}

L0Sketch::L0Sketch(L0Sketch&& other) noexcept
    : shape_(other.shape_),
      z_(other.z_),
      cells_(other.cells_),
      arena_(other.arena_),
      counts_(other.counts_),
      id_sums_(other.id_sums_),
      fps_(other.fps_),
      row_seeds_(other.row_seeds_),
      tops_(other.tops_) {
  other.arena_ = nullptr;
  other.counts_ = nullptr;
  other.id_sums_ = nullptr;
  other.fps_ = nullptr;
  other.row_seeds_ = nullptr;
  other.tops_ = nullptr;
  other.cells_ = 0;
}

L0Sketch& L0Sketch::operator=(L0Sketch&& other) noexcept {
  if (this == &other) return *this;
  arena_release(arena_, arena_words(cells_, shape_.rows));
  shape_ = other.shape_;
  z_ = other.z_;
  cells_ = other.cells_;
  arena_ = other.arena_;
  counts_ = other.counts_;
  id_sums_ = other.id_sums_;
  fps_ = other.fps_;
  row_seeds_ = other.row_seeds_;
  tops_ = other.tops_;
  other.arena_ = nullptr;
  other.counts_ = nullptr;
  other.id_sums_ = nullptr;
  other.fps_ = nullptr;
  other.row_seeds_ = nullptr;
  other.tops_ = nullptr;
  other.cells_ = 0;
  return *this;
}

L0Sketch::~L0Sketch() {
  arena_release(arena_, arena_words(cells_, shape_.rows));
}

KM_NO_SANITIZE("unsigned-integer-overflow")  // 0 - id: pre-negated delta
void L0Sketch::add(std::uint64_t id, int sign) noexcept {
  if (arena_ == nullptr) return;  // default-constructed: no grid
  const auto& pows = detail::fingerprint_powers(z_, shape_.id_bits);
  const std::uint64_t z_pow_id = pows.pow(id);
  const std::uint64_t fp_delta =
      sign > 0 ? z_pow_id : detail::negmod61_unchecked(z_pow_id);
  const std::uint64_t id_delta = sign > 0 ? id : (0 - id);
  // The inner half of hash_vertex(seed_r, id) does not depend on the
  // row; hoist it so the kernel only pays one finalizer per row.
  const std::uint64_t id_hash = hash_u64(id + 0x9e3779b97f4a7c15ULL);
  detail::sketch_kernels().add_grid(counts_, id_sums_, fps_, tops_,
                                    row_seeds_, shape_.rows, shape_.levels(),
                                    id_hash, sign, id_delta, fp_delta);
}

void L0Sketch::merge(const L0Sketch& other) {
  if (!(shape_ == other.shape_)) {
    throw std::invalid_argument("L0Sketch::merge: shape mismatch");
  }
  // A null arena (default-constructed or moved-from) is an empty grid:
  // merging from one is a no-op, merging into one keeps it empty.
  if (arena_ == nullptr || other.arena_ == nullptr) return;
  detail::sketch_kernels().merge_grid(counts_, id_sums_, fps_, tops_,
                                      other.counts_, other.id_sums_,
                                      other.fps_, other.tops_, shape_.rows,
                                      shape_.levels());
}

void L0Sketch::prefetch() const noexcept {
  if (arena_ == nullptr) return;
  const std::uint32_t levels = shape_.levels();
  for (std::uint32_t r = 0; r < shape_.rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * levels;
    __builtin_prefetch(counts_ + off, 0, 3);
    __builtin_prefetch(id_sums_ + off, 0, 3);
    __builtin_prefetch(fps_ + off, 0, 3);
  }
  __builtin_prefetch(tops_, 0, 3);
}

KM_NO_SANITIZE("unsigned-integer-overflow")  // wrapping id-sum merge
void L0Sketch::merge_serialized(Reader& r) {
  const std::size_t nbytes = (cells_ + 7) / 8;
  std::vector<std::uint8_t> bitmap(nbytes);
  for (std::size_t b = 0; b < nbytes; ++b) bitmap[b] = r.get_u8();
  const std::uint32_t levels = shape_.levels();
  for (std::size_t i = 0; i < cells_; ++i) {
    if ((bitmap[i >> 3] & (1u << (i & 7))) == 0) continue;
    counts_[i] += r.get_varint_signed();
    id_sums_[i] += static_cast<std::uint64_t>(r.get_varint_signed());
    fps_[i] = detail::addmod61_unchecked(fps_[i],
                                         detail::reduce61(r.get_u64()));
    const std::uint32_t row = static_cast<std::uint32_t>(i / levels);
    const std::uint64_t lvl = i % levels;
    if (lvl + 1 > tops_[row]) tops_[row] = lvl + 1;
  }
}

bool L0Sketch::empty_whp() const noexcept {
  if (arena_ == nullptr) return true;
  const std::uint32_t levels = shape_.levels();
  for (std::uint32_t row = 0; row < shape_.rows; ++row) {
    const std::size_t i = static_cast<std::size_t>(row) * levels;
    if (counts_[i] != 0 || id_sums_[i] != 0 || fps_[i] != 0) return false;
  }
  return true;
}

std::optional<std::uint64_t> L0Sketch::sample() const noexcept {
  if (arena_ == nullptr) return std::nullopt;
  const std::uint64_t universe =
      shape_.id_bits >= 64 ? 0 : (std::uint64_t{1} << shape_.id_bits);
  const std::uint32_t levels = shape_.levels();
  std::uint64_t lmax = 0;
  for (std::uint32_t row = 0; row < shape_.rows; ++row) {
    lmax = std::max(lmax, tops_[row]);
  }
  const detail::FingerprintPowers* powers =
      SketchCell::recovery_powers(z_, universe);
  // Sparsest first: high levels are most likely to be 1-sparse.  The
  // scan order is fixed (level descending, then row ascending), so
  // equal sketches always sample the same id; cells above a row's
  // watermark are zero and can never recover, so skipping them leaves
  // the result unchanged.
  for (std::uint64_t l = lmax; l-- > 0;) {
    for (std::uint32_t row = 0; row < shape_.rows; ++row) {
      if (l >= tops_[row]) continue;
      const std::size_t i = static_cast<std::size_t>(row) * levels + l;
      const SketchCell cell{counts_[i], id_sums_[i], fps_[i]};
      if (const auto id = cell.recover(z_, universe, powers)) return id;
    }
  }
  return std::nullopt;
}

std::vector<std::uint64_t> L0Sketch::sample_all() const {
  std::vector<std::uint64_t> out;
  if (arena_ == nullptr) return out;
  const std::uint64_t universe =
      shape_.id_bits >= 64 ? 0 : (std::uint64_t{1} << shape_.id_bits);
  const std::uint32_t levels = shape_.levels();
  const detail::FingerprintPowers* powers =
      SketchCell::recovery_powers(z_, universe);
  for (std::uint32_t row = 0; row < shape_.rows; ++row) {
    for (std::uint64_t l = 0; l < tops_[row]; ++l) {
      const std::size_t i = static_cast<std::size_t>(row) * levels + l;
      const SketchCell cell{counts_[i], id_sums_[i], fps_[i]};
      if (const auto id = cell.recover(z_, universe, powers)) {
        out.push_back(*id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void L0Sketch::serialize(Writer& w) const {
  const std::size_t nbytes = (cells_ + 7) / 8;
  std::vector<std::byte> bitmap(nbytes, std::byte{0});
  const std::uint32_t levels = shape_.levels();
  for (std::uint32_t row = 0; arena_ != nullptr && row < shape_.rows; ++row) {
    const std::size_t off = static_cast<std::size_t>(row) * levels;
    for (std::uint64_t l = 0; l < tops_[row]; ++l) {
      const std::size_t i = off + l;
      if (counts_[i] != 0 || id_sums_[i] != 0 || fps_[i] != 0) {
        bitmap[i >> 3] |= std::byte{static_cast<std::uint8_t>(1u << (i & 7))};
      }
    }
  }
  w.put_bytes(bitmap);
  for (std::size_t i = 0; i < cells_; ++i) {
    if ((bitmap[i >> 3] & std::byte{static_cast<std::uint8_t>(
                              1u << (i & 7))}) == std::byte{0}) {
      continue;
    }
    w.put_varint_signed(counts_[i]);
    w.put_varint_signed(static_cast<std::int64_t>(id_sums_[i]));
    w.put_u64(fps_[i]);
  }
}

bool operator==(const L0Sketch& a, const L0Sketch& b) {
  if (!(a.shape_ == b.shape_)) return false;
  for (std::size_t i = 0; i < a.cells_; ++i) {
    if (a.counts_[i] != b.counts_[i] || a.id_sums_[i] != b.id_sums_[i] ||
        a.fps_[i] != b.fps_[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace km
