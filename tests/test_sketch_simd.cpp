// Scalar/SIMD bit-identity for the ℓ₀ sketch kernels.
//
// The runtime-dispatched kernels (core/detail/sketch_kernels.hpp) are
// only an optimization: every dispatch path must perform *identical*
// integer arithmetic, because sketches built on different machines (or
// different CPU generations) merge against each other and feed exact
// 1-sparse recovery.  A single differing bit anywhere — a cell count,
// an id-sum, a Mersenne-61 fingerprint, a row watermark — would make
// the distributed fold silently diverge from the single-machine
// reference.  This suite holds byte-identical *serialized* output as a
// property across forced dispatch paths, over add/merge/fold workloads
// shaped like the connectivity plane's real traffic.  It rides the
// `quick` label so the asan and ubsan CI tiers exercise both paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/detail/sketch_kernels.hpp"
#include "core/sketch.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace km {
namespace {

using detail::SketchDispatch;

std::vector<SketchDispatch> supported_paths() {
  std::vector<SketchDispatch> out{SketchDispatch::kScalar};
  if (detail::sketch_dispatch_supported(SketchDispatch::kAvx2)) {
    out.push_back(SketchDispatch::kAvx2);
  }
  return out;
}

/// One deterministic workload: build `parts` sketches from signed adds,
/// fold them into one accumulator, and return the serialized bytes of
/// the fold plus every part.
std::vector<std::byte> workload_bytes(const L0SketchShape& shape,
                                      std::size_t parts,
                                      std::size_t adds_per_part,
                                      std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  const std::uint64_t universe =
      shape.id_bits >= 64 ? 0 : (std::uint64_t{1} << shape.id_bits);
  L0Sketch fold(shape);
  Writer w;
  for (std::size_t p = 0; p < parts; ++p) {
    L0Sketch part(shape);
    for (std::size_t i = 0; i < adds_per_part; ++i) {
      const std::uint64_t id =
          universe == 0 ? rng.next() : rng.next() % universe;
      part.add(id, (rng.next() & 1) != 0 ? +1 : -1);
    }
    part.serialize(w);
    fold.merge(part);
  }
  fold.serialize(w);
  return w.take();
}

class SketchSimd : public ::testing::Test {
 protected:
  void TearDown() override { detail::reset_sketch_dispatch(); }
};

TEST_F(SketchSimd, SerializedSketchesAreByteIdenticalAcrossDispatchPaths) {
  const std::vector<L0SketchShape> shapes = {
      {.id_bits = 20, .rows = 2, .seed = 11},   // n=1024 connectivity shape
      {.id_bits = 20, .rows = 6, .seed = 12},   // max adapted rows
      {.id_bits = 64, .rows = 3, .seed = 13},   // vbits=32 ceiling
      {.id_bits = 4, .rows = 1, .seed = 14},    // tiny universe, collisions
  };
  for (const auto& shape : shapes) {
    std::vector<std::vector<std::byte>> by_path;
    for (const SketchDispatch d : supported_paths()) {
      detail::force_sketch_dispatch(d);
      by_path.push_back(workload_bytes(shape, 8, 200, shape.seed * 97));
    }
    for (std::size_t i = 1; i < by_path.size(); ++i) {
      EXPECT_EQ(by_path[0], by_path[i])
          << "dispatch path " << i << " diverged at id_bits="
          << shape.id_bits << " rows=" << shape.rows;
    }
  }
}

TEST_F(SketchSimd, CrossPathMergeEqualsSinglePathMerge) {
  // Sketches built under one path must merge bit-identically into
  // sketches built under another — the distributed reality when
  // machines run different CPU generations.
  if (!detail::sketch_dispatch_supported(SketchDispatch::kAvx2)) {
    GTEST_SKIP() << "no second dispatch path on this CPU";
  }
  const L0SketchShape shape{.id_bits = 20, .rows = 4, .seed = 21};
  Rng rng(2121);
  std::vector<std::uint64_t> ids(512);
  for (auto& id : ids) id = rng.next() % (std::uint64_t{1} << 20);

  detail::force_sketch_dispatch(SketchDispatch::kScalar);
  L0Sketch scalar_half(shape);
  for (std::size_t i = 0; i < ids.size() / 2; ++i) {
    scalar_half.add(ids[i], i % 2 == 0 ? +1 : -1);
  }
  detail::force_sketch_dispatch(SketchDispatch::kAvx2);
  L0Sketch simd_half(shape);
  for (std::size_t i = ids.size() / 2; i < ids.size(); ++i) {
    simd_half.add(ids[i], i % 2 == 0 ? +1 : -1);
  }
  L0Sketch mixed = scalar_half;
  mixed.merge(simd_half);

  detail::force_sketch_dispatch(SketchDispatch::kScalar);
  L0Sketch reference(shape);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    reference.add(ids[i], i % 2 == 0 ? +1 : -1);
  }
  EXPECT_EQ(mixed, reference);
  Writer wm, wr;
  mixed.serialize(wm);
  reference.serialize(wr);
  EXPECT_EQ(wm.take(), wr.take());
  EXPECT_EQ(mixed.sample_all(), reference.sample_all());
}

// The power table serves every sketch add and every 1-sparse recovery,
// so it must agree with square-and-multiply bit for bit at every
// exponent width, on both sides of each 8-bit window boundary.
TEST_F(SketchSimd, PowerTableMatchesPowmodAtEveryWidth) {
  Rng rng(6161);
  const std::uint64_t bases[] = {2, sketch_fingerprint_base(3),
                                 kSketchPrime - 1, ~std::uint64_t{0}};
  for (const std::uint64_t z : bases) {
    for (std::uint32_t w = 1; w <= 64; ++w) {
      const std::uint64_t top =
          w == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
      std::vector<std::uint64_t> exps = {0, 1, top};
      for (std::uint32_t b = 8; b < w; b += 8) {
        const std::uint64_t edge = std::uint64_t{1} << b;
        exps.insert(exps.end(), {edge - 1, edge, edge + 1});
      }
      for (int i = 0; i < 8; ++i) exps.push_back(rng.next() & top);
      const detail::FingerprintPowers table(z, w);
      for (const std::uint64_t e : exps) {
        ASSERT_EQ(table.pow(e), powmod61(z, e))
            << "z=" << z << " width=" << w << " exp=" << e;
      }
    }
  }
}

TEST_F(SketchSimd, ExactCancellationHoldsOnEveryPath) {
  // The connectivity plane's correctness rests on internal edges
  // cancelling to exact zeros in the fold; verify the property is
  // path-independent, including the moved-past-the-watermark tail.
  for (const SketchDispatch d : supported_paths()) {
    detail::force_sketch_dispatch(d);
    const L0SketchShape shape{.id_bits = 20, .rows = 2, .seed = 31};
    L0Sketch a(shape), b(shape);
    Rng rng(3131);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t id = rng.next() % (std::uint64_t{1} << 20);
      a.add(id, +1);
      b.add(id, -1);
    }
    a.merge(b);
    EXPECT_TRUE(a.empty_whp());
    Writer w;
    a.serialize(w);
    L0Sketch fresh(shape);
    Writer wf;
    fresh.serialize(wf);
    EXPECT_EQ(w.take(), wf.take())
        << "cancelled sketch serializes differently from an empty one";
  }
}

}  // namespace
}  // namespace km
