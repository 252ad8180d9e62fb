// Tests for core/sketch.hpp (1-sparse cells, ℓ₀ sketches) and the
// sketch algorithms built on them (core/connectivity.hpp).
//
// The property trio the sketch machinery stands on:
//   - validity: sampling a sketch of an edge set only ever returns a
//     member (and, for a folded component sketch, a *crossing* edge);
//   - linearity: sketch(A) + sketch(B) = sketch(A ⊎ B), exactly, cell by
//     cell — the merge is integer vector addition;
//   - merge-order invariance: for a fixed seed the folded sketch (and
//     hence the sampled edge) is identical whatever order the parts
//     were merged in, including through serialization.
// Distributed: sketch connectivity and the centralized baseline against
// BFS across every generator family and several k.
#include "core/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "runtime/dataset.hpp"
#include "runtime/workload.hpp"
#include "util/rng.hpp"

namespace km {
namespace {

// ---------------------------------------------------------------------------
// Field arithmetic and cells
// ---------------------------------------------------------------------------

TEST(Sketch, Mod61Arithmetic) {
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next() % kSketchPrime;
    const std::uint64_t b = rng.next() % kSketchPrime;
    const auto want = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) % kSketchPrime);
    ASSERT_EQ(mulmod61(a, b), want);
  }
  EXPECT_EQ(powmod61(2, 0), 1u);
  EXPECT_EQ(powmod61(2, 10), 1024u);
  EXPECT_EQ(powmod61(3, 61), mulmod61(powmod61(3, 60), 3));
  // Fermat: z^(p-1) = 1 mod p.
  EXPECT_EQ(powmod61(123456789, kSketchPrime - 1), 1u);
}

TEST(Sketch, Mod61BoundaryInputsAliasTheirResidues) {
  // mulmod61/powmod61 accept arbitrary u64 inputs and canonicalize at
  // entry: p aliases 0, p+1 = 2^61 aliases 1, UINT64_MAX = 8p+7
  // aliases 7.  Exhaustive cross-product over the boundary set against
  // a __int128 reference, so a regression in the canonicalization (the
  // classic "accepts [0, 2^61] but not above" bug) cannot hide.
  const std::uint64_t p = kSketchPrime;
  const std::uint64_t boundary[] = {0,       1,           p - 1,
                                    p,       p + 1,       std::uint64_t{1} << 61,
                                    p + 7,   UINT64_MAX - 1, UINT64_MAX};
  const auto ref_mul = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a % p) * (b % p)) % p);
  };
  for (const std::uint64_t a : boundary) {
    for (const std::uint64_t b : boundary) {
      ASSERT_EQ(mulmod61(a, b), ref_mul(a, b)) << "a=" << a << " b=" << b;
      ASSERT_LT(mulmod61(a, b), p) << "non-canonical result";
    }
  }
  // powmod61: boundary bases under a reference square-and-multiply
  // built from the verified mulmod, across small and boundary exponents
  // (the exponent is a plain integer, not reduced mod p-1).
  const auto ref_pow = [&](std::uint64_t base, std::uint64_t exp) {
    std::uint64_t acc = 1, sq = base % p;
    for (; exp != 0; exp >>= 1) {
      if (exp & 1) acc = ref_mul(acc, sq);
      sq = ref_mul(sq, sq);
    }
    return acc;
  };
  for (const std::uint64_t base : boundary) {
    for (const std::uint64_t exp :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{63}, p - 1, p, p + 1, UINT64_MAX}) {
      ASSERT_EQ(powmod61(base, exp), ref_pow(base, exp))
          << "base=" << base << " exp=" << exp;
    }
  }
  // Fermat sanity at the aliases: (p+1) ≡ 1, so any exponent fixes it;
  // UINT64_MAX ≡ 7, so its (p-1)-th power is 1.
  EXPECT_EQ(powmod61(p + 1, UINT64_MAX), 1u);
  EXPECT_EQ(powmod61(UINT64_MAX, p - 1), 1u);
}

TEST(Sketch, CellOneSparseRecoveryIsExact) {
  const std::uint64_t z = sketch_fingerprint_base(7);
  for (const std::uint64_t id : {0ull, 1ull, 77ull, (1ull << 40) + 5}) {
    for (const int sign : {+1, -1}) {
      SketchCell cell;
      cell.add(id, sign, z);
      EXPECT_FALSE(cell.is_zero());
      const auto got = cell.recover(z, 0);
      ASSERT_TRUE(got.has_value()) << "id=" << id << " sign=" << sign;
      EXPECT_EQ(*got, id);
    }
  }
}

TEST(Sketch, CellRejectsNonSparseAndCancelsExactly) {
  const std::uint64_t z = sketch_fingerprint_base(9);
  SketchCell two;
  two.add(5, +1, z);
  two.add(9, +1, z);
  EXPECT_FALSE(two.recover(z, 0).has_value()) << "2-sparse must not recover";

  SketchCell fake;  // +1, +1, -1 over distinct ids: count == 1, not 1-sparse
  fake.add(3, +1, z);
  fake.add(11, +1, z);
  fake.add(20, -1, z);
  EXPECT_FALSE(fake.recover(z, 0).has_value())
      << "the fingerprint must veto count-coincidences";

  SketchCell cancel;
  cancel.add(42, +1, z);
  cancel.add(42, -1, z);
  EXPECT_TRUE(cancel.is_zero()) << "+1/-1 at the same id cancels exactly";

  // Universe bound: a valid recovery outside the universe is rejected.
  SketchCell big;
  big.add(1000, +1, z);
  EXPECT_FALSE(big.recover(z, 1000).has_value());
  EXPECT_TRUE(big.recover(z, 1001).has_value());
}

// SketchCell::recover reads z^id from the power table; hold it to the
// definition (count ±1, id inside the universe, fingerprint ±z^id by
// square-and-multiply) on exact cells and on cells one unit off, for a
// universe that is not a power of two, for the full 64-bit universe (0)
// and for ids at universe - 1.
TEST(Sketch, RecoverMatchesPowmodReference) {
  const auto reference = [](const SketchCell& cell, std::uint64_t z,
                            std::uint64_t universe)
      -> std::optional<std::uint64_t> {
    if (cell.count != 1 && cell.count != -1) return std::nullopt;
    const std::uint64_t id = cell.count == 1 ? cell.id_sum : 0 - cell.id_sum;
    if (universe != 0 && id >= universe) return std::nullopt;
    std::uint64_t expect = powmod61(z, id);
    if (cell.count == -1 && expect != 0) expect = kSketchPrime - expect;
    if (expect != cell.fingerprint) return std::nullopt;
    return id;
  };
  Rng rng(1001);
  const std::uint64_t z = sketch_fingerprint_base(17);
  for (const std::uint64_t universe :
       {std::uint64_t{1001}, std::uint64_t{0}, std::uint64_t{1} << 24}) {
    std::vector<std::uint64_t> ids = {0, 1, 255, 256};
    if (universe != 0) {
      ids.insert(ids.end(), {universe - 1, universe});
    } else {
      ids.insert(ids.end(), {~std::uint64_t{0}, std::uint64_t{1} << 63});
    }
    for (int i = 0; i < 32; ++i) {
      ids.push_back(universe == 0 ? rng.next() : rng.next() % universe);
    }
    for (const std::uint64_t id : ids) {
      for (const int sign : {+1, -1}) {
        SketchCell exact;
        exact.add(id, sign, z);
        SketchCell off_fp = exact;
        off_fp.fingerprint = (off_fp.fingerprint + 1) % kSketchPrime;
        SketchCell off_id = exact;
        off_id.id_sum += 1;
        for (const SketchCell& cell : {exact, off_fp, off_id}) {
          EXPECT_EQ(cell.recover(z, universe), reference(cell, z, universe))
              << "universe=" << universe << " id=" << id << " sign=" << sign;
        }
        if (universe == 0 || id < universe) {
          EXPECT_EQ(exact.recover(z, universe), std::optional{id});
        }
      }
    }
  }
}

// Loops over many cells (L0Sketch::sample/sample_all, connectivity's
// holders) resolve the power table once and pass it to the 3-argument
// recover(); it must agree with the 2-argument form on every cell of a
// sketch, for a universe that is not a power of two, for 2^24 and for
// the full 64-bit universe (0, no table).
TEST(Sketch, HoistedPowerTableRecoverMatchesTwoArgumentForm) {
  struct Case {
    std::uint32_t id_bits;
    std::uint64_t universe;
  };
  for (const Case c : {Case{10, 1001}, Case{24, std::uint64_t{1} << 24},
                       Case{64, 0}}) {
    Rng rng(mix64(c.id_bits, c.universe));
    const L0SketchShape shape{.id_bits = c.id_bits, .rows = 4, .seed = 29};
    L0Sketch sparse(shape);
    L0Sketch dense(shape);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t id =
          c.universe == 0 ? rng.next() : rng.below(c.universe);
      if (i < 3) sparse.add(id, i % 2 == 0 ? +1 : -1);
      dense.add(id, rng.below(2) == 0 ? +1 : -1);
    }
    const std::uint64_t z = dense.fingerprint_base();
    const auto* powers = SketchCell::recovery_powers(z, c.universe);
    EXPECT_EQ(powers == nullptr, c.universe == 0);
    std::size_t recovered = 0;
    for (const L0Sketch* sketch : {&sparse, &dense}) {
      for (std::size_t row = 0; row < shape.rows; ++row) {
        for (std::size_t level = 0; level < shape.levels(); ++level) {
          const SketchCell cell = sketch->cell(row, level);
          const auto want = cell.recover(z, c.universe);
          EXPECT_EQ(cell.recover(z, c.universe, powers), want)
              << "universe=" << c.universe << " row=" << row
              << " level=" << level;
          recovered += want.has_value();
        }
      }
    }
    EXPECT_GT(recovered, 0u) << "universe=" << c.universe;
  }
}

TEST(Sketch, CellLinearityAndSerializationRoundTrip) {
  const std::uint64_t z = sketch_fingerprint_base(13);
  Rng rng(99);
  SketchCell a, b, both;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t id = rng.below(1 << 20);
    const int sign = rng.bernoulli(0.5) ? +1 : -1;
    if (i % 2 == 0) {
      a.add(id, sign, z);
    } else {
      b.add(id, sign, z);
    }
    both.add(id, sign, z);
  }
  SketchCell merged = a;
  merged.merge(b);
  EXPECT_EQ(merged, both) << "cell merge is exact vector addition";

  Writer w;
  merged.serialize(w);
  const auto bytes = w.take();
  Reader r(bytes);
  EXPECT_EQ(SketchCell::deserialize(r), merged);
  EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------------------
// ℓ₀ sketches: validity, linearity, merge-order invariance
// ---------------------------------------------------------------------------

TEST(Sketch, SampleReturnsOnlyMembers) {
  // Sketch a random id set and sample: failure (nullopt) is allowed, a
  // non-member never is.  With 4 rows the failure rate is small; assert
  // a healthy success count across set sizes and seeds.
  int successes = 0, trials = 0;
  for (const std::size_t size : {1u, 2u, 5u, 37u, 200u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(mix64(seed, size));
      std::vector<std::uint64_t> members =
          rng.sample_distinct(1 << 16, size);
      L0Sketch sketch({.id_bits = 16, .rows = 4, .seed = seed});
      for (const std::uint64_t id : members) sketch.add(id, +1);
      EXPECT_FALSE(sketch.empty_whp());
      ++trials;
      if (const auto got = sketch.sample()) {
        ++successes;
        EXPECT_TRUE(std::binary_search(members.begin(), members.end(), *got))
            << "sampled a non-member id " << *got;
      }
    }
  }
  EXPECT_GE(successes * 10, trials * 7)
      << "ℓ₀ sampling failed too often: " << successes << "/" << trials;
}

TEST(Sketch, SampleIsRoughlyUniformOverMembers) {
  // "Uniformly valid": over many independent seeds, every member of a
  // small set gets sampled a non-trivial share of the time.
  const std::vector<std::uint64_t> members = {3, 99, 1024, 4097,
                                              20000, 31337, 40000, 65535};
  std::map<std::uint64_t, int> freq;
  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    L0Sketch sketch({.id_bits = 16, .rows = 4, .seed = seed});
    for (const std::uint64_t id : members) sketch.add(id, +1);
    if (const auto got = sketch.sample()) {
      ++successes;
      ++freq[*got];
    }
  }
  EXPECT_GE(successes, 250);
  for (const std::uint64_t id : members) {
    // Uniform would be ~successes/8 ≈ 35; demand a loose floor so skew
    // fails loudly without making the test flaky.
    EXPECT_GE(freq[id], 5) << "member " << id << " is starved";
  }
}

/// Sketch of one vertex's signed edge-incidence vector.
L0Sketch vertex_sketch(const Graph& g, Vertex v, const L0SketchShape& shape,
                       const EdgeIdCodec& codec) {
  L0Sketch sketch(shape);
  for (const Vertex nb : g.neighbors(v)) {
    sketch.add(codec.encode(v, nb), EdgeIdCodec::sign_for(v, nb));
  }
  return sketch;
}

TEST(Sketch, IncidenceSketchesAreLinearAndCancelInternalEdges) {
  Rng rng(5);
  const Graph g = gnp(64, 0.15, rng);
  const EdgeIdCodec codec(g.num_vertices());
  const L0SketchShape shape{.id_bits = codec.id_bits(), .rows = 4, .seed = 17};

  // Linearity: merging {0..31} and {32..63} group sketches equals the
  // sketch built by adding every vertex directly.
  L0Sketch lo(shape), hi(shape), direct(shape);
  for (Vertex v = 0; v < 64; ++v) {
    L0Sketch vs = vertex_sketch(g, v, shape, codec);
    direct.merge(vs);
    (v < 32 ? lo : hi).merge(vs);
  }
  L0Sketch merged = lo;
  merged.merge(hi);
  EXPECT_EQ(merged, direct) << "sketch(A) + sketch(B) != sketch(A ⊎ B)";

  // Every edge has both endpoints in V, so the full sum cancels to the
  // empty vector — not just whp, exactly.
  for (std::size_t row = 0; row < shape.rows; ++row) {
    for (std::size_t level = 0; level < shape.levels(); ++level) {
      EXPECT_TRUE(merged.cell(row, level).is_zero())
          << "internal edge failed to cancel at (" << row << ", " << level
          << ")";
    }
  }

  // A folded half-sketch samples only edges crossing the cut.
  if (const auto id = lo.sample()) {
    const auto [a, b] = codec.decode(*id);
    EXPECT_TRUE((a < 32) != (b < 32))
        << "sampled edge (" << a << "," << b << ") does not cross the cut";
    const auto nbrs = g.neighbors(a);
    EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end())
        << "sampled a non-edge";
  }
}

TEST(Sketch, MergeOrderNeverChangesTheSample) {
  Rng rng(6);
  const Graph g = gnp(40, 0.2, rng);
  const EdgeIdCodec codec(g.num_vertices());
  const L0SketchShape shape{.id_bits = codec.id_bits(), .rows = 4, .seed = 23};
  std::vector<Vertex> group(20);
  std::iota(group.begin(), group.end(), Vertex{0});

  std::optional<std::uint64_t> first_sample;
  Rng shuffler(77);
  for (int order = 0; order < 6; ++order) {
    shuffler.shuffle(std::span<Vertex>(group));
    L0Sketch folded(shape);
    for (const Vertex v : group) {
      // Every other order also routes the part through serialization,
      // the way proxies fold sketches off the wire.
      L0Sketch vs = vertex_sketch(g, v, shape, codec);
      if (order % 2 == 0) {
        folded.merge(vs);
      } else {
        Writer w;
        vs.serialize(w);
        const auto bytes = w.take();
        Reader r(bytes);
        folded.merge_serialized(r);
        EXPECT_TRUE(r.done());
      }
    }
    const auto got = folded.sample();
    if (order == 0) {
      first_sample = got;
    } else {
      EXPECT_EQ(got, first_sample)
          << "merge order " << order << " changed the sampled edge";
    }
  }
}

TEST(Sketch, EdgeIdCodecRoundTrips) {
  for (const std::size_t n : {2u, 3u, 100u, 4096u}) {
    const EdgeIdCodec codec(n);
    Rng rng(n);
    for (int i = 0; i < 50; ++i) {
      const auto a = static_cast<Vertex>(rng.below(n));
      auto b = static_cast<Vertex>(rng.below(n));
      if (a == b) b = (b + 1) % n;
      const auto [lo, hi] = codec.decode(codec.encode(a, b));
      EXPECT_EQ(lo, std::min(a, b));
      EXPECT_EQ(hi, std::max(a, b));
      EXPECT_EQ(codec.encode(a, b), codec.encode(b, a));
    }
  }
}

TEST(Sketch, EdgeIdCodecHandlesTheVbits32Ceiling) {
  // At n = 2^32 (the full Vertex range) vbits saturates at 32: the edge
  // id spans the whole 64-bit word, every shift in encode/decode is by
  // exactly 32 (never 64, which would be UB), and ids stay unique.
  // Regression grid: the largest representable vertex ids.
  const EdgeIdCodec codec(std::size_t{1} << 32);
  ASSERT_EQ(codec.vbits, 32u);
  ASSERT_EQ(codec.id_bits(), 64u);
  const Vertex top = 0xFFFFFFFFu;
  const Vertex almost = 0xFFFFFFFEu;
  const std::pair<Vertex, Vertex> edges[] = {
      {almost, top}, {0, top}, {0, 1}, {1, top}, {almost, 0}};
  std::vector<std::uint64_t> ids;
  for (const auto& [a, b] : edges) {
    const std::uint64_t id = codec.encode(a, b);
    EXPECT_NE(id, 0u) << "edge ids must be nonzero";
    const auto [lo, hi] = codec.decode(id);
    EXPECT_EQ(lo, std::min(a, b)) << "a=" << a << " b=" << b;
    EXPECT_EQ(hi, std::max(a, b)) << "a=" << a << " b=" << b;
    EXPECT_EQ(id, codec.encode(b, a));
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "distinct edges collided at vbits=32";
  // The extreme edge {2^32-2, 2^32-1} also survives a sketch round
  // trip: cell arithmetic (z^id over Mersenne-61) is id-width agnostic.
  const std::uint64_t z = sketch_fingerprint_base(17);
  SketchCell cell;
  cell.add(codec.encode(almost, top), +1, z);
  const auto got = cell.recover(z, 0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, codec.encode(almost, top));
}

// ---------------------------------------------------------------------------
// Distributed: the acceptance grid
// ---------------------------------------------------------------------------

RunResult run_registered(const std::string& workload_name,
                         const std::string& spec, std::size_t k,
                         std::uint64_t seed) {
  const Workload* workload =
      WorkloadRegistry::instance().find(workload_name);
  if (workload == nullptr) throw std::logic_error("unknown workload");
  RunParams params;
  params.k = k;
  params.seed = seed;
  params.record_timeline = false;
  const Dataset dataset = load_dataset(spec, workload->input_kind(), seed);
  return run_workload(*workload, dataset, params);
}

// One dataset spec per generator family named in the acceptance
// criteria; n kept small so the full grid stays fast.
const char* const kFamilySpecs[] = {
    "gnp:n=60,p=0.07,maxw=512",
    "rmat:n=64,m=180,maxw=512",
    "ba:n=60,attach=3,maxw=512",
    "ws:n=60,degree=6,beta=0.2,maxw=512",
    "grid:rows=8,cols=8,maxw=512",
    "complete:n=24,maxw=512",
};

TEST(SketchKm, ConnectivityMatchesBfsOnEveryFamilyAcrossK) {
  for (const char* spec : kFamilySpecs) {
    for (const std::size_t k : {4u, 8u, 16u}) {
      for (const char* workload : {"connectivity", "connectivity_baseline"}) {
        const RunResult result = run_registered(workload, spec, k, 5);
        ASSERT_TRUE(result.check.performed);
        EXPECT_TRUE(result.check.ok)
            << workload << " on " << spec << " k=" << k << ": "
            << result.check.detail;
      }
    }
  }
}

TEST(SketchKm, HandlesEdgelessAndDisconnectedInputs) {
  // Edgeless graph: every vertex is its own component.
  {
    const RunResult r =
        run_registered("connectivity", "gnp:n=40,p=0", 4, 1);
    EXPECT_TRUE(r.check.ok) << r.check.detail;
  }
  // Forest of two far-apart cliques via direct core API.
  Rng rng(8);
  std::vector<Edge> edges;
  for (Vertex a = 0; a < 6; ++a) {
    for (Vertex b = a + 1; b < 6; ++b) {
      edges.emplace_back(a, b);            // clique on {0..5}
      edges.emplace_back(a + 20, b + 20);  // clique on {20..25}
    }
  }
  const Graph g = Graph::from_edges(30, std::move(edges));
  Engine engine(4, {.bandwidth_bits = 256, .seed = 2});
  const auto part = VertexPartition::by_hash(30, 4, 99);
  const auto dist = sketch_connectivity(g, part, engine, 31);
  // 2 cliques + 18 isolated vertices.
  EXPECT_EQ(dist.num_components, 20u);
  EXPECT_TRUE(same_labeling(dist.labels, connected_components(g)));
}

}  // namespace
}  // namespace km
