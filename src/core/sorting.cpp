#include "core/sorting.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace km {

namespace {
constexpr std::uint16_t kSampleTag = 1;
constexpr std::uint16_t kSplitterTag = 2;
constexpr std::uint16_t kBucketTag = 3;
constexpr std::uint16_t kRebalanceTag = 4;

void put_keys(Writer& w, const std::vector<std::uint64_t>& keys) {
  // Delta-encoded varints over the sorted sequence: keeps per-key cost
  // near the information-theoretic O(log n) bits.
  w.put_varint(keys.size());
  std::uint64_t prev = 0;
  for (std::uint64_t key : keys) {
    w.put_varint(key - prev);
    prev = key;
  }
}

std::vector<std::uint64_t> get_keys(Reader& r) {
  const std::uint64_t count = r.get_varint();
  std::vector<std::uint64_t> keys(count);
  std::uint64_t prev = 0;
  for (auto& key : keys) {
    prev += r.get_varint();
    key = prev;
  }
  return keys;
}
}  // namespace

SortResult distributed_sample_sort(const std::vector<std::uint64_t>& keys,
                                   Engine& engine, const SortConfig& config) {
  const std::size_t n = keys.size();
  const std::size_t k = engine.k();

  SortResult result;
  result.blocks.assign(k, {});
  result.offsets.assign(k + 1, 0);
  for (std::size_t i = 0; i <= k; ++i) result.offsets[i] = i * n / k;

  // Random initial placement (the model's random input distribution),
  // computed in one pass over the keys rather than once per machine.
  std::vector<std::vector<std::uint64_t>> placed(k);
  for (std::size_t i = 0; i < n; ++i) {
    placed[hash_u64(config.placement_seed ^ hash_u64(i)) % k].push_back(
        keys[i]);
  }

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();

    std::vector<std::uint64_t> mine = std::move(placed[self]);
    std::sort(mine.begin(), mine.end());

    // ---- Phase 1: sample -> coordinator (machine 0). ----
    const double log2n =
        std::max(1.0, std::log2(static_cast<double>(std::max<std::size_t>(n, 2))));
    const auto samples_wanted = static_cast<std::size_t>(
        config.sample_factor * static_cast<double>(k) * log2n /
        static_cast<double>(k));  // per machine
    std::vector<std::uint64_t> sample;
    for (std::size_t i = 0; i < std::min(samples_wanted, mine.size()); ++i) {
      sample.push_back(mine[ctx.rng().below(mine.size())]);
    }
    std::sort(sample.begin(), sample.end());
    if (self != 0) {
      Writer w;
      put_keys(w, sample);
      ctx.send(0, kSampleTag, w);
    }
    std::vector<std::uint64_t> pooled = sample;
    for (const Message& msg : ctx.exchange()) {
      Reader r(msg.payload);
      auto got = get_keys(r);
      pooled.insert(pooled.end(), got.begin(), got.end());
    }

    // ---- Phase 2: coordinator broadcasts k-1 splitters. ----
    std::vector<std::uint64_t> splitters;
    if (self == 0) {
      std::sort(pooled.begin(), pooled.end());
      for (std::size_t i = 1; i < k; ++i) {
        const std::size_t pos =
            pooled.empty() ? 0 : i * pooled.size() / k;
        splitters.push_back(pooled.empty() ? 0
                                           : pooled[std::min(pos, pooled.size() - 1)]);
      }
      Writer w;
      put_keys(w, splitters);
      ctx.broadcast(kSplitterTag, w);
      ctx.exchange();
    } else {
      for (const Message& msg : ctx.exchange()) {
        if (msg.tag == kSplitterTag) {
          Reader r(msg.payload);
          splitters = get_keys(r);
        }
      }
    }

    // ---- Phase 3: route each bucket to its machine. ----
    // Bucket b = keys in [splitters[b-1], splitters[b]).
    std::vector<std::vector<std::uint64_t>> buckets(k);
    for (std::uint64_t key : mine) {
      const std::size_t b = static_cast<std::size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), key) -
          splitters.begin());
      buckets[b].push_back(key);
    }
    std::vector<std::uint64_t> held = std::move(buckets[self]);
    for (std::size_t dst = 0; dst < k; ++dst) {
      if (dst == self || buckets[dst].empty()) continue;
      Writer w;
      put_keys(w, buckets[dst]);
      ctx.send(dst, kBucketTag, w);
    }
    for (const Message& msg : ctx.exchange()) {
      Reader r(msg.payload);
      auto got = get_keys(r);
      held.insert(held.end(), got.begin(), got.end());
    }
    std::sort(held.begin(), held.end());

    // ---- Phase 4: exact rebalance to order-statistic blocks. ----
    // Everyone learns every bucket size, computes the global rank range
    // it currently holds, and forwards each key to the machine owning
    // that rank.
    const auto counts = ctx.all_gather(held.size());
    std::size_t my_rank0 = 0;
    for (std::size_t i = 0; i < self; ++i) my_rank0 += counts[i];

    auto owner_of_rank = [&](std::size_t rank) {
      // Machine i owns ranks [i*n/k, (i+1)*n/k).
      std::size_t lo = 0, hi = k - 1;
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (rank < (mid + 1) * n / k) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return lo;
    };

    std::vector<std::vector<std::uint64_t>> outgoing(k);
    for (std::size_t i = 0; i < held.size(); ++i) {
      outgoing[owner_of_rank(my_rank0 + i)].push_back(held[i]);
    }
    std::vector<std::uint64_t> final_block = std::move(outgoing[self]);

    // Rebalance destinations are rank-adjacent machines, an adversarially
    // skewed pattern that would serialize on single links.  Valiant-style
    // two-hop routing in small chunks (Lemma 13) spreads both hops over
    // all k links: each chunk travels via a uniformly random intermediate.
    constexpr std::size_t kChunkKeys = 64;
    std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>> held_fwd;
    auto encode_chunk = [](std::size_t dst,
                           std::span<const std::uint64_t> chunk) {
      Writer w;
      w.put_varint(dst);
      put_keys(w, std::vector<std::uint64_t>(chunk.begin(), chunk.end()));
      return w.take();
    };
    for (std::size_t dst = 0; dst < k; ++dst) {
      if (dst == self) continue;
      const auto& keys_out = outgoing[dst];
      for (std::size_t pos = 0; pos < keys_out.size(); pos += kChunkKeys) {
        const std::span<const std::uint64_t> chunk(
            keys_out.data() + pos,
            std::min(kChunkKeys, keys_out.size() - pos));
        const std::size_t via = ctx.rng().below(k);
        if (via == self) {
          held_fwd.emplace_back(
              dst, std::vector<std::uint64_t>(chunk.begin(), chunk.end()));
        } else {
          ctx.send(via, kRebalanceTag, encode_chunk(dst, chunk));
        }
      }
    }
    // Hop 2: forward chunks that stopped here; keep what is ours.
    for (const Message& msg : ctx.exchange()) {
      Reader r(msg.payload);
      const auto dst = static_cast<std::size_t>(r.get_varint());
      auto got = get_keys(r);
      if (dst == self) {
        final_block.insert(final_block.end(), got.begin(), got.end());
      } else {
        ctx.send(dst, kRebalanceTag, encode_chunk(dst, got));
      }
    }
    for (const auto& [dst, chunk] : held_fwd) {
      if (dst == self) {
        final_block.insert(final_block.end(), chunk.begin(), chunk.end());
      } else {
        ctx.send(dst, kRebalanceTag, encode_chunk(dst, chunk));
      }
    }
    for (const Message& msg : ctx.exchange()) {
      Reader r(msg.payload);
      r.get_varint();  // dst == self
      auto got = get_keys(r);
      final_block.insert(final_block.end(), got.begin(), got.end());
    }
    std::sort(final_block.begin(), final_block.end());
    result.blocks[self] = std::move(final_block);
  };

  result.metrics = engine.run(program);
  return result;
}

}  // namespace km
