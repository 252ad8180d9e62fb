// Tests for the sense-reversing combining-tree barrier (sim/barrier.hpp)
// and its role as the engine's superstep rendezvous: tree topology, the
// fold/finalize call pattern, schedule-jitter stress across machine
// counts (the interesting failures are schedule-dependent, so arrivals
// are deliberately jittered and the CI tsan job runs this binary under
// ThreadSanitizer), fault propagation through the tree, and sense
// reversal across consecutive supersteps.
#include "sim/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace km {
namespace {

TEST(TreeBarrier, TopologyCoversEveryParticipantExactlyOnce) {
  for (const std::size_t n :
       {1u, 2u, 3u, 4u, 5u, 7u, 16u, 17u, 63u, 64u, 255u, 256u}) {
    const TreeBarrier b(n);
    SCOPED_TRACE("n=" + std::to_string(n));
    ASSERT_GE(b.node_count(), b.leaf_count());
    // Every participant is covered by exactly its leaf_of node.
    std::vector<int> covered(n, 0);
    for (std::size_t leaf = 0; leaf < b.leaf_count(); ++leaf) {
      ASSERT_TRUE(b.is_leaf(leaf));
      const auto [begin, end] = b.children_of(leaf);
      EXPECT_EQ(b.fan_in(leaf), end - begin);
      EXPECT_LE(end - begin, TreeBarrier::kArity);
      for (std::size_t who = begin; who < end; ++who) {
        ASSERT_LT(who, n);
        ++covered[who];
        EXPECT_EQ(b.leaf_of(who), leaf);
      }
    }
    for (std::size_t who = 0; who < n; ++who) EXPECT_EQ(covered[who], 1);
    // Every node reaches the root by parent links; the root has none.
    EXPECT_EQ(b.parent_of(b.root()), TreeBarrier::kNoParent);
    for (std::size_t node = 0; node < b.node_count(); ++node) {
      std::size_t cur = node;
      std::size_t hops = 0;
      while (b.parent_of(cur) != TreeBarrier::kNoParent) {
        cur = b.parent_of(cur);
        ASSERT_LT(++hops, b.node_count());
      }
      EXPECT_EQ(cur, b.root());
    }
    // Internal nodes partition the level below: fan-ins telescope to n.
    std::size_t sum = 0;
    for (std::size_t leaf = 0; leaf < b.leaf_count(); ++leaf) {
      sum += b.fan_in(leaf);
    }
    EXPECT_EQ(sum, n);
  }
}

/// One participant's full rendezvous through the split protocol, as the
/// engine's idle workers run it: arrive_begin(), then, if parked, sample
/// the sense word, recheck released(who) and wait_sense() on the sample
/// until the root's flip lands.  Returns the episode's stop decision.
template <typename Combine, typename Finalize>
bool arrive_and_wait(TreeBarrier& barrier, std::size_t who,
                     Combine&& combine, Finalize&& finalize) {
  if (barrier.arrive_begin(who, combine, finalize) ==
      TreeBarrier::ArriveOutcome::kParked) {
    while (true) {
      const std::uint32_t seen = barrier.sense_word();
      if (barrier.released(who)) break;
      barrier.wait_sense(seen);
    }
  }
  return barrier.stop_flag();
}

TEST(TreeBarrier, FoldsEachNodeOnceAndFinalizesOncePerEpisode) {
  for (const std::size_t n : {1u, 2u, 5u, 16u, 64u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    TreeBarrier barrier(n);
    constexpr int kEpisodes = 7;
    std::vector<std::atomic<int>> folds(barrier.node_count());
    std::atomic<int> finalizes{0};
    std::atomic<int> concurrent_finalize{0};
    std::atomic<int> stop_seen{0};
    {
      std::vector<std::jthread> threads;
      threads.reserve(n);
      for (std::size_t who = 0; who < n; ++who) {
        threads.emplace_back([&, who] {
          Rng jitter(0xbadf00d, who);
          for (int ep = 0; ep < kEpisodes; ++ep) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(jitter.below(150)));
            const bool stop = arrive_and_wait(
                barrier, who,
                [&](std::size_t node, bool, std::size_t, std::size_t) {
                  folds[node].fetch_add(1);
                },
                [&] {
                  // finalize must be exclusive: two concurrent calls
                  // would mean two threads both thought they were last.
                  EXPECT_EQ(concurrent_finalize.fetch_add(1), 0);
                  finalizes.fetch_add(1);
                  concurrent_finalize.fetch_sub(1);
                  return ep == kEpisodes - 1;  // stop on the last episode
                });
            EXPECT_EQ(stop, ep == kEpisodes - 1);
            if (stop) stop_seen.fetch_add(1);
          }
        });
      }
    }
    EXPECT_EQ(finalizes.load(), kEpisodes);
    EXPECT_EQ(stop_seen.load(), static_cast<int>(n))
        << "every participant must observe the root's stop decision";
    for (std::size_t node = 0; node < barrier.node_count(); ++node) {
      EXPECT_EQ(folds[node].load(), kEpisodes)
          << "node " << node << " must fold exactly once per episode";
    }
  }
}

TEST(TreeBarrier, ResetRearmsAfterStop) {
  TreeBarrier barrier(3);
  auto no_fold = [](std::size_t, bool, std::size_t, std::size_t) {};
  for (int round = 0; round < 2; ++round) {
    std::atomic<int> stops{0};
    {
      std::vector<std::jthread> threads;
      for (std::size_t who = 0; who < 3; ++who) {
        threads.emplace_back([&, who] {
          if (arrive_and_wait(barrier, who, no_fold, [] { return true; })) {
            stops.fetch_add(1);
          }
        });
      }
    }
    EXPECT_EQ(stops.load(), 3);
    barrier.reset();
  }
}

// ---------------------------------------------------------------------------
// Engine-level barrier stress
// ---------------------------------------------------------------------------

// Every machine sends one distinct message to every peer per superstep
// while sleeping random amounts before sending and before arriving, so
// machines hit the tree in a different interleaving every run.  Receivers
// verify the full contract: count, ascending source, and per-step values.
void jittered_all_to_all(std::size_t machines, int supersteps,
                         std::uint64_t seed) {
  Engine engine(machines, {.bandwidth_bits = 1 << 16, .seed = seed});
  engine.run([&](MachineContext& ctx) {
    Rng jitter(seed ^ 0x7177e5, ctx.id());
    for (int step = 0; step < supersteps; ++step) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(jitter.below(200)));
      for (std::size_t dst = 0; dst < machines; ++dst) {
        if (dst == ctx.id()) continue;
        Writer w;
        w.put_varint(static_cast<std::uint64_t>(step) * machines + ctx.id());
        ctx.send(dst, 1, w);
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(jitter.below(200)));
      const auto in = ctx.exchange();
      ASSERT_EQ(in.size(), machines - 1);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const std::size_t want_src = i + (i >= ctx.id() ? 1 : 0);
        ASSERT_EQ(in[i].src, want_src);
        Reader r(in[i].payload);
        ASSERT_EQ(r.get_varint(),
                  static_cast<std::uint64_t>(step) * machines + want_src);
      }
    }
  });
}

TEST(BarrierStress, JitteredAllToAllSmall) {
  jittered_all_to_all(2, 4, 11);
  jittered_all_to_all(3, 4, 12);
}

TEST(BarrierStress, JitteredAllToAllMedium) {
  jittered_all_to_all(16, 3, 13);
  jittered_all_to_all(64, 2, 14);
}

TEST(BarrierStress, JitteredRing256) {
  // k = 256: the tree is 4 levels deep; a neighbor ring keeps the
  // traffic linear in k so the stress is the rendezvous, not delivery.
  constexpr std::size_t kMachines = 256;
  constexpr int kSupersteps = 3;
  Engine engine(kMachines, {.bandwidth_bits = 1 << 16, .seed = 15});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    Rng jitter(0xc0ffee, ctx.id());
    for (int step = 0; step < kSupersteps; ++step) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(jitter.below(100)));
      Writer w;
      w.put_varint(static_cast<std::uint64_t>(step) * 1000 + ctx.id());
      ctx.send((ctx.id() + 1) % kMachines, 2, w);
      const auto in = ctx.exchange();
      ASSERT_EQ(in.size(), 1u);
      const std::size_t want_src = (ctx.id() + kMachines - 1) % kMachines;
      ASSERT_EQ(in[0].src, want_src);
      Reader r(in[0].payload);
      ASSERT_EQ(r.get_varint(),
                static_cast<std::uint64_t>(step) * 1000 + want_src);
    }
  });
  EXPECT_EQ(metrics.supersteps, static_cast<std::uint64_t>(kSupersteps));
  EXPECT_EQ(metrics.messages, kMachines * kSupersteps);
}

TEST(BarrierStress, FaultInjectionPropagatesThroughTree) {
  // The injected throw happens on the root finalizer with 64 machines
  // parked across a 3-level tree; every one of them must wake, see the
  // stop, and the error must surface out of run() — no deadlock.
  constexpr std::size_t kMachines = 64;
  EngineConfig cfg{.bandwidth_bits = 1 << 12, .seed = 16};
  auto fired = std::make_shared<std::atomic<bool>>(false);
  cfg.barrier_fault_injection = [fired](std::uint64_t superstep) {
    if (superstep == 2 && !fired->exchange(true)) {
      throw std::runtime_error("tree merge failure");
    }
  };
  Engine engine(kMachines, cfg);
  try {
    engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < 6; ++step) {
        Writer w;
        w.put_varint(static_cast<std::uint64_t>(step));
        ctx.send((ctx.id() + 1) % kMachines, 1, w);
        ctx.exchange();
      }
    });
    FAIL() << "expected the injected failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tree merge failure");
  }
  // The barrier must be fully re-armed: the same engine runs again.
  const auto metrics = engine.run([&](MachineContext& ctx) {
    EXPECT_EQ(ctx.all_reduce_sum(1), kMachines);
  });
  EXPECT_EQ(metrics.supersteps, 1u);
}

TEST(BarrierStress, SenseReversalAcrossConsecutiveSupersteps) {
  // Runs well past three sense flips and asserts each superstep delivers
  // exactly its own wave: a parity/sense bug would surface as stale or
  // missing messages in some superstep.
  constexpr std::size_t kMachines = 16;
  constexpr int kSupersteps = 6;
  Engine engine(kMachines, {.bandwidth_bits = 1 << 16, .seed = 17});
  engine.run([&](MachineContext& ctx) {
    for (int step = 0; step < kSupersteps; ++step) {
      Writer w;
      w.put_varint(static_cast<std::uint64_t>(step));
      ctx.broadcast(3, w);
      const auto in = ctx.exchange();
      ASSERT_EQ(in.size(), kMachines - 1);
      for (const auto& msg : in) {
        Reader r(msg.payload);
        ASSERT_EQ(r.get_varint(), static_cast<std::uint64_t>(step))
            << "superstep " << step << " delivered another superstep's wave";
      }
    }
  });
}

}  // namespace
}  // namespace km
