// Tests for the worker barrier (sim/barrier.hpp) and its role as the
// engine's superstep rendezvous: the finalize call pattern, leaving
// participants, re-arming, schedule-jitter stress across machine counts
// (the interesting failures are schedule-dependent, so arrivals are
// deliberately jittered and the CI tsan job runs this binary under
// ThreadSanitizer), fault propagation to parked machines, and episodes
// across consecutive supersteps.
#include "sim/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace km {
namespace {

/// One participant's full rendezvous, as the engine's idle workers run
/// it: sample the episode (it cannot move before this participant
/// arrives), arrive, and unless this arrival finalized, wait on the
/// sample until the bump lands.  Returns the episode's stop decision.
template <typename Finalize>
bool arrive_and_wait(WorkerBarrier& barrier, bool leave, Finalize&& finalize) {
  const std::uint32_t episode = barrier.episode();
  if (!barrier.arrive(leave, finalize)) {
    while (barrier.episode() == episode) barrier.wait(episode);
  }
  return barrier.stop_flag();
}

TEST(WorkerBarrier, FinalizesOncePerEpisodeAndSeesEveryArrival) {
  for (const std::size_t n : {1u, 2u, 3u, 5u, 16u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    WorkerBarrier barrier;
    barrier.reset(n);
    constexpr int kEpisodes = 7;
    // Plain ints: each participant writes only its own entry before
    // arriving, and finalize reads them all — the ordering the engine's
    // worker folds rely on (tsan flags it if the countdown does not
    // provide it).
    std::vector<int> arrivals(n, 0);
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
            ++arrivals[who];
            const bool stop = arrive_and_wait(barrier, false, [&] {
              // finalize must be exclusive: two concurrent calls would
              // mean two participants both thought they were last.
              EXPECT_EQ(concurrent_finalize.fetch_add(1), 0);
              for (std::size_t p = 0; p < n; ++p) {
                EXPECT_EQ(arrivals[p], ep + 1) << "participant " << p;
              }
              EXPECT_EQ(barrier.participants(), n);
              finalizes.fetch_add(1);
              concurrent_finalize.fetch_sub(1);
              return ep == kEpisodes - 1;  // stop on the last episode
            });
            EXPECT_EQ(stop, ep == kEpisodes - 1);
            EXPECT_EQ(barrier.episode(), static_cast<std::uint32_t>(ep + 1));
            if (stop) stop_seen.fetch_add(1);
          }
        });
      }
    }
    EXPECT_EQ(finalizes.load(), kEpisodes);
    EXPECT_EQ(stop_seen.load(), static_cast<int>(n))
        << "every participant must observe the finalizer's stop decision";
  }
}

TEST(WorkerBarrier, LeavingParticipantCountsOnceThenDropsOut) {
  // Participant p arrives for episodes 0 .. p and leaves on its last, so
  // episode e sees the n - e participants that are still in, and
  // participants() reads the count that stays for the next episode.
  constexpr std::size_t kParticipants = 5;
  WorkerBarrier barrier;
  barrier.reset(kParticipants);
  std::vector<int> arrivals(kParticipants, 0);
  std::vector<std::size_t> stayed;  // participants() seen by each finalize
  {
    std::vector<std::jthread> threads;
    for (std::size_t who = 0; who < kParticipants; ++who) {
      threads.emplace_back([&, who] {
        Rng jitter(0x1eaf, who);
        for (std::size_t ep = 0; ep <= who; ++ep) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(jitter.below(150)));
          ++arrivals[who];
          arrive_and_wait(barrier, ep == who, [&] {
            int in = 0;
            for (const int a : arrivals) in += a;
            // Episodes 0 .. ep have seen n + (n-1) + ... + (n-ep) arrivals.
            int want = 0;
            for (std::size_t e = 0; e <= ep; ++e) {
              want += static_cast<int>(kParticipants - e);
            }
            EXPECT_EQ(in, want) << "episode " << ep;
            stayed.push_back(barrier.participants());
            return false;
          });
        }
      });
    }
  }
  for (std::size_t who = 0; who < kParticipants; ++who) {
    EXPECT_EQ(arrivals[who], static_cast<int>(who + 1));
  }
  EXPECT_EQ(stayed, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
  EXPECT_EQ(barrier.episode(), kParticipants);
}

TEST(WorkerBarrier, ResetRearmsAndRejectsZeroParticipants) {
  WorkerBarrier barrier;
  EXPECT_THROW(barrier.reset(0), std::invalid_argument);
  for (int run = 0; run < 2; ++run) {
    barrier.reset(3);
    EXPECT_EQ(barrier.episode(), 0u);
    EXPECT_FALSE(barrier.stop_flag());
    EXPECT_EQ(barrier.participants(), 3u);
    std::atomic<int> stops{0};
    {
      std::vector<std::jthread> threads;
      for (std::size_t who = 0; who < 3; ++who) {
        threads.emplace_back([&] {
          // Two episodes; the second stops the run.  A participant that
          // left in an earlier run must not shrink this one.
          for (int ep = 0; ep < 2; ++ep) {
            if (arrive_and_wait(barrier, ep == 1,
                                [&, ep] { return ep == 1; })) {
              stops.fetch_add(1);
            }
          }
        });
      }
    }
    EXPECT_EQ(stops.load(), 3);
    EXPECT_EQ(barrier.participants(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Engine-level barrier stress
// ---------------------------------------------------------------------------

// Every machine sends one distinct message to every peer per superstep
// while sleeping random amounts before sending and before arriving, so
// machines hit the barrier in a different interleaving every run.  Receivers
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
  // k = 256 machines parked across the default workers; a neighbor ring
  // keeps the traffic linear in k so the stress is the rendezvous, not
  // delivery.
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
  // The injected throw happens on the finalizer with the other 63
  // machines parked; every one of them must wake, see the stop, and the
  // error must surface out of run() — no deadlock.
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
  // Runs well past three episodes and asserts each superstep delivers
  // exactly its own wave: a parity/episode bug would surface as stale or
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
