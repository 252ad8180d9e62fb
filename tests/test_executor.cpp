// Unit tests for the fiber primitive (sim/fiber.hpp) and the worker-pool
// executor (sim/executor.hpp) that multiplexes k machine fibers over W
// OS threads.
//
// FiberSwitch drives FiberContext::switch_to directly: entry/argument
// plumbing, repeated suspend/resume round trips, and stack usability.
// ExecutorPool exercises the scheduler: machines are dealt to workers in
// round-robin groups, every machine runs exactly once at any worker
// count, parked machines resume when their predicate flips (including
// cross-worker wakeups through IdleHooks), the first escaping exception
// is rethrown from run() without stopping the rest, and k >> W
// multiplexing holds at the thousand-machine scale the engine needs.
// Both suites run under the tsan CI job — scheduling races here would
// poison every result above.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/executor.hpp"
#include "sim/fiber.hpp"

namespace km {
namespace {

TEST(FiberSwitch, StackRoundsUpAndExposesUsableRange) {
  const FiberStack stack(1);
  EXPECT_NE(stack.base(), nullptr);
  EXPECT_GE(stack.size(), 1u);

  const FiberStack big(kDefaultFiberStackBytes);
  EXPECT_GE(big.size(), kDefaultFiberStackBytes);
}

TEST(FiberSwitch, StackMoveTransfersOwnership) {
  FiberStack a(kDefaultFiberStackBytes);
  void* const base = a.base();
  const std::size_t size = a.size();

  FiberStack b(std::move(a));
  EXPECT_EQ(b.base(), base);
  EXPECT_EQ(b.size(), size);
  EXPECT_EQ(a.base(), nullptr);  // NOLINT(bugprone-use-after-move)

  a = std::move(b);
  EXPECT_EQ(a.base(), base);
  EXPECT_EQ(b.base(), nullptr);  // NOLINT(bugprone-use-after-move)
}

/// Shared state for the ping-pong entries below: the fiber suspends
/// back to the native context after each step so the test observes
/// every intermediate state.
struct PingPong {
  FiberContext* native = nullptr;
  FiberContext* fiber = nullptr;
  int step = 0;
  int rounds = 0;  // ManySwitches: suspensions before terminating
};

void ping_pong_entry(void* raw) {
  auto* pp = static_cast<PingPong*>(raw);
  pp->step = 1;
  FiberContext::switch_to(*pp->fiber, *pp->native);
  pp->step = 2;
  FiberContext::switch_to(*pp->fiber, *pp->native, /*terminating=*/true);
}

TEST(FiberSwitch, EntryRunsOnFirstSwitchAndResumesWhereItLeft) {
  const FiberStack stack(kDefaultFiberStackBytes);
  FiberContext native;
  PingPong pp;
  FiberContext fiber(stack, &ping_pong_entry, &pp);
  pp.native = &native;
  pp.fiber = &fiber;

  ASSERT_EQ(pp.step, 0);  // construction must not run the entry
  FiberContext::switch_to(native, fiber);
  EXPECT_EQ(pp.step, 1);
  FiberContext::switch_to(native, fiber);
  EXPECT_EQ(pp.step, 2);
}

void counting_entry(void* raw) {
  auto* pp = static_cast<PingPong*>(raw);
  for (int i = 0; i < pp->rounds; ++i) {
    ++pp->step;
    FiberContext::switch_to(*pp->fiber, *pp->native);
  }
  ++pp->step;
  FiberContext::switch_to(*pp->fiber, *pp->native, /*terminating=*/true);
}

TEST(FiberSwitch, ManySuspendResumeRoundTrips) {
  const FiberStack stack(kDefaultFiberStackBytes);
  FiberContext native;
  PingPong pp;
  pp.rounds = 1000;
  FiberContext fiber(stack, &counting_entry, &pp);
  pp.native = &native;
  pp.fiber = &fiber;

  for (int i = 1; i <= pp.rounds + 1; ++i) {
    FiberContext::switch_to(native, fiber);
    EXPECT_EQ(pp.step, i);
  }
}

/// Burns ~depth stack frames with live state to prove the mmap'd stack
/// actually holds a working call chain (and that nothing lands on the
/// guard page under normal depths).
int recurse(int depth, int acc) {
  volatile int local = depth;  // keep the frame from being elided
  if (depth == 0) return acc + local;
  return recurse(depth - 1, acc + 1);
}

void deep_entry(void* raw) {
  auto* pp = static_cast<PingPong*>(raw);
  pp->step = recurse(500, 0);
  FiberContext::switch_to(*pp->fiber, *pp->native, /*terminating=*/true);
}

TEST(FiberSwitch, FiberStackSupportsDeepCallChains) {
  const FiberStack stack(kDefaultFiberStackBytes);
  FiberContext native;
  PingPong pp;
  FiberContext fiber(stack, &deep_entry, &pp);
  pp.native = &native;
  pp.fiber = &fiber;

  FiberContext::switch_to(native, fiber);
  EXPECT_EQ(pp.step, 500);
}

TEST(ExecutorPool, WorkerCountResolvesAndClamps) {
  EXPECT_GE(Executor::default_worker_count(), 1u);

  const Executor clamped(4, 100, IdleHooks{});
  EXPECT_EQ(clamped.worker_count(), 4u);
  EXPECT_EQ(clamped.machine_count(), 4u);

  const Executor defaulted(4, 0, IdleHooks{});
  EXPECT_GE(defaulted.worker_count(), 1u);
  EXPECT_LE(defaulted.worker_count(), 4u);

  const Executor single(9, 2, IdleHooks{});
  EXPECT_EQ(single.worker_count(), 2u);
}

/// (k, W) shapes for the pool tests.  In (5, 4), (7, 6) and (12, 5),
/// ceil(k / W)-sized groups cover k before the W-th worker, so fewer
/// workers run; the last three deal groups of Executor::kDealGroup
/// round-robin, (64, 3) unevenly (six groups to worker 0, five to the
/// others).
constexpr std::pair<std::size_t, std::size_t> kPoolShapes[] = {
    {10, 3}, {32, 1}, {32, 2}, {32, 5}, {32, 32}, {5, 4},
    {7, 6},  {12, 5}, {64, 2}, {64, 3}, {1024, 4}};

TEST(ExecutorPool, LeafGroupsAreDealtRoundRobin) {
  constexpr std::size_t kGroup = Executor::kDealGroup;
  for (const auto& [machines, workers] : kPoolShapes) {
    SCOPED_TRACE("k=" + std::to_string(machines) +
                 " W=" + std::to_string(workers));
    const Executor ex(machines, workers, IdleHooks{});
    const std::size_t share = (machines + workers - 1) / workers;
    const std::size_t group = std::min(kGroup, share);
    EXPECT_LE(ex.worker_count(), workers);
    EXPECT_EQ(ex.worker_count(),
              std::min(workers, (machines + group - 1) / group));
    std::vector<std::size_t> owned(ex.worker_count(), 0);
    for (std::size_t m = 0; m < ex.machine_count(); ++m) {
      const std::size_t w = ex.worker_of(m);
      ASSERT_LT(w, ex.worker_count());
      EXPECT_EQ(w, m / group % ex.worker_count()) << "machine " << m;
      if (share <= kGroup) {
        EXPECT_EQ(w, m / share) << "machine " << m << ": not a block";
      }
      if (share >= kGroup) {
        EXPECT_EQ(w, ex.worker_of(m / kGroup * kGroup))
            << "machine " << m << " split from its group";
      }
      ++owned[w];
    }
    for (std::size_t w = 0; w < owned.size(); ++w) {
      EXPECT_GE(owned[w], 1u) << "worker " << w << " owns no machine";
    }
    const auto [lo, hi] = std::minmax_element(owned.begin(), owned.end());
    EXPECT_LE(*hi - *lo, group) << "loads differ by more than one group";
  }
}

TEST(ExecutorPool, EveryMachineRunsExactlyOnceAtAnyWorkerCount) {
  for (const auto& [machines, workers] : kPoolShapes) {
    std::vector<std::atomic<int>> runs(machines);
    Executor ex(machines, workers, IdleHooks{});
    ex.run([&](std::size_t m) { runs[m].fetch_add(1); });
    for (std::size_t m = 0; m < machines; ++m) {
      EXPECT_EQ(runs[m].load(), 1)
          << "machine " << m << " at k=" << machines << " W=" << workers;
    }
  }
}

/// A single global "turn" both gates and wakes the machines: machine m
/// may proceed only when turn == m, and the turn moves *downwards* while
/// workers scan their machines upwards — so every machine but the last
/// parks at least once, and most wakeups cross worker boundaries
/// (exactly the engine's barrier-release shape, minus the barrier).
struct TurnState {
  std::atomic<std::uint64_t> turn{0};
};

bool turn_ready(void* arg, std::size_t machine) {
  return static_cast<TurnState*>(arg)->turn.load(std::memory_order_acquire) ==
         machine;
}

std::uint64_t turn_epoch(void* arg) {
  return static_cast<TurnState*>(arg)->turn.load(std::memory_order_acquire);
}

void turn_wait(void* arg, std::uint64_t seen) {
  auto& turn = static_cast<TurnState*>(arg)->turn;
  while (turn.load(std::memory_order_acquire) == seen) {
    std::this_thread::yield();
  }
}

TEST(ExecutorPool, ParkedMachinesResumeAcrossWorkersInDependencyOrder) {
  constexpr std::size_t kMachines = 96;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    TurnState st;
    st.turn.store(kMachines - 1);
    std::vector<std::size_t> order;
    std::mutex mu;

    Executor ex(kMachines, workers, IdleHooks{&turn_epoch, &turn_wait, &st});
    ex.run([&](std::size_t m) {
      while (st.turn.load(std::memory_order_acquire) != m) {
        ex.park(m, &turn_ready, &st);
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        order.push_back(m);
      }
      st.turn.fetch_sub(1, std::memory_order_release);
    });

    ASSERT_EQ(order.size(), kMachines) << "W=" << workers;
    for (std::size_t i = 0; i < kMachines; ++i) {
      EXPECT_EQ(order[i], kMachines - 1 - i) << "W=" << workers;
    }
  }
}

TEST(ExecutorPool, FirstExceptionRethrownAfterOthersComplete) {
  constexpr std::size_t kMachines = 16;
  std::atomic<int> completed{0};
  Executor ex(kMachines, 4, IdleHooks{});
  EXPECT_THROW(ex.run([&](std::size_t m) {
                 if (m == 5) throw std::runtime_error("machine 5 boom");
                 completed.fetch_add(1);
               }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), static_cast<int>(kMachines) - 1);
}

TEST(ExecutorPool, ThousandsOfMachinesMultiplexOverTwoWorkers) {
  constexpr std::size_t kMachines = 2048;
  std::atomic<std::uint64_t> sum{0};
  // 2048 x 256 KiB default stacks reserve 512 MiB of address space, and
  // the trivial body touches almost none of it (lazy commit).
  Executor ex(kMachines, 2, IdleHooks{});
  ex.run([&](std::size_t m) { sum.fetch_add(m, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), std::uint64_t{kMachines} * (kMachines - 1) / 2);
}

}  // namespace
}  // namespace km
