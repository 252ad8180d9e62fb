// Worker barrier: the engine's superstep rendezvous, among its W workers.
//
// Each worker runs its statically placed machines one fiber at a time
// (sim/executor.hpp), so a machine's arrival needs no atomic: the engine
// folds the machine's counter row into its worker's accumulator with
// plain adds and parks the fiber (Engine::arrive).  When a worker's last
// live machine has arrived, the *worker* arrives here, at one acq_rel
// countdown.  The last worker to arrive runs the caller's `finalize` hook
// once per episode — the engine folds the W accumulators and charges the
// superstep there — and then bumps the episode word, which parked
// machines poll and idle workers sleep on (std::atomic::wait, a futex on
// Linux: no spinning, no mutex).
//
// Leaving: a worker with no live machine left arrives one last time with
// `leave` set and drops out of every later episode.  It bumps the
// `leaving` count before its arrival, and the finalizer subtracts that
// count from the participants it re-arms the countdown with.  Once every
// participant has left, participants() reads 0.
//
// Memory ordering: every arrival is an acq_rel fetch_sub on the one
// countdown, so the last arriver happens-after every participant's
// arrival, and so after everything each worker wrote before arriving
// (this is what lets the engine read every worker's accumulator and
// every machine's buckets without a lock).  The episode bump is a
// release store observed with acquire loads, so a machine that sees the
// episode move happens-after finalize.  An episode cannot advance twice
// while a participant waits: the next one needs that participant to
// arrive again.
//
// The hook must not throw: the engine wraps fallible work (fault
// injection) and converts it into a stop decision; see
// Engine::finalize_superstep.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "util/annotations.hpp"

namespace km {

class WorkerBarrier {
 public:
  /// Arms the barrier for a fresh run of `participants`: episode 0, no
  /// stop.  Callable only while no participant is mid-episode (the
  /// engine calls it before its workers start).  Throws
  /// std::invalid_argument when `participants` is 0.
  void reset(std::size_t participants) {
    if (participants < 1) {
      throw std::invalid_argument("WorkerBarrier: participants must be >= 1");
    }
    participants_ = static_cast<std::uint32_t>(participants);
    remaining_.store(participants_, std::memory_order_relaxed);
    leaving_.store(0, std::memory_order_relaxed);
    episode_.store(0, std::memory_order_relaxed);
    stop_.store(0, std::memory_order_relaxed);
  }

  /// Arrives one participant; `leave` makes this episode its last.  The
  /// last participant to arrive re-arms the countdown without the
  /// leavers, runs `finalize() -> bool` holding fold_phase, publishes its
  /// result as stop_flag(), bumps the episode and returns true.  Every
  /// other participant returns false at once (never blocks), and resumes
  /// once episode() has moved past the value it had before arriving.
  template <typename Finalize>
  bool arrive(bool leave, Finalize&& finalize) {
    if (leave) leaving_.fetch_add(1, std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
    // Last arriver: every other participant waits for the bump below, so
    // the countdown is re-armed here, for the participants that stay.
    participants_ -= leaving_.exchange(0, std::memory_order_relaxed);
    remaining_.store(participants_, std::memory_order_relaxed);
    fold_phase.acquire();  // countdown won: every other worker has arrived
    const bool stop = finalize();
    fold_phase.release();
    // Publish the stop decision; the bump releases everything the
    // finalizer and the arrivals before it wrote.
    stop_.store(stop ? 1u : 0u, std::memory_order_relaxed);
    episode_.store(episode_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    episode_.notify_all();
    return true;
  }

  /// Participants of the next episode, net of those that left in this
  /// one; 0 once all have left.  Read inside `finalize`, or outside an
  /// episode.
  std::size_t participants() const noexcept { return participants_; }

  /// Episodes completed since reset().  Acquire: a participant that sees
  /// it move past the episode it arrived for happens-after its finalize.
  std::uint32_t episode() const noexcept {
    return episode_.load(std::memory_order_acquire);
  }

  /// Blocks while the episode still equals `seen` (may wake spuriously:
  /// re-sample and recheck).  With episode(), this is the futex-style idle
  /// protocol of sim/executor.hpp.
  void wait(std::uint32_t seen) const noexcept {
    episode_.wait(seen, std::memory_order_acquire);
  }

  /// Stop decision of the last completed episode.  Read only after
  /// episode() moved past the episode one arrived for (ordering rides the
  /// episode word), or outside a run.
  bool stop_flag() const noexcept {
    return stop_.load(std::memory_order_relaxed) != 0;
  }

  /// Capability standing for "exclusive fold-phase access": held by the
  /// finalize hook over everything the arrivals folded.  The exclusion
  /// mechanism is the barrier protocol itself (the countdown's last
  /// arrival), not a lock — this phantom makes that guarantee visible to
  /// -Wthread-safety so fold-side state can be KM_GUARDED_BY it.  Public:
  /// callers name it in their own annotations (see Engine::arrive).
  PhantomCapability fold_phase;

 private:
  std::atomic<std::uint32_t> remaining_{0};  ///< arrivals still due
  std::atomic<std::uint32_t> leaving_{0};    ///< leavers this episode
  std::atomic<std::uint32_t> episode_{0};
  std::atomic<std::uint32_t> stop_{0};
  std::uint32_t participants_ = 0;  ///< written by finalizers and reset()
};

}  // namespace km
