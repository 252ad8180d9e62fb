// Sense-reversing combining-tree barrier for the SPMD engine.
//
// The engine's superstep rendezvous used to be a single mutex + condition
// variable: every machine locked the same mutex to arrive, the last
// arriver merged all k*k per-link counters alone, and the notify_all woke
// k-1 waiters that then re-acquired that same mutex one by one.  At
// k >= 256 both the arrival and the wake-up serialize on one cache line
// and one lock.
//
// TreeBarrier replaces that with the classic combining-tree / sense-
// reversing design (Mellor-Crummey & Scott):
//
//  - Participants are grouped four to a leaf node; leaves are grouped
//    four to a parent, and so on up to a single root (arity kArity = 4).
//  - Arrival is a relaxed-contention fetch_add on the participant's leaf.
//    The last arriver at a node *combines* its children (the caller's
//    `combine` hook — the engine folds per-link traffic counters there)
//    and climbs to the parent; everyone else parks.  The last arriver at
//    the root runs `finalize` (the engine's superstep bookkeeping) exactly
//    once per episode.  Work that used to be O(k^2) on one thread folds
//    up the tree in O(arity * k) pieces.
//  - Release is sense-reversing: a single global sense word flips once
//    per episode (release store + notify_all), and a parked participant
//    is released once the sense matches its local sense.  Schedulers
//    with nothing else to run block on the sense word through
//    std::atomic::wait (a futex on Linux — no spinning, no mutex
//    reacquisition stampede).
//
// Memory ordering: every arrival fetch_add is acq_rel, so the last
// arriver of a node happens-after all its children's arrivals, and by
// induction the root's finalize happens-after *every* participant's
// arrival (this is what lets the engine read all machines' counters and
// buckets without a lock).  The sense flip is a release store observed
// with acquire loads, so once released(who) holds, every participant
// happens-after finalize — the delivery phase can read any machine's
// buckets race-free.  The ABA hazard of sense reversal is excluded by
// the barrier itself: the sense cannot flip twice until every
// participant (including the slowest waiter) has arrived again.
//
// Hooks must not throw: the caller wraps fallible work (fault injection,
// delivery errors) and converts it into a stop decision; see
// Engine::finalize_superstep.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/annotations.hpp"

namespace km {

class TreeBarrier {
 public:
  /// Fan-in of every tree node (machines per leaf, children per internal
  /// node).  Four keeps the tree shallow (k = 256 folds in 4 levels)
  /// while each combine stays a handful of cache lines.
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit TreeBarrier(std::size_t participants);

  std::size_t participants() const noexcept { return participants_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t root() const noexcept { return nodes_.size() - 1; }
  std::size_t leaf_count() const noexcept { return leaf_count_; }

  /// Leaf node id participant `who` arrives at.
  std::size_t leaf_of(std::size_t who) const noexcept {
    return who / kArity;
  }
  std::size_t parent_of(std::size_t node) const noexcept {
    return nodes_[node].parent;
  }
  bool is_leaf(std::size_t node) const noexcept { return nodes_[node].leaf; }
  std::uint32_t fan_in(std::size_t node) const noexcept {
    return nodes_[node].fan_in;
  }
  /// Children of `node` as a half-open range: participant ids when the
  /// node is a leaf, node ids otherwise.
  std::pair<std::size_t, std::size_t> children_of(
      std::size_t node) const noexcept {
    return {nodes_[node].child_begin, nodes_[node].child_end};
  }

  /// What arrive_begin() left the participant doing.
  enum class ArriveOutcome {
    kParked,    ///< not released yet: poll released(who) before resuming
    kReleased,  ///< this participant ran finalize; the episode is over
  };

  /// Arrive at the barrier as participant `who`.  On the folding path,
  /// `combine(node, leaf, child_begin, child_end)` is invoked exactly
  /// once per node per episode (on the node's last arriver, children
  /// quiescent); `finalize() -> bool` is invoked exactly once per episode
  /// on the root's last arriver, and its result is the stop decision
  /// every participant reads from stop_flag().  Neither hook may throw.
  /// Both hooks run holding fold_phase (the phantom capability below),
  /// so hook bodies annotated KM_REQUIRES(fold_phase) are
  /// machine-checked against the state that only folders may touch.
  ///
  /// Never blocks: a participant that is not the last arriver of its
  /// node returns kParked at once, so a machine-granular scheduler
  /// (sim/executor.hpp) can run another machine on the same worker.
  /// The caller resumes the participant once released(who) holds — a
  /// worker with nothing else to run sleeps through sense_word() and
  /// wait_sense() — and then reads stop_flag().
  template <typename Combine, typename Finalize>
  ArriveOutcome arrive_begin(std::size_t who, Combine&& combine,
                             Finalize&& finalize) {
    // Flip this participant's sense first: the episode completes when the
    // global sense catches up to it.
    const std::uint32_t my_sense = local_[who].value ^ 1u;
    local_[who].value = my_sense;
    std::size_t node = leaf_of(who);
    while (true) {
      Node& n = nodes_[node];
      if (n.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 <
          n.fan_in) {
        // Not the last arriver here: the participant is parked until the
        // root flips the sense.
        return ArriveOutcome::kParked;
      }
      // Last arriver: this node's children are all in.  Re-arm the
      // counter for the next episode (nobody can re-arrive before the
      // sense flips, which happens-after this store), fold the children,
      // and carry the combined result up the tree.
      n.arrived.store(0, std::memory_order_relaxed);
      fold_phase.acquire();  // fan-in won: sole folder of `node`'s subtree
      combine(node, n.leaf, n.child_begin, n.child_end);
      fold_phase.release();
      if (n.parent == kNoParent) break;
      node = n.parent;
    }
    fold_phase.acquire();  // root fan-in won: every other machine is parked
    const bool stop = finalize();
    fold_phase.release();
    // Publish the stop decision, then the sense flip releases everything
    // the folding path and finalize wrote (counters, metrics, buckets).
    stop_.store(stop ? 1u : 0u, std::memory_order_relaxed);
    sense_.store(my_sense, std::memory_order_release);
    sense_.notify_all();
    return ArriveOutcome::kReleased;
  }

  /// True once the episode participant `who` arrived for has completed
  /// (acquire: a true result happens-after the root's finalize).  Poll
  /// only from the thread that owns `who` — local sense is unsynchronized
  /// by design.
  bool released(std::size_t who) const noexcept {
    return sense_.load(std::memory_order_acquire) == local_[who].value;
  }

  /// Stop decision of the last completed episode.  Read only after
  /// released(who) came back true (ordering rides the sense word).
  bool stop_flag() const noexcept {
    return stop_.load(std::memory_order_relaxed) != 0;
  }

  /// Current value of the sense word, for a futex-style idle protocol:
  /// sample it, recheck released() for every parked machine, then
  /// wait_sense(sample).  A flip between recheck and wait leaves the word
  /// != sample, so the wait falls through (no missed wakeup).
  std::uint32_t sense_word() const noexcept {
    return sense_.load(std::memory_order_acquire);
  }

  /// Blocks while the sense word still equals `seen` (may wake
  /// spuriously; re-sample and recheck).
  void wait_sense(std::uint32_t seen) const noexcept {
    sense_.wait(seen, std::memory_order_acquire);
  }

  /// Re-arms the barrier for a fresh run.  Callable only while no
  /// participant is mid-episode (the engine calls it before spawning
  /// machines).
  void reset() noexcept;

  /// Capability standing for "exclusive fold-phase access": held by the
  /// combine hook over the consumed children's state and by the finalize
  /// hook over everything the fold produced.  The exclusion mechanism is
  /// the barrier protocol itself (the winning fetch_add at a node's
  /// fan-in), not a lock — this phantom makes that guarantee visible to
  /// -Wthread-safety so fold-side state can be KM_GUARDED_BY it.  Public:
  /// callers name it in their own annotations (see Engine::fold_node).
  PhantomCapability fold_phase;

 private:
  // One cache line per node: the arrival counter is the only contended
  // word, and false sharing between sibling nodes would serialize the
  // very fan-out the tree exists to create.
  struct alignas(64) Node {
    std::atomic<std::uint32_t> arrived{0};
    std::uint32_t fan_in = 0;
    std::size_t parent = kNoParent;
    std::size_t child_begin = 0;  ///< participants (leaf) or node ids
    std::size_t child_end = 0;
    bool leaf = false;
  };
  struct alignas(64) LocalSense {
    std::uint32_t value = 0;
  };

  std::vector<Node> nodes_;  ///< leaves first, level by level; root last
  std::vector<LocalSense> local_;
  std::atomic<std::uint32_t> sense_{0};
  std::atomic<std::uint32_t> stop_{0};
  std::size_t participants_ = 0;
  std::size_t leaf_count_ = 0;
};

}  // namespace km
