// Worker-pool executor: runs k logical machines on W OS threads.
//
// The paper's interesting regime is huge k (congested clique, k close to
// n), far beyond the hardware thread count; a thread per machine stops
// scaling near the core count.  The executor gives each machine a
// stackful fiber (sim/fiber.hpp) and cooperatively schedules: when a
// machine parks — in practice, at the superstep barrier inside
// exchange() — the worker switches to its next runnable machine instead
// of blocking in a futex.
//
// Placement: machines are dealt to workers in groups of g consecutive
// ids, g = min(kDealGroup, ceil(k / W)), round-robin: machine m runs on
// worker (m / g) mod W', where W' is the number of workers that get at
// least one group.  A run of busy machines with adjacent ids
// (TriPartition's tuple machines sit at ids 0 .. tuples-1) thus spreads
// over every worker instead of filling the first one's contiguous
// block.  When ceil(k / W) <= kDealGroup the deal is the same as
// contiguous blocks of ceil(k / W).  Placement is static, with no
// migration: per-machine trace buffers stay single-writer, buffer pools
// stay worker-local, and a fiber never resumes on another thread
// (compilers may cache a thread_local's address across the switch).
//
// Parking protocol: a machine calls Executor::park(ready, arg) from its
// own fiber.  `ready(arg, machine)` is the resume predicate, polled by
// the owning worker only (cheap atomic loads; for the engine it asks
// whether the barrier's episode has moved).  When every live machine of
// a worker is parked and none is ready, the worker sleeps through
// IdleHooks:
//
//   seen = hooks.epoch(arg);     // sample the wake-event generation
//   if (none of the parked machines is ready)   // recheck under `seen`
//     hooks.wait(arg, seen);     // futex-wait; returns at once if the
//                                // generation already moved past `seen`
//
// Sampling the epoch *before* the recheck closes the missed-wakeup
// window: any release that lands between recheck and wait leaves
// epoch != seen, so the wait falls through.  For the engine both hooks
// wrap the barrier's episode word — the episode bump is the only event
// that can make a parked machine runnable.
//
// Determinism: scheduling never touches results.  Machines interact only
// through the exchange protocol, whose delivery order is defined by
// (source id, send order), not by execution interleaving — so rounds,
// bits, and the full km.run_result/v1 document are identical at every
// worker count.  The determinism property suite pins this down.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "sim/fiber.hpp"

namespace km {

/// How a worker sleeps when all of its machines are parked and nothing
/// is ready.  See the file comment for the missed-wakeup protocol.
struct IdleHooks {
  /// Generation count of the wake event (monotone modulo wrap).
  std::uint64_t (*epoch)(void* arg) = nullptr;
  /// Blocks until the generation moves past `seen` (may wake spuriously).
  void (*wait)(void* arg, std::uint64_t seen) = nullptr;
  void* arg = nullptr;
};

class Executor {
 public:
  /// Largest group of consecutive machines dealt to one worker.  On the
  /// k = 64 benchmark sweep over W = 2 workers (4 vCPUs; two sets of ten
  /// alternating 20 s runs against plain round-robin, g = 1), four won 6
  /// of 10 and 4 of 9 pairs on scenarios/s, with medians within 2%: the
  /// two deal equally well there.  Four stays because with
  /// ceil(k / W) <= 4 it deals contiguous blocks, the placement the
  /// smaller cells have always run with, while at k = 64 it still
  /// spreads busy adjacent ids over every worker.
  static constexpr std::size_t kDealGroup = 4;

  /// Resume predicate for a parked machine; must be safe to call from
  /// the owning worker while the machine is parked.
  using ReadyFn = bool (*)(void* arg, std::size_t machine);
  /// One machine's whole program (the engine's machine_main).  Runs on
  /// the machine's fiber; exceptions escaping it are captured and
  /// rethrown from run() (first one wins).
  using MachineMain = std::function<void(std::size_t machine)>;

  /// `workers == 0` means hardware concurrency.  The effective count,
  /// reported by worker_count(), is at most `workers` and at most
  /// `machines`, and every worker owns at least one machine: workers
  /// that the group deal (file comment) leaves without a group are
  /// dropped.  Every machine fiber gets a kDefaultFiberStackBytes stack.
  Executor(std::size_t machines, std::size_t workers, IdleHooks idle);

  std::size_t worker_count() const noexcept { return workers_; }
  std::size_t machine_count() const noexcept { return machines_.size(); }
  /// The worker that owns `machine`: (machine / g) mod worker_count().
  std::size_t worker_of(std::size_t machine) const noexcept {
    return machine / group_ % workers_;
  }

  /// Runs every machine to completion on the pool and joins the workers.
  /// Blocking: returns only when all k programs have finished.  Rethrows
  /// the first exception that escaped a MachineMain.
  void run(MachineMain fn);

  /// Parks the calling machine until ready(arg, machine) holds, yielding
  /// the worker to its next runnable machine.  MUST be called from
  /// inside a machine fiber (i.e. from within the MachineMain of
  /// `machine`); `machine` must be the caller's own id.
  void park(std::size_t machine, ReadyFn ready, void* arg);

  static std::size_t default_worker_count();

 private:
  // The fiber contexts themselves live in their worker's frame, created
  // there so the TSan fiber state belongs to the worker thread.
  struct Machine {
    FiberStack stack{kDefaultFiberStackBytes};
    ReadyFn ready = nullptr;
    void* ready_arg = nullptr;
    bool parked = false;
    bool done = false;
  };

  void worker_loop(std::size_t w);
  static void fiber_entry(void* raw);

  std::vector<Machine> machines_;
  std::size_t workers_;
  std::size_t group_;  ///< g: consecutive machines dealt as one
  IdleHooks idle_;
  MachineMain fn_;

  // First exception escaping any MachineMain (worker-local capture,
  // merged under a plain one-shot flag per worker; workers never race on
  // the same machine).
  std::exception_ptr first_error_;
  std::atomic<bool> error_set_{false};
};

}  // namespace km
