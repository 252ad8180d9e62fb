#include "sim/executor.hpp"

#include <algorithm>
#include <memory>
#include <thread>

namespace km {

namespace {

// park() and fiber_entry() need to find "the executor and machine I am
// running on" without threading it through every frame of the machine
// program; one thread_local per worker does it (a worker runs exactly
// one fiber at a time).
struct RunningFiber {
  Executor* executor = nullptr;
  std::size_t machine = 0;
  FiberContext* context = nullptr;
  FiberContext* scheduler = nullptr;
};
thread_local RunningFiber g_running;

}  // namespace

std::size_t Executor::default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

Executor::Executor(std::size_t machines, std::size_t workers, IdleHooks idle)
    : idle_(idle) {
  if (workers == 0) workers = default_worker_count();
  if (machines == 0) machines = 1;
  workers = std::min(workers, machines);
  group_ = std::min(kDealGroup, (machines + workers - 1) / workers);
  // Fewer groups than workers leaves some workers with nothing (k = 5,
  // W = 4 deals groups of 2: three suffice); drop them, so every worker
  // owns at least one machine.
  workers_ = std::min(workers, (machines + group_ - 1) / group_);
  machines_.resize(machines);
}

void Executor::fiber_entry(void* raw) {
  auto* running = static_cast<RunningFiber*>(raw);
  Executor* self = running->executor;
  const std::size_t m = running->machine;
  try {
    self->fn_(m);
  } catch (...) {
    // The engine's machine_main catches its own errors; this is the
    // last-resort net so a throwing program can never unwind into
    // makecontext's trampoline.
    if (!self->error_set_.exchange(true, std::memory_order_acq_rel)) {
      self->first_error_ = std::current_exception();
    }
  }
  self->machines_[m].done = true;
  // Final departure: tears down the fiber's sanitizer state and returns
  // control to the scheduler for good.
  FiberContext::switch_to(*g_running.context, *g_running.scheduler,
                          /*terminating=*/true);
}

void Executor::worker_loop(std::size_t w) {
  // This worker's machines, ascending: groups w, w + W', w + 2W', ...
  std::vector<std::size_t> mine;
  const std::size_t k = machines_.size();
  for (std::size_t first = w * group_; first < k;
       first += workers_ * group_) {
    for (std::size_t m = first; m < std::min(first + group_, k); ++m) {
      mine.push_back(m);
    }
  }

  FiberContext native;  // constructed here so TSan keys it to this thread

  // Fibers are created (and their TSan state allocated) on the owning
  // worker; contexts live on this frame and die when its machines are.
  std::vector<RunningFiber> slots(mine.size());
  std::vector<std::unique_ptr<FiberContext>> fibers;
  fibers.reserve(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    auto& slot = slots[i];
    slot.executor = this;
    slot.machine = mine[i];
    slot.scheduler = &native;
    fibers.push_back(std::make_unique<FiberContext>(
        machines_[mine[i]].stack, &Executor::fiber_entry, &slot));
    slot.context = fibers.back().get();
  }

  std::size_t live = mine.size();
  while (live > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      Machine& mach = machines_[mine[i]];
      if (mach.done) continue;
      if (mach.parked && !mach.ready(mach.ready_arg, mine[i])) continue;
      mach.parked = false;
      g_running = slots[i];
      FiberContext::switch_to(native, *slots[i].context);
      progressed = true;
      if (mach.done) --live;
    }
    if (live == 0) break;
    if (progressed || idle_.epoch == nullptr) continue;
    // Every machine parked, nothing ready: sleep until the wake event's
    // generation moves.  Sampling the epoch before the recheck closes
    // the missed-wakeup window (a release landing after the recheck
    // leaves epoch != seen, so wait() falls through immediately).
    const std::uint64_t seen = idle_.epoch(idle_.arg);
    bool any_ready = false;
    for (std::size_t i = 0; i < mine.size() && !any_ready; ++i) {
      Machine& mach = machines_[mine[i]];
      any_ready =
          !mach.done && mach.parked && mach.ready(mach.ready_arg, mine[i]);
    }
    if (!any_ready) idle_.wait(idle_.arg, seen);
  }
}

void Executor::run(MachineMain fn) {
  fn_ = std::move(fn);
  if (workers_ == 1) {
    // Degenerate pool: run the scheduler inline — no reason to burn a
    // thread spawn, and it keeps single-worker stacks fully synchronous
    // for debuggers.
    worker_loop(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      pool.emplace_back([this, w] { worker_loop(w); });
    }
  }
  fn_ = nullptr;
  if (error_set_.load(std::memory_order_acquire) && first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    error_set_.store(false, std::memory_order_release);
    std::rethrow_exception(err);
  }
}

void Executor::park(std::size_t machine, ReadyFn ready, void* arg) {
  Machine& mach = machines_[machine];
  mach.ready = ready;
  mach.ready_arg = arg;
  mach.parked = true;
  FiberContext::switch_to(*g_running.context, *g_running.scheduler);
  // Resumed: the scheduler cleared `parked` and restored g_running
  // before switching back in.
}

}  // namespace km
