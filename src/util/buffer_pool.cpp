#include "util/buffer_pool.hpp"

#include <atomic>
#include <utility>

#include "util/annotations.hpp"

namespace km {

namespace {

// The message plane recycles few, large buffers (one inbox arena per
// receiver per superstep), so the byte caps, not the count caps, bound
// what the pools retain.  Each byte cap holds one buffer at the per-buffer cap: on a
// km_serve-like stream, 8 MiB / 32 MiB kept about 3.5 MB more resident
// than 1 MiB / 1 MiB at the same pool hit ratio.
constexpr std::size_t kMaxPooledBuffers = 256;
constexpr std::size_t kMaxBufferCapacity = std::size_t{1} << 20;   // 1 MiB
constexpr std::size_t kMaxPooledBytes = std::size_t{1} << 20;      // 1 MiB
constexpr std::size_t kMaxShelfBuffers = 1024;
constexpr std::size_t kMaxShelfBytes = std::size_t{1} << 20;       // 1 MiB

// Per-thread counter cell.  Relaxed atomics on a thread-private cache
// line: writes cost a plain increment, while buffer_pool_counters() can
// read other threads' cells without a data race.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> recycled{0};
  std::atomic<std::uint64_t> evicted{0};
  std::atomic<std::uint64_t> evicted_bytes{0};
  std::atomic<std::uint64_t> shelf_returns{0};
  std::atomic<std::uint64_t> shelf_refills{0};
  std::atomic<std::uint64_t> pooled_buffers{0};
  std::atomic<std::uint64_t> pooled_bytes{0};
};

// The cross-thread return channel: buffers released on a thread whose
// local pool is full park here until some thread's acquire misses.  Only
// the miss/overflow paths take the mutex, so the channel costs nothing
// while local pools are in balance; under a worker pool (sim/executor),
// where unframed payloads are acquired on the sender's worker and
// released on the receiver's, it is what keeps capacities circulating
// instead of being re-allocated every superstep.
struct Shelf {
  Shelf() { buffers.reserve(kMaxShelfBuffers); }
  Mutex mutex;
  std::vector<std::vector<std::byte>> buffers KM_GUARDED_BY(mutex);
  std::size_t bytes KM_GUARDED_BY(mutex) = 0;  // sum of capacities held
};

Shelf& shelf() noexcept {
  static Shelf s;
  return s;
}

/// Parks `buf` on the shelf; declines (false) past the shelf caps.
bool shelf_push(std::vector<std::byte>&& buf) noexcept {
  Shelf& s = shelf();
  const MutexLock lock(s.mutex);
  if (s.buffers.size() >= kMaxShelfBuffers ||
      s.bytes + buf.capacity() > kMaxShelfBytes) {
    return false;
  }
  buf.clear();
  s.bytes += buf.capacity();
  s.buffers.push_back(std::move(buf));  // never reallocates: reserved
  return true;
}

/// Pops a parked buffer into `out`; false when the shelf is empty.
bool shelf_pop(std::vector<std::byte>& out) noexcept {
  Shelf& s = shelf();
  const MutexLock lock(s.mutex);
  if (s.buffers.empty()) return false;
  out = std::move(s.buffers.back());
  s.buffers.pop_back();
  s.bytes -= out.capacity();
  return true;
}

// Registry of live cells plus totals retired by exited threads.  The
// mutex guards only registration, retirement, and the aggregate read —
// never the pool hot path.
struct Registry {
  Mutex mutex;
  std::vector<const CounterCell*> live KM_GUARDED_BY(mutex);
  // gauges stay 0: a dead pool holds nothing
  BufferPoolCounters retired KM_GUARDED_BY(mutex);
};

Registry& registry() noexcept {
  static Registry reg;
  return reg;
}

struct Pool {
  Pool() {
    buffers.reserve(kMaxPooledBuffers);
    auto& reg = registry();
    const MutexLock lock(reg.mutex);
    reg.live.push_back(&cell);
  }
  ~Pool() {
    destroyed = true;
    // Flush the holdings to the shelf so capacities survive this thread:
    // engine runs spawn fresh workers each time, and without the flush
    // every run would rebuild its working set from cold allocations.
    for (auto& buf : buffers) {
      if (!shelf_push(std::move(buf))) break;  // shelf full: rest is freed
    }
    buffers.clear();
    auto& reg = registry();
    const MutexLock lock(reg.mutex);
    reg.retired.hits += cell.hits.load(std::memory_order_relaxed);
    reg.retired.misses += cell.misses.load(std::memory_order_relaxed);
    reg.retired.recycled += cell.recycled.load(std::memory_order_relaxed);
    reg.retired.evicted += cell.evicted.load(std::memory_order_relaxed);
    reg.retired.evicted_bytes +=
        cell.evicted_bytes.load(std::memory_order_relaxed);
    reg.retired.shelf_returns +=
        cell.shelf_returns.load(std::memory_order_relaxed);
    reg.retired.shelf_refills +=
        cell.shelf_refills.load(std::memory_order_relaxed);
    std::erase(reg.live, &cell);
  }
  std::vector<std::vector<std::byte>> buffers;
  std::size_t pooled_bytes = 0;  // sum of capacities held
  bool destroyed = false;        // guards late releases at thread exit
  CounterCell cell;
};

Pool& local_pool() noexcept {
  thread_local Pool pool;
  return pool;
}

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) noexcept {
  counter.fetch_add(by, std::memory_order_relaxed);
}

}  // namespace

std::vector<std::byte> acquire_buffer() noexcept {
  Pool& pool = local_pool();
  if (pool.destroyed || pool.buffers.empty()) {
    if (pool.destroyed) return {};
    // Local pool dry: pull from the cross-thread return channel before
    // paying for a fresh allocation (cold path — mutex is fine here).
    std::vector<std::byte> from_shelf;
    if (shelf_pop(from_shelf)) {
      bump(pool.cell.shelf_refills);
      return from_shelf;
    }
    bump(pool.cell.misses);
    return {};
  }
  std::vector<std::byte> buf = std::move(pool.buffers.back());
  pool.buffers.pop_back();
  pool.pooled_bytes -= buf.capacity();
  bump(pool.cell.hits);
  pool.cell.pooled_buffers.store(pool.buffers.size(),
                                 std::memory_order_relaxed);
  pool.cell.pooled_bytes.store(pool.pooled_bytes, std::memory_order_relaxed);
  return buf;
}

void recycle_buffer(std::vector<std::byte>&& buf) noexcept {
  Pool& pool = local_pool();
  if (pool.destroyed || buf.capacity() == 0) {
    return;  // nothing to account: no storage changes hands
  }
  if (buf.capacity() > kMaxBufferCapacity) {
    // Outsized storage is never pooled anywhere: freeing it is the point
    // of the cap.
    bump(pool.cell.evicted);
    bump(pool.cell.evicted_bytes, buf.capacity());
    return;
  }
  if (pool.buffers.size() >= kMaxPooledBuffers ||
      pool.pooled_bytes + buf.capacity() > kMaxPooledBytes) {
    // Local overflow: offer it to the cross-thread return channel — under
    // a worker pool this is the receiver handing the sender's payload
    // capacity back — and only free it when the shelf is full too.
    const std::uint64_t capacity = buf.capacity();
    if (shelf_push(std::move(buf))) {
      bump(pool.cell.shelf_returns);
    } else {
      bump(pool.cell.evicted);
      bump(pool.cell.evicted_bytes, capacity);
    }
    return;
  }
  buf.clear();
  pool.pooled_bytes += buf.capacity();
  // Never reallocates: the vector was reserved to kMaxPooledBuffers.
  pool.buffers.push_back(std::move(buf));
  bump(pool.cell.recycled);
  pool.cell.pooled_buffers.store(pool.buffers.size(),
                                 std::memory_order_relaxed);
  pool.cell.pooled_bytes.store(pool.pooled_bytes, std::memory_order_relaxed);
}

BufferPoolCounters buffer_pool_counters() noexcept {
  auto& reg = registry();
  const MutexLock lock(reg.mutex);
  BufferPoolCounters total = reg.retired;
  for (const CounterCell* cell : reg.live) {
    total.hits += cell->hits.load(std::memory_order_relaxed);
    total.misses += cell->misses.load(std::memory_order_relaxed);
    total.recycled += cell->recycled.load(std::memory_order_relaxed);
    total.evicted += cell->evicted.load(std::memory_order_relaxed);
    total.evicted_bytes +=
        cell->evicted_bytes.load(std::memory_order_relaxed);
    total.shelf_returns +=
        cell->shelf_returns.load(std::memory_order_relaxed);
    total.shelf_refills +=
        cell->shelf_refills.load(std::memory_order_relaxed);
    total.pooled_buffers +=
        cell->pooled_buffers.load(std::memory_order_relaxed);
    total.pooled_bytes += cell->pooled_bytes.load(std::memory_order_relaxed);
  }
  {
    Shelf& s = shelf();
    const MutexLock shelf_lock(s.mutex);
    total.shelf_buffers = s.buffers.size();
    total.shelf_bytes = s.bytes;
  }
  return total;
}

std::size_t drain_buffer_shelf() noexcept {
  Shelf& s = shelf();
  const MutexLock lock(s.mutex);
  const std::size_t dropped = s.buffers.size();
  s.buffers.clear();  // keeps the reserved slot capacity, frees the storage
  s.bytes = 0;
  return dropped;
}

}  // namespace km
