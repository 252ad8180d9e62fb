#include "sim/message.hpp"

#include "util/annotations.hpp"
#include "util/buffer_pool.hpp"

namespace km {
namespace detail {

namespace {

constexpr std::size_t kMaxPooledBufs = 1024;  // ~56 B each: tiny to hoard

// Per-thread counter cell for the PayloadBuf object pool, same shape as
// the byte pool's (util/buffer_pool.cpp): relaxed atomics on a
// thread-private cache line, so the acquire/recycle hot path pays a plain
// increment while payload_pool_counters() reads cross-thread race-free.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> recycled{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> pooled_objects{0};
};

// Live cells plus totals retired by exited threads.  The mutex guards
// registration, retirement, and the aggregate read — never the hot path.
struct Registry {
  Mutex mutex;
  std::vector<const CounterCell*> live KM_GUARDED_BY(mutex);
  // gauge stays 0: a dead pool holds nothing
  PayloadPoolCounters retired KM_GUARDED_BY(mutex);
};

Registry& counter_registry() noexcept {
  static Registry reg;
  return reg;
}

struct BufPool {
  BufPool() {
    free_list.reserve(kMaxPooledBufs);
    auto& reg = counter_registry();
    const MutexLock lock(reg.mutex);
    reg.live.push_back(&cell);
  }
  ~BufPool() {
    destroyed = true;
    for (PayloadBuf* buf : free_list) delete buf;
    auto& reg = counter_registry();
    const MutexLock lock(reg.mutex);
    reg.retired.hits += cell.hits.load(std::memory_order_relaxed);
    reg.retired.misses += cell.misses.load(std::memory_order_relaxed);
    reg.retired.recycled += cell.recycled.load(std::memory_order_relaxed);
    reg.retired.dropped += cell.dropped.load(std::memory_order_relaxed);
    std::erase(reg.live, &cell);
  }
  std::vector<PayloadBuf*> free_list;
  bool destroyed = false;
  CounterCell cell;
};

BufPool& local_buf_pool() noexcept {
  thread_local BufPool pool;
  return pool;
}

void bump(std::atomic<std::uint64_t>& counter) noexcept {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

PayloadBuf* acquire_payload_buf() {
  auto& pool = local_buf_pool();
  if (pool.destroyed || pool.free_list.empty()) {
    if (!pool.destroyed) bump(pool.cell.misses);
    return new PayloadBuf;
  }
  PayloadBuf* buf = pool.free_list.back();
  pool.free_list.pop_back();
  buf->refs.store(1, std::memory_order_relaxed);
  bump(pool.cell.hits);
  pool.cell.pooled_objects.store(pool.free_list.size(),
                                 std::memory_order_relaxed);
  return buf;
}

void recycle_payload_buf(PayloadBuf* buf) noexcept {
  // The byte storage rotates back to the Writer/payload byte pool so the
  // capacity is reused even when this PayloadBuf is not.  If the byte
  // pool declines (over its caps), the assignment below frees it — a
  // pooled PayloadBuf never hoards storage of its own.
  recycle_buffer(std::move(buf->bytes));
  buf->bytes = std::vector<std::byte>{};
  auto& pool = local_buf_pool();
  if (pool.destroyed || pool.free_list.size() >= kMaxPooledBufs) {
    if (!pool.destroyed) bump(pool.cell.dropped);
    delete buf;
    return;
  }
  pool.free_list.push_back(buf);  // never reallocates: reserved above
  bump(pool.cell.recycled);
  pool.cell.pooled_objects.store(pool.free_list.size(),
                                 std::memory_order_relaxed);
}

}  // namespace detail

PayloadPoolCounters payload_pool_counters() noexcept {
  auto& reg = detail::counter_registry();
  const MutexLock lock(reg.mutex);
  PayloadPoolCounters total = reg.retired;
  for (const auto* cell : reg.live) {
    total.hits += cell->hits.load(std::memory_order_relaxed);
    total.misses += cell->misses.load(std::memory_order_relaxed);
    total.recycled += cell->recycled.load(std::memory_order_relaxed);
    total.dropped += cell->dropped.load(std::memory_order_relaxed);
    total.pooled_objects +=
        cell->pooled_objects.load(std::memory_order_relaxed);
  }
  return total;
}

PayloadRef::PayloadRef(std::vector<std::byte> bytes) {
  if (bytes.empty()) {
    recycle_buffer(std::move(bytes));
    return;  // empty payload needs no owner; view_ stays empty
  }
  buf_ = detail::acquire_payload_buf();
  buf_->bytes = std::move(bytes);
  view_ = buf_->bytes;
}

detail::PayloadBuf* PayloadRef::share(std::vector<std::byte> bytes,
                                      std::size_t refs) {
  detail::PayloadBuf* buf = detail::acquire_payload_buf();
  buf->bytes = std::move(bytes);
  // Sole owner until the references are handed out: a plain store.
  buf->refs.store(refs, std::memory_order_relaxed);
  return buf;
}

PayloadRef PayloadRef::copy_of(std::span<const std::byte> bytes) {
  std::vector<std::byte> buf = acquire_buffer();
  buf.assign(bytes.begin(), bytes.end());
  return PayloadRef(std::move(buf));
}

}  // namespace km
