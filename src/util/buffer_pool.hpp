// Thread-local recycling of byte buffers, with a shared return channel.
//
// The message plane allocates byte buffers (Writer storage, one inbox
// arena per receiver per superstep, unframed payloads) and frees them
// when the last PayloadRef drops; at millions of messages per second
// that allocator churn dominates.  acquire_buffer()/recycle_buffer()
// keep a small per-thread free list of vectors so payload, Writer, and
// arena storage is reused across supersteps.  Buffers recycle into the
// pool of whichever thread releases them (typically the receiver), which
// matches the SPMD engine where every machine both sends and receives.
//
// Worker pools break the per-thread symmetry: with k machines multiplexed
// over W workers, an unframed payload's storage is acquired on the
// *sender's* worker (Writer::take) and released on the *receiver's*, so
// one worker's pool drains (every acquire a fresh allocation) while
// another's overflows (every recycle an eviction).  An inbox arena is
// acquired and, unless a slice of it is kept or forwarded, released on
// its receiver's own worker.  The shared shelf closes the loop: a
// recycle that overflows its local pool parks the buffer on a global
// mutex-protected shelf instead of freeing it, and an acquire that
// misses its local pool refills from the shelf before falling back to a
// fresh vector.  Shelf traffic only happens on the local miss/overflow
// paths — the hot hit/recycle paths never touch the mutex — and a dying
// worker flushes its remaining buffers to the shelf so capacities stay
// warm across engine runs.
//
// Every pool op also maintains counters so a workload can tell when it
// thrashes past the caps (256 buffers, 1 MiB per buffer, 1 MiB per
// thread; 1024 buffers / 1 MiB on the shelf; with the message plane's
// O(k) buffers per superstep, the byte caps are the ones that bind):
// buffer_pool_counters() aggregates the cumulative hit/miss/eviction/
// shelf counts across all threads (live and exited) plus the current
// occupancy of the live pools and the shelf.  The counters are
// per-thread cache lines updated with relaxed atomics, so the hot path
// never shares a line between threads; Engine::run snapshots them and
// reports the per-run delta through Metrics::summary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace km {

/// Cumulative buffer-pool activity (all threads) plus current occupancy
/// (live threads).  All counts are monotone except the two gauges.
struct BufferPoolCounters {
  std::uint64_t hits = 0;          ///< acquires served from a pool
  std::uint64_t misses = 0;        ///< acquires that fell through (fresh vector)
  std::uint64_t recycled = 0;      ///< recycles adopted into a pool
  std::uint64_t evicted = 0;       ///< recycles declined past the caps
  std::uint64_t evicted_bytes = 0; ///< capacity bytes freed by those declines
  std::uint64_t shelf_returns = 0; ///< local overflows parked on the shelf
  std::uint64_t shelf_refills = 0; ///< local misses served from the shelf
  std::uint64_t pooled_buffers = 0;  ///< gauge: buffers currently held
  std::uint64_t pooled_bytes = 0;    ///< gauge: capacity bytes currently held
  std::uint64_t shelf_buffers = 0;   ///< gauge: buffers on the shared shelf
  std::uint64_t shelf_bytes = 0;     ///< gauge: shelf capacity bytes

  /// Activity since `start` (cumulative fields subtract; gauges are
  /// carried over as-is, since occupancy is a point-in-time reading).
  BufferPoolCounters since(const BufferPoolCounters& start) const noexcept {
    BufferPoolCounters d = *this;
    d.hits -= start.hits;
    d.misses -= start.misses;
    d.recycled -= start.recycled;
    d.evicted -= start.evicted;
    d.evicted_bytes -= start.evicted_bytes;
    d.shelf_returns -= start.shelf_returns;
    d.shelf_refills -= start.shelf_refills;
    return d;
  }
};

/// Pops a recycled buffer (empty, capacity preserved) from the calling
/// thread's pool, refilling from the shared shelf when the local pool is
/// dry, or returns a fresh empty vector when both are.
std::vector<std::byte> acquire_buffer() noexcept;

/// Returns storage to the calling thread's pool.  Overflow beyond the
/// local caps is offered to the shared shelf (the cross-thread return
/// channel); oversized buffers and shelf overflow are freed (counted as
/// evictions).
void recycle_buffer(std::vector<std::byte>&& buf) noexcept;

/// Frees every buffer parked on the shared shelf and returns how many
/// were dropped.  For tests that assert exact per-op counter deltas (a
/// populated shelf turns their expected misses into refills) and for
/// callers that want the memory back.
std::size_t drain_buffer_shelf() noexcept;

/// Aggregated counters over every thread's pool: exited threads' activity
/// is folded into the total at thread exit; occupancy gauges cover live
/// pools only.
BufferPoolCounters buffer_pool_counters() noexcept;

}  // namespace km
