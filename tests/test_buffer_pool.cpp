// Tests for util/buffer_pool.hpp: recycling behaviour and the
// occupancy/overflow counters, including driving a pool past its three
// caps (256 buffers, 1 MiB per buffer, 1 MiB per thread) and asserting
// the overflow accounting — local overflow parks on the shared shelf
// (the cross-thread return channel), oversized buffers are evicted.  Also covers the PayloadBuf *object* pool
// (sim/message.cpp, 1024 objects per thread) and its counters, driven
// through the PayloadRef lifecycle.  Cap arithmetic needs a pool in a
// known-empty state, so cap tests run on a fresh thread (thread-local
// pools start empty); counters are global, and nothing else runs
// concurrently here.
#include "util/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace km {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

// Runs `body` on a brand-new thread, whose thread-local pool starts
// empty, and joins it so all counter updates are visible.
template <typename F>
void on_fresh_thread(F&& body) {
  std::thread t(std::forward<F>(body));
  t.join();
}

TEST(BufferPool, MissRecycleHitRoundTrip) {
  on_fresh_thread([] {
    drain_buffer_shelf();  // a populated shelf would turn the miss below
                           // into a refill
    const auto before = buffer_pool_counters();
    std::vector<std::byte> buf = acquire_buffer();  // fresh pool: a miss
    EXPECT_EQ(buf.capacity(), 0u);
    buf.reserve(512);
    recycle_buffer(std::move(buf));                 // adopted
    std::vector<std::byte> again = acquire_buffer();  // served from pool
    EXPECT_GE(again.capacity(), 512u);
    EXPECT_TRUE(again.empty()) << "recycled buffers come back cleared";
    const auto d = buffer_pool_counters().since(before);
    EXPECT_EQ(d.misses, 1u);
    EXPECT_EQ(d.recycled, 1u);
    EXPECT_EQ(d.hits, 1u);
    EXPECT_EQ(d.evicted, 0u);
  });
}

TEST(BufferPool, EmptyBuffersAreNotAccounted) {
  on_fresh_thread([] {
    const auto before = buffer_pool_counters();
    recycle_buffer(std::vector<std::byte>{});  // no storage changes hands
    const auto d = buffer_pool_counters().since(before);
    EXPECT_EQ(d.recycled, 0u);
    EXPECT_EQ(d.evicted, 0u);
  });
}

TEST(BufferPool, OversizedBufferIsEvicted) {
  on_fresh_thread([] {
    const auto before = buffer_pool_counters();
    std::vector<std::byte> big;
    big.reserve(kMiB + 1);  // just past the 1 MiB per-buffer cap
    recycle_buffer(std::move(big));
    const auto d = buffer_pool_counters().since(before);
    EXPECT_EQ(d.recycled, 0u);
    EXPECT_EQ(d.evicted, 1u);
    EXPECT_GE(d.evicted_bytes, kMiB + 1);
  });
}

TEST(BufferPool, TotalBytesCapOverflowsToShelf) {
  on_fresh_thread([] {
    drain_buffer_shelf();
    const auto before = buffer_pool_counters();
    // Nine 128 KiB buffers against the 1 MiB per-thread cap: the first
    // eight are adopted locally, the ninth parks on the shared shelf.
    for (int i = 0; i < 9; ++i) {
      std::vector<std::byte> buf;
      buf.reserve(kMiB / 8);
      recycle_buffer(std::move(buf));
    }
    const auto after = buffer_pool_counters();
    const auto d = after.since(before);
    EXPECT_EQ(d.recycled, 8u);
    EXPECT_EQ(d.shelf_returns, 1u);
    EXPECT_EQ(d.evicted, 0u);
    // Occupancy gauges see this thread's pool while it is alive, and the
    // overflow buffer on the shelf.
    EXPECT_GE(after.pooled_bytes, before.pooled_bytes + kMiB);
    EXPECT_GE(after.pooled_buffers, before.pooled_buffers + 8);
    EXPECT_GE(after.shelf_bytes, kMiB / 8);
  });
  // The fresh thread exited: its cumulative activity was folded into the
  // totals, and its pooled buffers were flushed to the shelf so their
  // capacities survive the thread, up to the shelf's own 1 MiB cap (seven
  // of the eight fit beside the overflow buffer).
  const auto total = buffer_pool_counters();
  EXPECT_GE(total.recycled, 8u);
  EXPECT_EQ(total.shelf_bytes, kMiB);
}

TEST(BufferPool, BufferCountCapOverflowsToShelf) {
  on_fresh_thread([] {
    drain_buffer_shelf();
    const auto before = buffer_pool_counters();
    // 300 tiny buffers against the 256-buffer cap: the overflow parks on
    // the shelf instead of being freed.
    for (int i = 0; i < 300; ++i) {
      std::vector<std::byte> buf;
      buf.reserve(64);
      recycle_buffer(std::move(buf));
    }
    const auto d = buffer_pool_counters().since(before);
    EXPECT_EQ(d.recycled, 256u);
    EXPECT_EQ(d.shelf_returns, 44u);
    EXPECT_EQ(d.evicted, 0u);
    EXPECT_EQ(d.evicted_bytes, 0u);
  });
}

TEST(BufferPool, ShelfMovesCapacityAcrossThreads) {
  // The worker-pool pattern: one thread releases more buffers than its
  // local pool holds (the receiver), another thread acquires with a cold
  // local pool (the sender).  The shelf must hand the capacities across.
  drain_buffer_shelf();
  on_fresh_thread([] {
    for (int i = 0; i < 300; ++i) {
      std::vector<std::byte> buf;
      buf.reserve(512);
      recycle_buffer(std::move(buf));
    }
  });  // thread exit also flushes the 256 locally pooled buffers
  const auto mid = buffer_pool_counters();
  EXPECT_GE(mid.shelf_buffers, 300u);
  on_fresh_thread([] {
    const auto before = buffer_pool_counters();
    std::vector<std::byte> warm = acquire_buffer();
    EXPECT_GE(warm.capacity(), 512u) << "capacity must arrive via the shelf";
    EXPECT_TRUE(warm.empty());
    const auto d = buffer_pool_counters().since(before);
    EXPECT_EQ(d.shelf_refills, 1u);
    EXPECT_EQ(d.misses, 0u);
  });
  EXPECT_GT(drain_buffer_shelf(), 0u);
  EXPECT_EQ(buffer_pool_counters().shelf_buffers, 0u);
}

// ---------------------------------------------------------------------------
// PayloadBuf object pool (sim/message.cpp)
// ---------------------------------------------------------------------------

// Non-empty payload bytes, so the PayloadRef really acquires a buffer
// object (empty payloads are ownerless by design).
PayloadRef make_payload(std::size_t len = 1) {
  return PayloadRef(std::vector<std::byte>(len, std::byte{0x5a}));
}

TEST(BufferPool, PayloadPoolMissRecycleHitRoundTrip) {
  on_fresh_thread([] {
    const auto before = payload_pool_counters();
    {
      const PayloadRef ref = make_payload();  // fresh pool: a miss
      const auto mid = payload_pool_counters().since(before);
      EXPECT_EQ(mid.misses, 1u);
      EXPECT_EQ(mid.hits, 0u);
    }  // last ref dropped: the object is adopted back
    {
      const PayloadRef ref = make_payload();  // served from the free list
      const auto mid = payload_pool_counters().since(before);
      EXPECT_EQ(mid.hits, 1u);
      EXPECT_EQ(mid.misses, 1u);
    }
    const auto d = payload_pool_counters().since(before);
    EXPECT_EQ(d.recycled, 2u);
    EXPECT_EQ(d.dropped, 0u);
  });
}

TEST(BufferPool, PayloadPoolSharedRefsReleaseOneObject) {
  on_fresh_thread([] {
    const auto before = payload_pool_counters();
    {
      const PayloadRef a = make_payload(8);
      const PayloadRef b = a;           // shares the buffer object
      const PayloadRef c = a.slice(2, 4);
      EXPECT_TRUE(b.shares_buffer_with(c));
    }
    const auto d = payload_pool_counters().since(before);
    EXPECT_EQ(d.misses, 1u) << "three refs, one underlying object";
    EXPECT_EQ(d.recycled, 1u) << "one object comes back when the last "
                                 "ref drops";
  });
}

TEST(BufferPool, PayloadPoolObjectCapDropsOverflow) {
  on_fresh_thread([] {
    constexpr std::size_t kCap = 1024;  // kMaxPooledBufs in message.cpp
    constexpr std::size_t kLive = kCap + 100;
    const auto before = payload_pool_counters();
    {
      std::vector<PayloadRef> live;
      live.reserve(kLive);
      for (std::size_t i = 0; i < kLive; ++i) live.push_back(make_payload());
    }  // 1124 objects die at once: 1024 adopted, 100 dropped
    const auto d = payload_pool_counters().since(before);
    EXPECT_EQ(d.misses, kLive);
    EXPECT_EQ(d.recycled, kCap);
    EXPECT_EQ(d.dropped, kLive - kCap);
    // Occupancy gauge sees this thread's full free list while alive.
    EXPECT_GE(payload_pool_counters().pooled_objects,
              before.pooled_objects + kCap);
  });
  // The fresh thread exited: its gauge contribution is gone, but the
  // cumulative activity was folded into the totals at thread exit.
  EXPECT_GE(payload_pool_counters().recycled, 1024u);
}

TEST(BufferPool, EngineRunReportsPoolDelta) {
  // The engine snapshots the counters around a run and surfaces the
  // delta through Metrics: a message-heavy run must show pool traffic,
  // and the summary must carry the counters.
  Engine engine(4, {.bandwidth_bits = 1 << 14, .seed = 3});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    for (int step = 0; step < 8; ++step) {
      Writer w;
      for (int i = 0; i < 64; ++i) w.put_varint(static_cast<unsigned>(i));
      ctx.broadcast(1, w);
      ctx.exchange();
    }
  });
  EXPECT_GT(metrics.pool.hits + metrics.pool.misses, 0u);
  EXPECT_GT(metrics.payload_pool.hits + metrics.payload_pool.misses, 0u)
      << "a broadcast-heavy run must create payload objects";
  const std::string summary = metrics.summary();
  EXPECT_NE(summary.find("pool_hits="), std::string::npos) << summary;
  EXPECT_NE(summary.find("pool_evicted_bytes="), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("payload_pool_hits="), std::string::npos) << summary;
  EXPECT_NE(summary.find("payload_pool_dropped="), std::string::npos)
      << summary;
}

}  // namespace
}  // namespace km
