// Determinism and ordering guarantees of the two-phase exchange protocol
// (sim/engine.hpp), plus the PayloadRef sharing semantics it relies on.
// The interesting failures here are schedule-dependent, so several tests
// repeat runs with deliberate timing jitter; the CI tsan job runs this
// binary under ThreadSanitizer to certify the lock-free delivery path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>

#include "sim/engine.hpp"
#include "util/hash.hpp"

namespace km {
namespace {

std::uint64_t value_of(const Message& m) {
  Reader r(m.payload);
  return r.get_varint();
}

TEST(ExchangeOrder, GroupedByAscendingSourceUnderScheduleJitter) {
  // Every machine sends 3 messages to every peer; receivers must see them
  // grouped by ascending src with send order preserved inside a group,
  // no matter how the threads are scheduled.  Jitter each machine's
  // arrival at the barrier to shake out schedule dependence.
  constexpr std::size_t kMachines = 8;
  for (int trial = 0; trial < 5; ++trial) {
    Engine engine(kMachines,
                  {.bandwidth_bits = 1 << 16,
                   .seed = static_cast<std::uint64_t>(trial + 1)});
    engine.run([&](MachineContext& ctx) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(ctx.rng().below(200)));
      for (std::size_t dst = 0; dst < kMachines; ++dst) {
        if (dst == ctx.id()) continue;
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          Writer w;
          w.put_varint(seq);
          ctx.send(dst, 1, w);
        }
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(ctx.rng().below(200)));
      const auto in = ctx.exchange();
      ASSERT_EQ(in.size(), 3 * (kMachines - 1));
      for (std::size_t i = 0; i < in.size(); ++i) {
        const std::size_t group = i / 3;
        // Sources ascend, skipping ourselves.
        const std::size_t want_src = group + (group >= ctx.id() ? 1 : 0);
        EXPECT_EQ(in[i].src, want_src) << "position " << i;
        EXPECT_EQ(value_of(in[i]), i % 3) << "send order inside group";
      }
    });
  }
}

TEST(ExchangeOrder, StashedCollectiveLeftoversPreserveOrder) {
  // Messages sent in the same superstep as a collective are stashed and
  // must come back first, in their original delivery order, followed by
  // the next superstep's traffic.
  constexpr std::size_t kMachines = 4;
  Engine engine(kMachines, {.bandwidth_bits = 1 << 16, .seed = 9});
  engine.run([&](MachineContext& ctx) {
    for (std::size_t dst = 0; dst < kMachines; ++dst) {
      if (dst == ctx.id()) continue;
      for (std::uint64_t seq = 0; seq < 2; ++seq) {
        Writer w;
        w.put_varint(100 + seq);
        ctx.send(dst, 7, w);
      }
    }
    EXPECT_EQ(ctx.all_reduce_sum(1), kMachines);
    // Second wave, delivered by the exchange below.
    for (std::size_t dst = 0; dst < kMachines; ++dst) {
      if (dst == ctx.id()) continue;
      Writer w;
      w.put_varint(200);
      ctx.send(dst, 8, w);
    }
    const auto in = ctx.exchange();
    ASSERT_EQ(in.size(), 3 * (kMachines - 1));
    // Stash first (two per source, ascending src, send order kept), then
    // the new wave (one per source, ascending src).
    for (std::size_t i = 0; i < 2 * (kMachines - 1); ++i) {
      EXPECT_EQ(in[i].tag, 7u) << "stash must come first, position " << i;
      EXPECT_EQ(value_of(in[i]), 100 + i % 2);
    }
    for (std::size_t i = 2 * (kMachines - 1); i < in.size(); ++i) {
      EXPECT_EQ(in[i].tag, 8u);
      EXPECT_EQ(value_of(in[i]), 200u);
    }
    std::vector<std::uint32_t> stash_srcs, wave_srcs;
    for (const auto& m : in) {
      (m.tag == 7 ? stash_srcs : wave_srcs).push_back(m.src);
    }
    EXPECT_TRUE(std::is_sorted(stash_srcs.begin(), stash_srcs.end()));
    EXPECT_TRUE(std::is_sorted(wave_srcs.begin(), wave_srcs.end()));
  });
}

TEST(ExchangeOrder, BroadcastSharesOneImmutableBuffer) {
  // Zero-copy: all k-1 receivers of a broadcast must observe the very
  // same underlying buffer, and the bytes must equal what was written
  // (no receiver can have scribbled on another's view — payloads are
  // immutable by construction).
  constexpr std::size_t kMachines = 6;
  Engine engine(kMachines, {.bandwidth_bits = 1 << 16, .seed = 11});
  std::vector<PayloadRef> seen(kMachines);  // from machine 0's broadcast
  engine.run([&](MachineContext& ctx) {
    Writer w;
    for (int i = 0; i < 64; ++i) w.put_varint(ctx.id() * 64 + i);
    ctx.broadcast(5, w);
    for (auto& msg : ctx.exchange()) {
      if (msg.src == 0) seen[ctx.id()] = msg.payload;
    }
  });
  const PayloadRef& first = seen[1];
  ASSERT_FALSE(first.empty());
  Reader check(first);
  EXPECT_EQ(check.get_varint(), 0u);  // machine 0's first value
  for (std::size_t id = 2; id < kMachines; ++id) {
    EXPECT_TRUE(seen[id].shares_buffer_with(first))
        << "receiver " << id << " got a private copy";
    EXPECT_EQ(seen[id].data(), first.data());
    EXPECT_EQ(seen[id].size(), first.size());
  }
}

TEST(ExchangeOrder, MetricsIdenticalAcrossJitteredRuns) {
  // The accounting must be a pure function of the program, not of the
  // schedule: jittered runs produce bit-identical metrics.
  auto run_once = [](std::uint64_t jitter_seed) {
    Engine engine(6, {.bandwidth_bits = 128, .seed = 42});
    return engine.run([&](MachineContext& ctx) {
      // Timing jitter comes from a seed the engine does not see, so the
      // two runs sleep differently but must account identically.
      Rng jitter(jitter_seed, ctx.id());
      for (int step = 0; step < 4; ++step) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(jitter.below(150)));
        const auto peers = ctx.rng().below(5);
        for (std::uint64_t i = 0; i < peers; ++i) {
          Writer w;
          w.put_varint(step * 100 + i);
          ctx.send((ctx.id() + 1 + i) % 6, 1, w);
        }
        ctx.exchange();
      }
    });
  };
  const auto a = run_once(1);
  const auto b = run_once(2);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.max_link_bits_superstep, b.max_link_bits_superstep);
  EXPECT_EQ(a.send_bits_per_machine, b.send_bits_per_machine);
  EXPECT_EQ(a.recv_bits_per_machine, b.recv_bits_per_machine);
}

TEST(PayloadRef, TakesOwnershipAndViews) {
  Writer w;
  w.put_u32(0xdeadbeef);
  PayloadRef ref(w.take());
  EXPECT_EQ(ref.size(), 4u);
  Reader r(ref);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_FALSE(ref.empty());
}

TEST(PayloadRef, CopiesShareTheBuffer) {
  PayloadRef a(std::vector<std::byte>(16, std::byte{0x7f}));
  const PayloadRef b = a;          // NOLINT(performance-unnecessary-copy)
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_EQ(a.data(), b.data());
  const PayloadRef c = PayloadRef::copy_of(a.view());
  EXPECT_FALSE(c.shares_buffer_with(a));  // deep copy: distinct buffer
  EXPECT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end()));
}

TEST(PayloadRef, SuffixIsZeroCopy) {
  Writer w;
  w.put_varint(3);          // 1 byte header
  w.put_u64(0x0123456789abcdefULL);
  PayloadRef whole(w.take());
  const PayloadRef tail = whole.suffix(1);
  EXPECT_TRUE(tail.shares_buffer_with(whole));
  EXPECT_EQ(tail.data(), whole.data() + 1);
  EXPECT_EQ(tail.size(), whole.size() - 1);
  Reader r(tail);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  // Clamped past the end: empty view, still shares ownership.
  EXPECT_EQ(whole.suffix(1000).size(), 0u);
}

TEST(PayloadRef, EmptyPayloadHasNoOwner) {
  PayloadRef a;
  PayloadRef b(std::vector<std::byte>{});
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(a.shares_buffer_with(b));
  EXPECT_EQ(Message{}.size_bits(), Message::kHeaderBits);
}

// ---------------------------------------------------------------------------
// Small-message framing: sender slabs and receiver inbox arenas
// ---------------------------------------------------------------------------

// The framing threshold follows from B (framed_payload_default_bytes in
// sim/message.hpp); most framing tests run at this bandwidth, whose
// threshold is 256 bytes.
constexpr std::uint64_t kTestBandwidth = 2048;
constexpr std::size_t kTestFrameBytes =
    framed_payload_default_bytes(kTestBandwidth);
static_assert(kTestFrameBytes == 256);

// Sender and receiver independently recompute each link's message plan
// from pure hashes, so the receiver can verify counts, order, and bytes
// with no shared state.  Sizes deliberately straddle kTestFrameBytes so
// framed and unframed messages interleave on every link, and each
// message picks one of the four send overloads: the three copying ones
// mix on both sides of the framing split, and PayloadRef sends are
// never framed whatever their size.
enum class SendOverload { kWriter, kVector, kSpan, kRef };

struct PlannedMessage {
  std::size_t size;
  std::uint64_t seed;

  SendOverload overload() const {
    return static_cast<SendOverload>(seed % 4);
  }
  bool framed(std::uint64_t bandwidth) const {
    return overload() != SendOverload::kRef &&
           size <= framed_payload_default_bytes(bandwidth);
  }
};

std::vector<PlannedMessage> link_plan(std::uint64_t trial, int step,
                                      std::size_t src, std::size_t dst) {
  Rng plan(mix64(trial * 7919 + static_cast<std::uint64_t>(step),
                 src * 4099 + dst));
  static constexpr std::size_t kSizes[] = {0,   1,   7,   33,  128,
                                           255, 256, 257, 300, 600};
  std::vector<PlannedMessage> out(plan.below(5));
  for (auto& m : out) {
    m.size = kSizes[plan.below(std::size(kSizes))];
    m.seed = plan.next();
  }
  return out;
}

std::vector<std::byte> pattern_bytes(std::uint64_t seed, std::size_t len) {
  Rng g(seed);
  std::vector<std::byte> bytes(len);
  for (auto& b : bytes) b = static_cast<std::byte>(g.next() & 0xff);
  return bytes;
}

// Which collective, if any, a superstep of a trial runs next to its
// planned sends.  The last superstep never runs one, so every stashed
// message is delivered by the end of the program.
enum class Collective { kNone, kAllGather, kAllReduceSum };

Collective collective_at(std::uint64_t trial, int step, int supersteps) {
  if (step == supersteps - 1) return Collective::kNone;
  return static_cast<Collective>((trial + static_cast<std::uint64_t>(step)) %
                                 3);
}

/// Machine `id`'s collective contribution at `step`: shifted right by up
/// to 56 bits, so its varint takes 1 to 10 bytes across machines.
std::uint64_t collective_value(std::uint64_t trial, int step, std::size_t id) {
  return mix64(trial * 131 + static_cast<std::uint64_t>(step), id) >>
         (8 * (id % 8));
}

// The frame batching property test: random message sizes/counts per
// link, several supersteps, at one bandwidth (and so one framing
// threshold).  Delivery must preserve ascending source and per-link send
// order with exact bytes, and every superstep's rounds/bits/max_link_bits
// must equal the *unbatched* formula (sum per message of kHeaderBits +
// 8 * payload), i.e. batching is invisible to the cost model — whatever
// the threshold and whichever send overload carried each message.  Some
// supersteps run all_gather or all_reduce_sum next to the planned sends:
// the collective charges each link one message of its source's varint,
// and the planned messages come back from the next exchange(), after
// the ones stashed before them, in (source, send) order.
void run_framing_property_trial(std::uint64_t trial, std::uint64_t bandwidth) {
  constexpr std::size_t kMachines = 6;
  constexpr int kSupersteps = 4;
  {
    // The plans must put PayloadRef sends (unframed by type) first, in
    // the middle and last among framed messages on some link, so the
    // delivery interleave is exercised at every position.
    const auto framed = [&](const PlannedMessage& m) {
      return m.framed(bandwidth);
    };
    std::size_t ref_first = 0, ref_middle = 0, ref_last = 0;
    for (int step = 0; step < kSupersteps; ++step) {
      for (std::size_t src = 0; src < kMachines; ++src) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (src == dst) continue;
          const auto plan = link_plan(trial, step, src, dst);
          for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].overload() != SendOverload::kRef) continue;
            const bool before =
                std::any_of(plan.begin(), plan.begin() + i, framed);
            const bool after =
                std::any_of(plan.begin() + i + 1, plan.end(), framed);
            ref_first += !before && after;
            ref_middle += before && after;
            ref_last += before && !after;
          }
        }
      }
    }
    ASSERT_GT(ref_first, 0u) << "B=" << bandwidth;
    ASSERT_GT(ref_middle, 0u) << "B=" << bandwidth;
    ASSERT_GT(ref_last, 0u) << "B=" << bandwidth;
  }
  {
    Engine engine(kMachines, {.bandwidth_bits = bandwidth,
                              .seed = trial,
                              .record_timeline = true});
    const auto metrics = engine.run([&](MachineContext& ctx) {
      std::vector<int> pending;  // supersteps whose sends are still stashed
      for (int step = 0; step < kSupersteps; ++step) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (dst == ctx.id()) continue;
          for (const auto& m : link_plan(trial, step, ctx.id(), dst)) {
            const auto tag = static_cast<std::uint16_t>(m.size % 7);
            std::vector<std::byte> bytes = pattern_bytes(m.seed, m.size);
            switch (m.overload()) {
              case SendOverload::kWriter: {
                Writer w;
                w.put_bytes(bytes);
                ctx.send(dst, tag, w);
                break;
              }
              case SendOverload::kVector:
                ctx.send(dst, tag, std::move(bytes));
                break;
              case SendOverload::kSpan:
                ctx.send(dst, tag, std::span<const std::byte>(bytes));
                break;
              case SendOverload::kRef:
                ctx.send(dst, tag, PayloadRef(std::move(bytes)));
                break;
            }
          }
        }
        pending.push_back(step);
        const Collective collective =
            collective_at(trial, step, kSupersteps);
        if (collective != Collective::kNone) {
          const std::uint64_t mine = collective_value(trial, step, ctx.id());
          std::uint64_t sum = 0;
          for (std::size_t id = 0; id < kMachines; ++id) {
            sum += collective_value(trial, step, id);
          }
          if (collective == Collective::kAllGather) {
            const auto values = ctx.all_gather(mine);
            ASSERT_EQ(values.size(), kMachines);
            for (std::size_t id = 0; id < kMachines; ++id) {
              ASSERT_EQ(values[id], collective_value(trial, step, id));
            }
          } else {
            ASSERT_EQ(ctx.all_reduce_sum(mine), sum);
          }
          continue;  // the planned messages wait in the stash
        }
        const auto in = ctx.exchange();
        // Expected inbox: the stashed supersteps' messages, then this
        // one's; each in ascending src, send order within each src.
        std::size_t pos = 0;
        for (const int sent : pending) {
          for (std::size_t src = 0; src < kMachines; ++src) {
            if (src == ctx.id()) continue;
            for (const auto& m : link_plan(trial, sent, src, ctx.id())) {
              ASSERT_LT(pos, in.size());
              const Message& got = in[pos++];
              ASSERT_EQ(got.src, src);
              ASSERT_EQ(got.tag, static_cast<std::uint16_t>(m.size % 7));
              ASSERT_EQ(got.payload.size(), m.size);
              const auto want = pattern_bytes(m.seed, m.size);
              ASSERT_TRUE(std::equal(want.begin(), want.end(),
                                     got.payload.begin(), got.payload.end()))
                  << "payload bytes corrupted (src=" << src
                  << " size=" << m.size << ")";
            }
          }
        }
        ASSERT_EQ(pos, in.size()) << "unexpected extra messages";
        pending.clear();
      }
    });
    // Recompute the unbatched formula from the plans and the collectives'
    // values and compare the per-superstep timeline and the per-machine
    // totals bit for bit.
    ASSERT_EQ(metrics.timeline.size(),
              static_cast<std::size_t>(kSupersteps));
    std::vector<std::uint64_t> send_bits(kMachines, 0);
    std::vector<std::uint64_t> recv_bits(kMachines, 0);
    std::uint64_t total_msgs = 0, total_bits = 0;
    for (int step = 0; step < kSupersteps; ++step) {
      const bool collective =
          collective_at(trial, step, kSupersteps) != Collective::kNone;
      std::uint64_t bits = 0, msgs = 0, max_link = 0;
      for (std::size_t src = 0; src < kMachines; ++src) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (src == dst) continue;
          std::uint64_t link_bits = 0;
          for (const auto& m : link_plan(trial, step, src, dst)) {
            link_bits += Message::kHeaderBits + 8 * m.size;
            ++msgs;
          }
          if (collective) {
            link_bits +=
                Message::kHeaderBits +
                8 * varint_size(collective_value(trial, step, src));
            ++msgs;
          }
          bits += link_bits;
          max_link = std::max(max_link, link_bits);
          send_bits[src] += link_bits;
          recv_bits[dst] += link_bits;
        }
      }
      total_msgs += msgs;
      total_bits += bits;
      const auto& t = metrics.timeline[static_cast<std::size_t>(step)];
      EXPECT_EQ(t.messages, msgs) << "step " << step;
      EXPECT_EQ(t.bits, bits) << "step " << step;
      EXPECT_EQ(t.max_link_bits, max_link) << "step " << step;
      const std::uint64_t rounds =
          msgs == 0 ? 0
                    : std::max<std::uint64_t>(
                          1, (max_link + bandwidth - 1) / bandwidth);
      EXPECT_EQ(t.rounds, rounds) << "step " << step;
    }
    EXPECT_EQ(metrics.messages, total_msgs);
    EXPECT_EQ(metrics.bits, total_bits);
    EXPECT_EQ(metrics.send_bits_per_machine, send_bits);
    EXPECT_EQ(metrics.recv_bits_per_machine, recv_bits);
    EXPECT_EQ(metrics.dropped_messages, 0u);
  }
}

TEST(Framing, RandomSizesMatchUnbatchedAccountingAndOrder) {
  for (std::uint64_t trial = 1; trial <= 3; ++trial) {
    run_framing_property_trial(trial, kTestBandwidth);
  }
}

TEST(Framing, ThresholdSweepKeepsUnbatchedAccounting) {
  // The framing threshold is a pure transport policy: the same property
  // must hold at the floor (B=8: threshold 64, most planned sizes ride
  // unframed), at 256 (B=2048), at 1024 (B=8192: every planned size is
  // framed) and at the ceiling (B=2^20: threshold 4096).
  for (const std::uint64_t bandwidth :
       {std::uint64_t{8}, std::uint64_t{2048}, std::uint64_t{8192},
        std::uint64_t{1} << 20}) {
    run_framing_property_trial(/*trial=*/7, bandwidth);
  }
}

TEST(Framing, AutoThresholdDerivesFromBandwidth) {
  // The threshold is one round's worth of bytes, clamped: B/8 inside
  // [kFramedPayloadMinDefaultBytes, kFramedPayloadMaxDefaultBytes].
  EXPECT_EQ(framed_payload_default_bytes(2048), 256u);
  EXPECT_EQ(framed_payload_default_bytes(1600), 200u);  // B = 16 * 10^2
  EXPECT_EQ(framed_payload_default_bytes(0), kFramedPayloadMinDefaultBytes);
  EXPECT_EQ(framed_payload_default_bytes(8), kFramedPayloadMinDefaultBytes);
  EXPECT_EQ(framed_payload_default_bytes(8192), 1024u);
  EXPECT_EQ(framed_payload_default_bytes(1u << 20),
            kFramedPayloadMaxDefaultBytes);
}

TEST(Framing, BandwidthControlsTransportSharing) {
  // Observable transport effect of B: payloads of 300 bytes ride the
  // shared per-link frame at B=8192 (threshold 1024) and not at B=2048
  // (threshold 256) — while bits, messages and link loads stay equal.
  constexpr std::size_t kPayload = 300;
  std::vector<Metrics> all;
  for (const std::uint64_t bandwidth :
       {std::uint64_t{2048}, std::uint64_t{8192}}) {
    Engine engine(2, {.bandwidth_bits = bandwidth,
                      .seed = 11,
                      .record_timeline = true});
    all.push_back(engine.run([&](MachineContext& ctx) {
      for (int i = 0; i < 3; ++i) {
        Writer w;
        w.put_bytes(std::vector<std::byte>(kPayload, std::byte{0x7e}));
        ctx.send(1 - ctx.id(), 1, w);
      }
      const auto in = ctx.exchange();
      ASSERT_EQ(in.size(), 3u);
      const bool expect_shared =
          framed_payload_default_bytes(bandwidth) >= kPayload;
      // A link's first message rides the frame like the ones after it.
      EXPECT_EQ(in[0].payload.shares_buffer_with(in[1].payload),
                expect_shared)
          << "B=" << bandwidth;
      EXPECT_EQ(in[1].payload.shares_buffer_with(in[2].payload),
                expect_shared)
          << "B=" << bandwidth;
      for (const Message& msg : in) {
        ASSERT_EQ(msg.payload.size(), kPayload);
        for (const std::byte b : msg.payload) {
          ASSERT_EQ(b, std::byte{0x7e});
        }
      }
    }));
  }
  EXPECT_EQ(all[1].messages, all[0].messages);
  EXPECT_EQ(all[1].bits, all[0].bits);
  EXPECT_EQ(all[1].max_link_bits_superstep, all[0].max_link_bits_superstep);
}

TEST(Framing, SmallPayloadsShareTheInboxArena) {
  // Transport-level zero-copy: every small message a machine receives in
  // a superstep, a link's first included and whichever source sent it,
  // is a slice of one inbox arena, and a payload past the framing
  // threshold always gets its own buffer.
  Engine engine(3, {.bandwidth_bits = kTestBandwidth, .seed = 5});
  engine.run([&](MachineContext& ctx) {
    if (ctx.id() == 0) {
      for (std::uint64_t i = 0; i < 3; ++i) {
        Writer w;
        w.put_varint(i);
        ctx.send(1, 1, w);
      }
      Writer big;
      big.put_bytes(std::vector<std::byte>(kTestFrameBytes + 1,
                                           std::byte{0x42}));
      ctx.send(1, 2, big);
    } else if (ctx.id() == 2) {
      for (std::uint64_t i = 10; i < 12; ++i) {
        Writer w;
        w.put_varint(i);
        ctx.send(1, 3, w);
      }
    }
    const auto in = ctx.exchange();
    if (ctx.id() == 1) {
      ASSERT_EQ(in.size(), 6u);
      EXPECT_TRUE(in[0].payload.shares_buffer_with(in[1].payload))
          << "a link's first small message shares the inbox arena";
      EXPECT_TRUE(in[1].payload.shares_buffer_with(in[2].payload))
          << "later small messages share the inbox arena";
      EXPECT_FALSE(in[3].payload.shares_buffer_with(in[1].payload))
          << "oversized payloads must not ride the arena";
      for (std::uint64_t i = 0; i < 3; ++i) {
        Reader r(in[i].payload);
        EXPECT_EQ(r.get_varint(), i);
      }
      EXPECT_EQ(in[3].payload.size(), kTestFrameBytes + 1);
      // The second sender's small messages land in the same arena.
      for (std::size_t i = 4; i < 6; ++i) {
        EXPECT_EQ(in[i].src, 2u);
        EXPECT_TRUE(in[i].payload.shares_buffer_with(in[0].payload))
            << "small messages from every source share one arena";
        Reader r(in[i].payload);
        EXPECT_EQ(r.get_varint(), 10 + (i - 4));
      }
    } else {
      EXPECT_TRUE(in.empty());
    }
  });
}

TEST(Framing, OneInboxArenaPerReceiverPerSuperstep) {
  // The message plane's buffer budget: a superstep costs one inbox
  // arena per receiver, however many links carry small messages, so 48
  // active links per machine over 8 supersteps take 8 * 64 payload
  // buffers, plus one per unframed send — not one per active link.
  constexpr std::size_t kMachines = 64;
  constexpr std::size_t kPeers = 48;
  constexpr int kSupersteps = 8;
  constexpr int kMixedStep = 3;  // superstep with the two unframed sends
  constexpr std::size_t kUnframedSends = 2;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    Engine engine(kMachines, {.bandwidth_bits = kTestBandwidth,
                              .seed = 12,
                              .workers = workers});
    const Metrics metrics = engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSupersteps; ++step) {
        for (std::size_t j = 1; j <= kPeers; ++j) {
          Writer w;
          w.put_varint(ctx.id() * 1000 + static_cast<std::size_t>(step));
          ctx.send((ctx.id() + j) % kMachines, 1, w);
        }
        if (step == kMixedStep && ctx.id() == 0) {
          Writer ref;
          ref.put_varint(7);
          ctx.send(1, 2, PayloadRef(ref.take()));
          Writer big;
          big.put_bytes(std::vector<std::byte>(kTestFrameBytes + 1,
                                               std::byte{0x42}));
          ctx.send(1, 3, big);
        }
        const auto in = ctx.exchange();
        const bool mixed = step == kMixedStep && ctx.id() == 1;
        ASSERT_EQ(in.size(), kPeers + (mixed ? kUnframedSends : 0));
        const Message* first_small = nullptr;
        std::size_t sources = 0;
        for (const Message& msg : in) {
          if (msg.tag != 1) {
            EXPECT_TRUE(mixed);
            continue;
          }
          if (first_small == nullptr) first_small = &msg;
          EXPECT_TRUE(msg.payload.shares_buffer_with(first_small->payload))
              << "src " << msg.src << " step " << step;
          Reader r(msg.payload);
          EXPECT_EQ(r.get_varint(),
                    msg.src * 1000 + static_cast<std::size_t>(step));
          ++sources;
        }
        EXPECT_EQ(sources, kPeers);
        if (mixed) {
          ASSERT_NE(first_small, nullptr);
          for (const Message& msg : in) {
            if (msg.tag == 1) continue;
            EXPECT_FALSE(msg.payload.shares_buffer_with(first_small->payload))
                << "unframed tag " << msg.tag << " rode the inbox arena";
          }
        }
      }
    });
    EXPECT_EQ(metrics.messages,
              kMachines * kPeers * kSupersteps + kUnframedSends);
    EXPECT_LE(metrics.payload_pool.hits + metrics.payload_pool.misses,
              kMachines * kSupersteps + kUnframedSends);
  }
}

TEST(Framing, RetainedPayloadSurvivesSlabReuse) {
  // Delivered payloads must own their bytes: machine 1 keeps what it got
  // in superstep 0 (one copied PayloadRef, one moved Message) and
  // forwards one to machine 2 as a PayloadRef, while every machine
  // keeps sending same-sized, different bytes for three more supersteps
  // so both parities of every sender's slab are refilled.  A delivery
  // that viewed the sender's slab would see those later bytes.
  constexpr std::size_t kMachines = 4;
  constexpr std::size_t kPayload = 24;
  const auto bytes_of = [](std::size_t src, int step) {
    return std::vector<std::byte>(
        kPayload, static_cast<std::byte>(0x10 * (step + 1) + src));
  };
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    PayloadRef kept_ref;
    Message kept_msg;
    PayloadRef forwarded;
    Engine engine(kMachines, {.bandwidth_bits = kTestBandwidth,
                              .seed = 13,
                              .workers = workers});
    engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < 4; ++step) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (dst == ctx.id()) continue;
          const std::vector<std::byte> bytes = bytes_of(ctx.id(), step);
          ctx.send(dst, 1, std::span<const std::byte>(bytes));
        }
        if (step == 1 && ctx.id() == 1) ctx.send(2, 2, kept_ref);
        auto in = ctx.exchange();
        if (step == 0 && ctx.id() == 1) {
          ASSERT_EQ(in.size(), kMachines - 1);
          kept_ref = in[0].payload;  // from machine 0
          kept_msg = std::move(in[2]);  // from machine 3
        }
        if (step == 1 && ctx.id() == 2) {
          // Three peers plus the forward, which follows machine 1's
          // small message on their link.
          ASSERT_EQ(in.size(), kMachines);
          ASSERT_EQ(in[2].tag, 2u);
          forwarded = in[2].payload;
        }
      }
      if (ctx.id() == 1) {
        EXPECT_TRUE(std::ranges::equal(kept_ref.view(), bytes_of(0, 0)));
        EXPECT_TRUE(std::ranges::equal(kept_msg.payload.view(),
                                       bytes_of(3, 0)));
      }
      if (ctx.id() == 2) {
        EXPECT_TRUE(std::ranges::equal(forwarded.view(), bytes_of(0, 0)));
      }
    });
    EXPECT_EQ(kept_msg.src, 3u);
    EXPECT_TRUE(std::ranges::equal(kept_ref.view(), bytes_of(0, 0)));
    EXPECT_TRUE(std::ranges::equal(kept_msg.payload.view(), bytes_of(3, 0)));
    EXPECT_TRUE(std::ranges::equal(forwarded.view(), bytes_of(0, 0)));
  }
}

TEST(Framing, EmptyAndThresholdBoundaryPayloads) {
  // Sizes 0, 1, exactly-at-threshold, and one-past-threshold all round-
  // trip, and total bits match the unbatched formula.
  const std::vector<std::size_t> sizes = {0, 1, kTestFrameBytes,
                                          kTestFrameBytes + 1};
  Engine engine(2, {.bandwidth_bits = kTestBandwidth, .seed = 6});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      Writer w;
      w.put_bytes(std::vector<std::byte>(sizes[i],
                                         std::byte{static_cast<unsigned char>(
                                             0x10 + i)}));
      ctx.send(1 - ctx.id(), static_cast<std::uint16_t>(i), w);
    }
    const auto in = ctx.exchange();
    ASSERT_EQ(in.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(in[i].tag, i);
      ASSERT_EQ(in[i].payload.size(), sizes[i]);
      for (const std::byte b : in[i].payload) {
        ASSERT_EQ(b, std::byte{static_cast<unsigned char>(0x10 + i)});
      }
    }
  });
  std::uint64_t want_bits = 0;
  for (const std::size_t s : sizes) {
    want_bits += 2 * (Message::kHeaderBits + 8 * s);  // both directions
  }
  EXPECT_EQ(metrics.bits, want_bits);
}

TEST(PayloadRef, SliceIsZeroCopy) {
  Writer w;
  for (std::uint8_t i = 0; i < 16; ++i) w.put_u8(i);
  PayloadRef whole(w.take());
  const PayloadRef mid = whole.slice(4, 8);
  EXPECT_TRUE(mid.shares_buffer_with(whole));
  EXPECT_EQ(mid.data(), whole.data() + 4);
  ASSERT_EQ(mid.size(), 8u);
  for (std::uint8_t i = 0; i < 8; ++i) {
    EXPECT_EQ(mid.view()[i], std::byte{static_cast<unsigned char>(i + 4)});
  }
  // Clamped: offset past the end is empty, length clamps to the view.
  EXPECT_EQ(whole.slice(100, 4).size(), 0u);
  EXPECT_EQ(whole.slice(12, 100).size(), 4u);
}

TEST(PayloadRef, OutlivesTheEngineRun) {
  // A receiver may keep payloads after the engine run tears down all
  // machine state; the ref count must keep the buffer alive.
  PayloadRef kept;
  {
    Engine engine(2, {.bandwidth_bits = 1 << 12, .seed = 3});
    engine.run([&](MachineContext& ctx) {
      Writer w;
      w.put_varint(77);
      ctx.send(1 - ctx.id(), 1, w);
      auto in = ctx.exchange();
      if (ctx.id() == 0) kept = in.at(0).payload;
    });
  }
  Reader r(kept);
  EXPECT_EQ(r.get_varint(), 77u);
}

}  // namespace
}  // namespace km
