// Tests for per-link bandwidth accounting — the cost model of Section 1.1:
// B bits per link per round, so a superstep costs max over ordered links
// of ceil(bits/B) rounds (at least 1 if anything moved).  Each case is a
// small Engine program whose per-superstep timeline is the charge.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace km {
namespace {

/// Sends `payload_bytes` zero bytes from the calling machine to `dst`.
void send_bytes(MachineContext& ctx, std::size_t dst,
                std::size_t payload_bytes, std::uint16_t tag = 0) {
  ctx.send(dst, tag, std::vector<std::byte>(payload_bytes, std::byte{0}));
}

/// Runs `program` on k machines at bandwidth B with the timeline on.
Metrics run_with(std::size_t k, std::uint64_t bandwidth,
                 const Program& program) {
  Engine engine(k, {.bandwidth_bits = bandwidth, .record_timeline = true});
  return engine.run(program);
}

TEST(Network, EmptySuperstepCostsNothing) {
  const Metrics m = run_with(4, 100, [](MachineContext& ctx) {
    EXPECT_TRUE(ctx.exchange().empty());
  });
  ASSERT_EQ(m.timeline.size(), 1u);
  EXPECT_EQ(m.timeline[0].rounds, 0u);
  EXPECT_EQ(m.timeline[0].messages, 0u);
  EXPECT_EQ(m.rounds, 0u);
  EXPECT_EQ(m.messages, 0u);
}

TEST(Network, SingleSmallMessageIsOneRound) {
  std::vector<Message> inbox;
  const Metrics m = run_with(4, 1000, [&](MachineContext& ctx) {
    if (ctx.id() == 0) send_bytes(ctx, 1, 4);  // 16 + 32 = 48 bits
    auto in = ctx.exchange();
    if (ctx.id() == 1) inbox = std::move(in);
  });
  EXPECT_EQ(m.rounds, 1u);
  EXPECT_EQ(m.messages, 1u);
  EXPECT_EQ(m.bits, 48u);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].src, 0u);
  EXPECT_EQ(m.send_bits_per_machine[0], 48u);
  EXPECT_EQ(m.recv_bits_per_machine[1], 48u);
}

TEST(Network, RoundsAreCeilOfLinkBitsOverBandwidth) {
  // 5 messages of 48 bits each on link 0->1: 240 bits, B=100 => 3 rounds.
  const Metrics m = run_with(3, 100, [](MachineContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < 5; ++i) send_bytes(ctx, 1, 4);
    }
    ctx.exchange();
  });
  EXPECT_EQ(m.max_link_bits_superstep, 240u);
  EXPECT_EQ(m.rounds, 3u);
}

TEST(Network, ParallelLinksDoNotAdd) {
  // Same total traffic spread over distinct links costs max, not sum.
  const Metrics m = run_with(4, 100, [](MachineContext& ctx) {
    if (ctx.id() == 0) {
      for (std::size_t dst = 1; dst < 4; ++dst) send_bytes(ctx, dst, 4);
    }
    ctx.exchange();
  });
  EXPECT_EQ(m.rounds, 1u);
  EXPECT_EQ(m.bits, 144u);
}

TEST(Network, OppositeDirectionsAreSeparateLinks) {
  // The paper's links are bidirectional with B bits each way per round;
  // the simulator models each direction as its own budget.
  const Metrics m = run_with(2, 48, [](MachineContext& ctx) {
    send_bytes(ctx, 1 - ctx.id(), 4);
    ctx.exchange();
  });
  EXPECT_EQ(m.rounds, 1u);  // both fit simultaneously
}

TEST(Network, HotLinkDominates) {
  const Metrics m = run_with(4, 48, [](MachineContext& ctx) {
    if (ctx.id() == 0) send_bytes(ctx, 1, 4);
    if (ctx.id() == 2) {
      for (int i = 0; i < 10; ++i) send_bytes(ctx, 3, 4);
    }
    ctx.exchange();
  });
  EXPECT_EQ(m.rounds, 10u);
}

TEST(Network, SelfMessageThrows) {
  Engine engine(3, {.bandwidth_bits = 100});
  EXPECT_THROW(engine.run([](MachineContext& ctx) {
                 if (ctx.id() == 1) send_bytes(ctx, 1, 4);
                 ctx.exchange();
               }),
               std::logic_error);
}

TEST(Network, BadDestinationThrows) {
  Engine engine(3, {.bandwidth_bits = 100});
  EXPECT_THROW(engine.run([](MachineContext& ctx) {
                 if (ctx.id() == 0) send_bytes(ctx, 7, 4);
                 ctx.exchange();
               }),
               std::out_of_range);
}

TEST(Network, StateResetsBetweenSupersteps) {
  const Metrics m = run_with(2, 48, [](MachineContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < 4; ++i) send_bytes(ctx, 1, 4);
    }
    ctx.exchange();
    if (ctx.id() == 0) send_bytes(ctx, 1, 4);
    ctx.exchange();
  });
  ASSERT_EQ(m.timeline.size(), 2u);
  EXPECT_EQ(m.timeline[0].rounds, 4u);
  EXPECT_EQ(m.timeline[1].rounds, 1u);  // no carry-over from superstep 0
}

TEST(Network, DeliveryOrderIsDeterministic) {
  std::vector<Message> inbox;
  run_with(3, 1000, [&](MachineContext& ctx) {
    if (ctx.id() == 2) send_bytes(ctx, 1, 1, 20);
    if (ctx.id() == 0) {
      send_bytes(ctx, 1, 1, 10);
      send_bytes(ctx, 1, 1, 11);
    }
    auto in = ctx.exchange();
    if (ctx.id() == 1) inbox = std::move(in);
  });
  ASSERT_EQ(inbox.size(), 3u);
  // Ascending source order, then send order.
  EXPECT_EQ(inbox[0].tag, 10u);
  EXPECT_EQ(inbox[1].tag, 11u);
  EXPECT_EQ(inbox[2].tag, 20u);
}

TEST(Network, InvalidConstructionThrows) {
  EXPECT_THROW(Engine(0, {.bandwidth_bits = 100}), std::invalid_argument);
  // B = 0 would divide by zero in the round charge.
  EXPECT_THROW(Engine(4, {.bandwidth_bits = 0}), std::invalid_argument);
}

TEST(Network, HeaderBitsAreCharged) {
  const Metrics m = run_with(2, 16, [](MachineContext& ctx) {
    if (ctx.id() == 0) send_bytes(ctx, 1, 0);  // empty payload = header only
    ctx.exchange();
  });
  EXPECT_EQ(m.bits, Message::kHeaderBits);
  EXPECT_EQ(m.rounds, 1u);
}

}  // namespace
}  // namespace km
