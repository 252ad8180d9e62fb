// Tests for the per-superstep metrics timeline (sim/metrics.hpp): on a
// known program, the engine totals must equal the sum over the timeline,
// and the timeline must be off by default.
#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace km {
namespace {

// A deterministic 3-superstep program: every machine sends a payload of
// (id+1) bytes to its successor, then all-gathers its id, then sends a
// 1-byte message to machine 0 (machine 0 to machine 1).
void known_program(MachineContext& ctx) {
  const std::size_t k = ctx.k();
  ctx.send((ctx.id() + 1) % k, 1,
           std::vector<std::byte>(ctx.id() + 1, std::byte{0xAB}));
  (void)ctx.exchange();
  (void)ctx.all_gather(ctx.id());
  ctx.send(ctx.id() == 0 ? 1 : 0, 2, std::vector<std::byte>(1, std::byte{0}));
  (void)ctx.exchange();
}

TEST(MetricsTimeline, OffByDefault) {
  Engine engine(4, {.bandwidth_bits = 64, .seed = 7});
  const Metrics m = engine.run(known_program);
  EXPECT_TRUE(m.timeline.empty());
  EXPECT_EQ(m.supersteps, 3u);
}

TEST(MetricsTimeline, TotalsEqualTimelineSums) {
  Engine engine(4, {.bandwidth_bits = 64, .seed = 7, .record_timeline = true});
  const Metrics m = engine.run(known_program);

  ASSERT_EQ(m.timeline.size(), m.supersteps);
  ASSERT_EQ(m.supersteps, 3u);

  std::uint64_t rounds = 0, messages = 0, bits = 0, max_link = 0;
  for (std::size_t i = 0; i < m.timeline.size(); ++i) {
    const SuperstepStats& s = m.timeline[i];
    EXPECT_EQ(s.superstep, i);  // dense 0-based indices
    rounds += s.rounds;
    messages += s.messages;
    bits += s.bits;
    max_link = std::max(max_link, s.max_link_bits);
  }
  EXPECT_EQ(rounds, m.rounds);
  EXPECT_EQ(messages, m.messages);
  EXPECT_EQ(bits, m.bits);
  EXPECT_EQ(max_link, m.max_link_bits_superstep);
}

TEST(MetricsTimeline, KnownProgramPerSuperstepCounts) {
  const std::size_t k = 4;
  Engine engine(k, {.bandwidth_bits = 64, .seed = 7, .record_timeline = true});
  const Metrics m = engine.run(known_program);

  ASSERT_EQ(m.timeline.size(), 3u);
  // Superstep 0: one message per machine, payloads 1..k bytes, each
  // charged Message::kHeaderBits of framing on the wire.
  EXPECT_EQ(m.timeline[0].messages, k);
  EXPECT_EQ(m.timeline[0].bits, 8u * (1 + 2 + 3 + 4) + k * Message::kHeaderBits);
  // Superstep 1: all_gather charges k*(k-1) messages.
  EXPECT_EQ(m.timeline[1].messages, k * (k - 1));
  // Superstep 2: one 1-byte message per machine.
  EXPECT_EQ(m.timeline[2].messages, k);
  EXPECT_EQ(m.timeline[2].bits, 8u * k + k * Message::kHeaderBits);
}

TEST(MetricsTimeline, DeterministicAcrossRuns) {
  auto run = [] {
    Engine engine(5,
                  {.bandwidth_bits = 32, .seed = 3, .record_timeline = true});
    return engine.run(known_program);
  };
  const Metrics a = run();
  const Metrics b = run();
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.bits, b.bits);
}

TEST(MetricsTimeline, EmptySuperstepsGetZeroEntries) {
  // A program whose second superstep carries no traffic still counts as a
  // superstep (the barrier happened); its timeline entry is all-zero.
  Engine engine(3, {.bandwidth_bits = 64, .seed = 1, .record_timeline = true});
  const Metrics m = engine.run([](MachineContext& ctx) {
    ctx.send((ctx.id() + 1) % ctx.k(), 0,
             std::vector<std::byte>(4, std::byte{1}));
    (void)ctx.exchange();
    (void)ctx.exchange();  // nobody sent anything
  });
  ASSERT_EQ(m.timeline.size(), 2u);
  EXPECT_GT(m.timeline[0].bits, 0u);
  EXPECT_EQ(m.timeline[1].rounds, 0u);
  EXPECT_EQ(m.timeline[1].messages, 0u);
  EXPECT_EQ(m.timeline[1].bits, 0u);
}

}  // namespace
}  // namespace km
