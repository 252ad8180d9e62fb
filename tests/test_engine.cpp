// Tests for the SPMD engine (sim/engine.hpp): exchange semantics, round
// accounting, collectives, determinism and failure behaviour.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

namespace km {
namespace {

TEST(Engine, SingleMachineNoCommunication) {
  Engine engine(1, {.bandwidth_bits = 64, .seed = 1});
  int ran = 0;
  const auto metrics = engine.run([&](MachineContext& ctx) {
    EXPECT_EQ(ctx.id(), 0u);
    EXPECT_EQ(ctx.k(), 1u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(metrics.rounds, 0u);
  EXPECT_EQ(metrics.messages, 0u);
}

TEST(Engine, PingPong) {
  Engine engine(2, {.bandwidth_bits = 64, .seed = 1});
  std::vector<std::uint64_t> got(2, 0);
  engine.run([&](MachineContext& ctx) {
    Writer w;
    w.put_varint(100 + ctx.id());
    ctx.send(1 - ctx.id(), 1, w);
    const auto msgs = ctx.exchange();
    ASSERT_EQ(msgs.size(), 1u);
    Reader r(msgs[0].payload);
    got[ctx.id()] = r.get_varint();
    EXPECT_EQ(msgs[0].src, 1 - ctx.id());
  });
  EXPECT_EQ(got[0], 101u);
  EXPECT_EQ(got[1], 100u);
}

TEST(Engine, RoundAccountingMatchesBandwidth) {
  // One machine sends 10 messages of 48 bits to one destination with
  // B = 48: 10 rounds.  A second superstep with one message adds 1.
  Engine engine(3, {.bandwidth_bits = 48, .seed = 1});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    if (ctx.id() == 0) {
      for (int i = 0; i < 10; ++i) {
        Writer w;
        w.put_u32(7);  // 16 header + 32 payload = 48 bits
        ctx.send(1, 1, w);
      }
    }
    ctx.exchange();
    if (ctx.id() == 2) {
      Writer w;
      w.put_u32(9);
      ctx.send(0, 2, w);
    }
    ctx.exchange();
  });
  EXPECT_EQ(metrics.rounds, 11u);
  EXPECT_EQ(metrics.supersteps, 2u);
  EXPECT_EQ(metrics.messages, 11u);
  EXPECT_EQ(metrics.dropped_messages, 0u);
}

TEST(Engine, EmptySuperstepsChargeNoRounds) {
  Engine engine(4, {.bandwidth_bits = 64, .seed = 1});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    for (int i = 0; i < 5; ++i) ctx.exchange();
  });
  EXPECT_EQ(metrics.rounds, 0u);
  EXPECT_EQ(metrics.supersteps, 5u);
}

TEST(Engine, BroadcastReachesEveryone) {
  constexpr std::size_t kMachines = 5;
  Engine engine(kMachines, {.bandwidth_bits = 1024, .seed = 1});
  std::vector<std::uint64_t> received(kMachines, 0);
  engine.run([&](MachineContext& ctx) {
    Writer w;
    w.put_varint(ctx.id());
    ctx.broadcast(3, w);
    for (const auto& msg : ctx.exchange()) {
      Reader r(msg.payload);
      received[ctx.id()] += r.get_varint() + 1;  // +1 distinguishes 0
    }
  });
  // Each machine hears every other id once: sum over others (id+1).
  for (std::size_t i = 0; i < kMachines; ++i) {
    const std::uint64_t total = kMachines * (kMachines + 1) / 2;  // ids+1
    EXPECT_EQ(received[i], total - (i + 1));
  }
}

TEST(Engine, AllGatherCollective) {
  constexpr std::size_t kMachines = 6;
  Engine engine(kMachines, {.bandwidth_bits = 1024, .seed = 1});
  engine.run([&](MachineContext& ctx) {
    const auto values = ctx.all_gather(ctx.id() * 10);
    ASSERT_EQ(values.size(), kMachines);
    for (std::size_t i = 0; i < kMachines; ++i) EXPECT_EQ(values[i], i * 10);
  });
}

TEST(Engine, AllReduceSumMaxOr) {
  Engine engine(4, {.bandwidth_bits = 1024, .seed = 1});
  engine.run([&](MachineContext& ctx) {
    EXPECT_EQ(ctx.all_reduce_sum(ctx.id() + 1), 10u);       // 1+2+3+4
    EXPECT_EQ(ctx.all_reduce_max(ctx.id() * 7), 21u);       // max
    EXPECT_TRUE(ctx.all_reduce_or(ctx.id() == 2));          // one true
    EXPECT_FALSE(ctx.all_reduce_or(false));                 // none true
  });
}

TEST(Engine, CollectiveStashesAlgorithmMessages) {
  // A message sent in the same superstep as a collective must not be
  // lost: it is stashed and returned by the next exchange().
  Engine engine(2, {.bandwidth_bits = 1024, .seed = 1});
  engine.run([&](MachineContext& ctx) {
    Writer w;
    w.put_varint(42);
    ctx.send(1 - ctx.id(), 9, w);
    EXPECT_EQ(ctx.all_reduce_sum(1), 2u);
    const auto msgs = ctx.exchange();
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0].tag, 9u);
    Reader r(msgs[0].payload);
    EXPECT_EQ(r.get_varint(), 42u);
  });
}

/// Worker counts for the finish-path tests: one worker, two, and one per
/// machine.  Whether a whole worker's machines finish early depends on
/// W, so these tests pin it instead of taking the host's core count.
std::vector<std::size_t> finish_worker_counts(std::size_t machines) {
  return {1, 2, machines};
}

TEST(Engine, FinishedMachineReadsAsZeroInAllGather) {
  // Machine 3 returns before the others call all_gather: its slot reads
  // as 0, and the other machines' k-1 copies addressed to it are dropped.
  constexpr std::size_t kMachines = 4;
  for (const std::size_t workers : finish_worker_counts(kMachines)) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    Engine engine(kMachines,
                  {.bandwidth_bits = 1024, .seed = 1, .workers = workers});
    const auto metrics = engine.run([&](MachineContext& ctx) {
      if (ctx.id() == 3) return;
      const auto values = ctx.all_gather(100 + ctx.id());
      ASSERT_EQ(values.size(), kMachines);
      for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(values[i], 100 + i);
      EXPECT_EQ(values[3], 0u);
      EXPECT_EQ(ctx.all_reduce_sum(ctx.id() + 1), 6u);  // 1+2+3, 4th is 0
    });
    // Two collectives by three machines, three copies each.
    EXPECT_EQ(metrics.messages, 2u * 3 * 3);
    EXPECT_EQ(metrics.dropped_messages, 2u * (kMachines - 1));
    EXPECT_EQ(metrics.supersteps, 2u);
  }
}

/// Point-to-point traffic for the collective-superstep tests, at a B
/// whose framing threshold is 256 bytes: machine src sends
/// traffic_plan(src, dst) messages to dst, the second as a PayloadRef
/// and every third one past the framing threshold.
constexpr std::uint64_t kTrafficBandwidth = 2048;

std::size_t traffic_plan(std::size_t src, std::size_t dst) {
  return (src + 2 * dst) % 4;
}

std::vector<std::byte> traffic_payload(std::size_t src, std::size_t i) {
  const std::size_t len = i % 3 == 2 ? 300 : 1 + i;
  return std::vector<std::byte>(len, static_cast<std::byte>(src * 16 + i));
}

void send_traffic(MachineContext& ctx) {
  for (std::size_t dst = 0; dst < ctx.k(); ++dst) {
    if (dst == ctx.id()) continue;
    for (std::size_t i = 0; i < traffic_plan(ctx.id(), dst); ++i) {
      const auto tag = static_cast<std::uint16_t>(i);
      if (i == 1) {
        ctx.send(dst, tag, PayloadRef(traffic_payload(ctx.id(), i)));
      } else {
        ctx.send(dst, tag, traffic_payload(ctx.id(), i));
      }
    }
  }
}

/// Checks that `in` is exactly the traffic addressed to ctx, in
/// (source, send) order.
void expect_traffic(const MachineContext& ctx, const std::vector<Message>& in) {
  std::size_t pos = 0;
  for (std::size_t src = 0; src < ctx.k(); ++src) {
    if (src == ctx.id()) continue;
    for (std::size_t i = 0; i < traffic_plan(src, ctx.id()); ++i) {
      ASSERT_LT(pos, in.size());
      const Message& msg = in[pos++];
      EXPECT_EQ(msg.src, src);
      EXPECT_EQ(msg.tag, i);
      EXPECT_TRUE(
          std::ranges::equal(msg.payload.view(), traffic_payload(src, i)))
          << "src " << src << " message " << i;
    }
  }
  EXPECT_EQ(pos, in.size());
}

TEST(Engine, CollectiveSuperstepKeepsPointToPointOrder) {
  // Point-to-point messages sent in a collective superstep come back
  // from the next exchange() in (source, send) order, framed, oversized
  // and PayloadRef sends alike, and survive a second collective.
  constexpr std::size_t kMachines = 5;
  Engine engine(kMachines, {.bandwidth_bits = kTrafficBandwidth, .seed = 2});
  engine.run([&](MachineContext& ctx) {
    send_traffic(ctx);
    EXPECT_EQ(ctx.all_reduce_sum(1), kMachines);
    EXPECT_EQ(ctx.all_reduce_max(ctx.id()), kMachines - 1);
    expect_traffic(ctx, ctx.exchange());
  });
}

TEST(Engine, ExchangeGatherReturnsItsSuperstepsMessages) {
  // The fused collective hands back the messages of its own superstep,
  // in (source, send) order, with every machine's value, and stashes
  // nothing for the next exchange().
  constexpr std::size_t kMachines = 5;
  for (const std::size_t workers : finish_worker_counts(kMachines)) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    Engine engine(kMachines, {.bandwidth_bits = kTrafficBandwidth,
                              .seed = 2,
                              .workers = workers});
    const auto metrics = engine.run([&](MachineContext& ctx) {
      send_traffic(ctx);
      const Gathered gathered = ctx.exchange_gather(10 + ctx.id());
      expect_traffic(ctx, gathered.messages);
      ASSERT_EQ(gathered.values.size(), kMachines);
      for (std::size_t i = 0; i < kMachines; ++i) {
        EXPECT_EQ(gathered.values[i], 10 + i);
      }
      EXPECT_EQ(gathered.sum(),
                10 * kMachines + kMachines * (kMachines - 1) / 2);
      EXPECT_TRUE(ctx.exchange().empty());
    });
    EXPECT_EQ(metrics.supersteps, 2u);
  }
}

TEST(Engine, ExchangeGatherChargesSendsPlusOneVarintPerLink) {
  // One fused superstep costs exactly what the same sends plus one
  // message of the value's varint to every peer cost in one plain
  // superstep: per-link bits, message counts, the busiest link and so
  // the rounds.  Values of one and two varint bytes.
  constexpr std::size_t kMachines = 5;
  const auto value = [](std::size_t id) { return std::uint64_t{300} * id; };
  for (const std::size_t workers : finish_worker_counts(kMachines)) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    const EngineConfig config{.bandwidth_bits = kTrafficBandwidth,
                              .seed = 2,
                              .record_timeline = true,
                              .workers = workers};
    Engine fused_engine(kMachines, config);
    const Metrics fused = fused_engine.run([&](MachineContext& ctx) {
      send_traffic(ctx);
      ctx.exchange_gather(value(ctx.id()));
    });
    Engine separate_engine(kMachines, config);
    const Metrics separate = separate_engine.run([&](MachineContext& ctx) {
      send_traffic(ctx);
      Writer w;
      w.put_varint(value(ctx.id()));
      for (std::size_t dst = 0; dst < kMachines; ++dst) {
        if (dst != ctx.id()) ctx.send(dst, 0, w.view());
      }
      ctx.exchange();
    });
    ASSERT_EQ(fused.timeline.size(), 1u);
    ASSERT_EQ(separate.timeline.size(), 1u);
    EXPECT_EQ(fused.timeline[0].messages, separate.timeline[0].messages);
    EXPECT_EQ(fused.timeline[0].bits, separate.timeline[0].bits);
    EXPECT_EQ(fused.timeline[0].max_link_bits,
              separate.timeline[0].max_link_bits);
    EXPECT_EQ(fused.timeline[0].rounds, separate.timeline[0].rounds);
    EXPECT_GT(fused.timeline[0].rounds, 1u);
    EXPECT_EQ(fused.send_bits_per_machine, separate.send_bits_per_machine);
    EXPECT_EQ(fused.recv_bits_per_machine, separate.recv_bits_per_machine);
    EXPECT_EQ(fused.supersteps, 1u);
  }
}

TEST(Engine, ExchangeGatherFinishedMachineContributesZero) {
  // Machine 3 returns at once: its value reads 0, the live machines'
  // messages still arrive, and the charges on their links to machine 3
  // are dropped.
  constexpr std::size_t kMachines = 4;
  for (const std::size_t workers : finish_worker_counts(kMachines)) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    Engine engine(kMachines,
                  {.bandwidth_bits = 1024, .seed = 1, .workers = workers});
    const auto metrics = engine.run([&](MachineContext& ctx) {
      if (ctx.id() == 3) return;
      Writer w;
      w.put_varint(ctx.id());
      ctx.send((ctx.id() + 1) % 3, 1, w);
      const Gathered gathered = ctx.exchange_gather(100 + ctx.id());
      ASSERT_EQ(gathered.messages.size(), 1u);
      EXPECT_EQ(gathered.messages[0].src, (ctx.id() + 2) % 3);
      EXPECT_EQ(gathered.values,
                (std::vector<std::uint64_t>{100, 101, 102, 0}));
      EXPECT_EQ(gathered.sum(), 303u);
    });
    EXPECT_EQ(metrics.messages, 3u + 3 * 3);
    EXPECT_EQ(metrics.dropped_messages, 3u);
    EXPECT_EQ(metrics.supersteps, 1u);
  }
}

TEST(Engine, SingleMachineExchangeGatherSendsNothing) {
  Engine engine(1, {.bandwidth_bits = 64, .seed = 1,
                    .record_timeline = true});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    const Gathered gathered = ctx.exchange_gather(41);
    EXPECT_TRUE(gathered.messages.empty());
    EXPECT_EQ(gathered.values, (std::vector<std::uint64_t>{41}));
  });
  EXPECT_EQ(metrics.supersteps, 1u);
  EXPECT_EQ(metrics.messages, 0u);
  EXPECT_EQ(metrics.bits, 0u);
  EXPECT_EQ(metrics.rounds, 0u);
}

TEST(Engine, SingleMachineCollectiveCostsOneSuperstepNoMessages) {
  Engine engine(1, {.bandwidth_bits = 64, .seed = 1,
                    .record_timeline = true});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    EXPECT_EQ(ctx.all_reduce_sum(41), 41u);
  });
  EXPECT_EQ(metrics.supersteps, 1u);
  EXPECT_EQ(metrics.messages, 0u);
  EXPECT_EQ(metrics.bits, 0u);
  EXPECT_EQ(metrics.rounds, 0u);
  ASSERT_EQ(metrics.timeline.size(), 1u);
  EXPECT_EQ(metrics.timeline[0].messages, 0u);
}

TEST(Engine, PerMachineRngIsIndependentAndDeterministic) {
  std::vector<std::uint64_t> draw_a(3), draw_b(3);
  for (auto* out : {&draw_a, &draw_b}) {
    Engine engine(3, {.bandwidth_bits = 64, .seed = 99});
    engine.run([&](MachineContext& ctx) {
      (*out)[ctx.id()] = ctx.rng().next();
    });
  }
  EXPECT_EQ(draw_a, draw_b);  // reproducible across runs
  EXPECT_NE(draw_a[0], draw_a[1]);
  EXPECT_NE(draw_a[1], draw_a[2]);
}

TEST(Engine, MetricsAreDeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine(4, {.bandwidth_bits = 96, .seed = 5});
    return engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < 3; ++step) {
        const auto count = ctx.rng().below(5);
        for (std::uint64_t i = 0; i < count; ++i) {
          Writer w;
          w.put_varint(i);
          // Random destination, guaranteed distinct from self.
          ctx.send((ctx.id() + 1 + ctx.rng().below(3)) % 4, 1, w);
        }
        ctx.exchange();
      }
    });
  };
  const auto m1 = run_once();
  const auto m2 = run_once();
  EXPECT_EQ(m1.rounds, m2.rounds);
  EXPECT_EQ(m1.messages, m2.messages);
  EXPECT_EQ(m1.bits, m2.bits);
}

TEST(Engine, UnevenFinishDoesNotDeadlock) {
  // Machine 0 finishes immediately; the others keep exchanging.
  for (const std::size_t workers : finish_worker_counts(3)) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    Engine engine(3, {.bandwidth_bits = 1024, .seed = 1, .workers = workers});
    const auto metrics = engine.run([&](MachineContext& ctx) {
      if (ctx.id() == 0) return;
      for (int i = 0; i < 10; ++i) {
        if (ctx.id() == 1) {
          Writer w;
          w.put_varint(i);
          ctx.send(2, 1, w);
        }
        ctx.exchange();
      }
    });
    EXPECT_EQ(metrics.dropped_messages, 0u);
    EXPECT_GE(metrics.supersteps, 10u);
  }
}

TEST(Engine, MessageToFinishedMachineIsDropped) {
  for (const std::size_t workers : finish_worker_counts(2)) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    Engine engine(2, {.bandwidth_bits = 1024, .seed = 1, .workers = workers});
    const auto metrics = engine.run([&](MachineContext& ctx) {
      if (ctx.id() == 0) return;  // finishes before the send below lands
      ctx.exchange();             // let machine 0 finish first
      Writer w;
      w.put_varint(1);
      ctx.send(0, 1, w);
      ctx.exchange();
    });
    EXPECT_EQ(metrics.dropped_messages, 1u);
  }
}

TEST(Engine, WorkerWhoseMachinesAllFinishDoesNotDeadlock) {
  // k = 8 over W = 2 puts machines 0-3 on worker 0 and 4-7 on worker 1.
  // All of worker 0's machines return at once; worker 1's keep
  // exchanging, and one message addressed to machine 0 is dropped.
  constexpr std::size_t kMachines = 8;
  Engine engine(kMachines, {.bandwidth_bits = 1024, .seed = 1, .workers = 2});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    if (ctx.id() < 4) return;
    for (int i = 0; i < 10; ++i) {
      Writer w;
      w.put_varint(static_cast<std::uint64_t>(i));
      ctx.send(4 + (ctx.id() - 3) % 4, 1, w);
      if (ctx.id() == 5 && i == 6) {
        Writer late;
        late.put_varint(1);
        ctx.send(0, 2, late);
      }
      const auto in = ctx.exchange();
      ASSERT_EQ(in.size(), 1u);
      EXPECT_EQ(in[0].src, 4 + (ctx.id() - 1) % 4);
    }
  });
  EXPECT_EQ(metrics.dropped_messages, 1u);
  EXPECT_GE(metrics.supersteps, 10u);
  EXPECT_EQ(metrics.messages, 4u * 10 + 1);
}

TEST(Engine, ExceptionInMachinePropagates) {
  Engine engine(3, {.bandwidth_bits = 64, .seed = 1});
  EXPECT_THROW(engine.run([&](MachineContext& ctx) {
                 if (ctx.id() == 1) throw std::runtime_error("boom");
                 ctx.exchange();
               }),
               std::runtime_error);
}

TEST(Engine, BarrierMergeFailureDoesNotDeadlock) {
  // A throw out of the barrier merge (e.g. a failing delivery) must be
  // captured and abort the run: every parked machine thread wakes, sees
  // the stop flag, and the error propagates out of run() — no deadlock.
  EngineConfig cfg{.bandwidth_bits = 1024, .seed = 1};
  auto fired = std::make_shared<std::atomic<bool>>(false);
  cfg.barrier_fault_injection = [fired](std::uint64_t superstep) {
    if (superstep == 1 && !fired->exchange(true)) {
      throw std::runtime_error("injected delivery failure");
    }
  };
  Engine engine(4, cfg);
  try {
    engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < 5; ++step) {
        Writer w;
        w.put_varint(static_cast<std::uint64_t>(step));
        ctx.send((ctx.id() + 1) % 4, 1, w);
        ctx.exchange();
      }
    });
    FAIL() << "expected the injected failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected delivery failure");
  }
  // The engine must be reusable after the failed run (contexts torn down
  // by RAII, barrier state reset).
  const auto metrics = engine.run([&](MachineContext& ctx) {
    EXPECT_EQ(ctx.all_reduce_sum(1), 4u);
  });
  EXPECT_EQ(metrics.supersteps, 1u);
}

TEST(Engine, BarrierMergeFailureOnFirstSuperstep) {
  EngineConfig cfg{.bandwidth_bits = 1024, .seed = 1};
  cfg.barrier_fault_injection = [](std::uint64_t) {
    throw std::logic_error("boom at merge");
  };
  Engine engine(3, cfg);
  EXPECT_THROW(
      engine.run([&](MachineContext& ctx) { ctx.exchange(); }),
      std::logic_error);
}

TEST(Engine, SummaryIncludesDroppedMessages) {
  Engine engine(2, {.bandwidth_bits = 1024, .seed = 1});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    if (ctx.id() == 0) return;
    ctx.exchange();  // let machine 0 finish first
    Writer w;
    w.put_varint(1);
    ctx.send(0, 1, w);
    ctx.exchange();
  });
  EXPECT_EQ(metrics.dropped_messages, 1u);
  EXPECT_NE(metrics.summary().find("dropped=1"), std::string::npos)
      << metrics.summary();
}

TEST(Engine, BroadcastPayloadIsSharedNotCopied) {
  // The zero-copy contract: one broadcast produces one buffer, observed
  // by every receiver at the same address.
  constexpr std::size_t kMachines = 4;
  Engine engine(kMachines, {.bandwidth_bits = 1 << 12, .seed = 1});
  std::vector<const std::byte*> addr(kMachines, nullptr);
  std::vector<PayloadRef> keep(kMachines);  // keep buffers alive to compare
  engine.run([&](MachineContext& ctx) {
    Writer w;
    w.put_u64(0xfeedface);
    ctx.broadcast(1, w);
    for (auto& msg : ctx.exchange()) {
      if (msg.src == 0) {
        addr[ctx.id()] = msg.payload.data();
        keep[ctx.id()] = msg.payload;
      }
    }
  });
  for (std::size_t id = 2; id < kMachines; ++id) {
    EXPECT_EQ(addr[id], addr[1]);
    EXPECT_TRUE(keep[id].shares_buffer_with(keep[1]));
  }
}

TEST(Engine, SuperstepBudgetAborts) {
  Engine engine(2, {.bandwidth_bits = 64, .seed = 1, .max_supersteps = 10});
  EXPECT_THROW(engine.run([&](MachineContext& ctx) {
                 while (true) ctx.exchange();  // runaway loop
               }),
               std::runtime_error);
}

TEST(Engine, SelfSendThrows) {
  Engine engine(2, {.bandwidth_bits = 64, .seed = 1});
  EXPECT_THROW(engine.run([&](MachineContext& ctx) {
                 Writer w;
                 w.put_varint(0);
                 ctx.send(ctx.id(), 1, w);
                 ctx.exchange();
               }),
               std::logic_error);
}

TEST(Engine, RecvBitsTrackPerMachineInformation) {
  // Machine 2 receives everything: its recv_bits must equal total bits.
  Engine engine(3, {.bandwidth_bits = 1024, .seed = 1});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    if (ctx.id() != 2) {
      Writer w;
      w.put_u64(0xdeadbeef);
      ctx.send(2, 1, w);
    }
    ctx.exchange();
  });
  EXPECT_EQ(metrics.recv_bits_per_machine[2], metrics.bits);
  EXPECT_EQ(metrics.recv_bits_per_machine[0], 0u);
  EXPECT_EQ(metrics.max_recv_bits(), metrics.bits);
  EXPECT_EQ(metrics.send_bits_per_machine[0] +
                metrics.send_bits_per_machine[1],
            metrics.bits);
}

TEST(Engine, DefaultBandwidthIsPolylog) {
  const auto b1k = EngineConfig::default_bandwidth(1024);
  const auto b1m = EngineConfig::default_bandwidth(1 << 20);
  EXPECT_EQ(b1k, 16u * 10 * 10);
  EXPECT_EQ(b1m, 16u * 20 * 20);
}

TEST(Engine, ManyMachinesStress) {
  // 64 machines, everyone talks to everyone (one superstep).
  constexpr std::size_t kMachines = 64;
  Engine engine(kMachines, {.bandwidth_bits = 4096, .seed = 1});
  std::atomic<std::uint64_t> total{0};
  const auto metrics = engine.run([&](MachineContext& ctx) {
    Writer w;
    w.put_varint(1);
    ctx.broadcast(1, w);
    total += ctx.exchange().size();
  });
  EXPECT_EQ(total.load(), kMachines * (kMachines - 1));
  EXPECT_EQ(metrics.messages, kMachines * (kMachines - 1));
  EXPECT_EQ(metrics.rounds, 1u);
}

}  // namespace
}  // namespace km
