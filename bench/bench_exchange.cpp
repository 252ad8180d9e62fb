// Message-plane microbenchmark: raw exchange() throughput, independent of
// any graph algorithm.
//
// These workloads stress the costs the message plane pays per superstep:
// (1) broadcast-heavy — every machine broadcasts the same payload to all
// k-1 peers, so payload copying (or sharing) dominates; (2) unique
// fan-out — every machine sends a distinct message to every peer, so
// per-message bookkeeping dominates (each is its link's only message of
// the superstep, and all three sizes are under the 4096-byte framing
// threshold at this bandwidth, so every one is framed: appended to its
// sender's outbox slab and copied into its receiver's inbox arena, one
// buffer per machine per superstep on each side); (3) two-hop shuffle —
// route_via_random_intermediate, so envelope (re)serialization dominates;
// (4) barrier latency — empty supersteps at k up to 256, so the worker
// barrier's rendezvous and wake-up are the whole cost, and collective
// latency — the same supersteps each running an all_reduce_sum; (5)
// speedup vs workers — a compute-bound fleet at every pool width, so the
// series reads directly as the executor's parallel efficiency.  Throughput
// counters are bytes of payload handed to the message plane per second,
// which makes before/after comparisons of the plane itself meaningful.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "sim/routing.hpp"
#include "util/hash.hpp"

namespace {

using namespace km;

// Bandwidth is irrelevant to wall time (rounds are accounting, not delay);
// something large keeps the round numbers small and readable.
constexpr std::uint64_t kBandwidth = 1 << 20;
constexpr std::size_t kMachines = 16;
constexpr int kSupersteps = 16;

void BM_BroadcastHeavy(benchmark::State& state) {
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> blob(payload_bytes, std::byte{0x5a});
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(kMachines, {.bandwidth_bits = kBandwidth, .seed = 21});
    metrics = engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSupersteps; ++step) {
        Writer w;
        w.put_bytes(blob);
        ctx.broadcast(1, w);
        const auto in = ctx.exchange();
        if (in.size() != kMachines - 1) {
          throw std::logic_error("bench_exchange: lost broadcast messages");
        }
        benchmark::DoNotOptimize(in.data());
      }
    });
  }
  // Payload bytes offered to the plane per iteration (one buffer per
  // broadcast; the k-1 deliveries are the plane's problem).
  state.SetBytesProcessed(state.iterations() * kSupersteps * kMachines *
                          static_cast<std::int64_t>(payload_bytes));
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
}
BENCHMARK(BM_BroadcastHeavy)->Arg(16)->Arg(256)->Arg(4096)->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_UniqueFanOut(benchmark::State& state) {
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> blob(payload_bytes, std::byte{0x33});
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(kMachines, {.bandwidth_bits = kBandwidth, .seed = 22});
    metrics = engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSupersteps; ++step) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (dst == ctx.id()) continue;
          Writer w;
          w.put_varint(static_cast<std::uint64_t>(step));
          w.put_bytes(blob);
          ctx.send(dst, 2, w);
        }
        const auto in = ctx.exchange();
        if (in.size() != kMachines - 1) {
          throw std::logic_error("bench_exchange: lost fan-out messages");
        }
        benchmark::DoNotOptimize(in.data());
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * kSupersteps * kMachines *
                          (kMachines - 1) *
                          static_cast<std::int64_t>(payload_bytes));
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
}
BENCHMARK(BM_UniqueFanOut)->Arg(16)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_UniqueFanOutTraced(benchmark::State& state) {
  // BM_UniqueFanOut with the tracing plane on (spans + counter events,
  // no link matrices): the delta against the untraced rows above is the
  // tracing overhead per superstep.  The acceptance bar lives on the
  // *other* side — with tracing off the hooks must cost nothing but a
  // null check, so BM_UniqueFanOut itself must not move when the plane
  // is compiled in (CI's bench-quick job keeps both series in the
  // uploaded artifact for exactly this comparison).
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> blob(payload_bytes, std::byte{0x33});
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(kMachines,
                  {.bandwidth_bits = kBandwidth, .seed = 22, .trace = true});
    metrics = engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSupersteps; ++step) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (dst == ctx.id()) continue;
          Writer w;
          w.put_varint(static_cast<std::uint64_t>(step));
          w.put_bytes(blob);
          ctx.send(dst, 2, w);
        }
        const auto in = ctx.exchange();
        if (in.size() != kMachines - 1) {
          throw std::logic_error("bench_exchange: lost fan-out messages");
        }
        benchmark::DoNotOptimize(in.data());
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * kSupersteps * kMachines *
                          (kMachines - 1) *
                          static_cast<std::int64_t>(payload_bytes));
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
}
BENCHMARK(BM_UniqueFanOutTraced)->Arg(16)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_TinyBatchFanOut(benchmark::State& state) {
  // The frame-batching target: many tiny messages per link per
  // superstep, where the per-message fixed cost (a refcounted buffer
  // each) used to dominate.  Payload is 16 bytes; range(0) messages go
  // to every peer every superstep.
  const auto per_link = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> blob(16, std::byte{0x77});
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(kMachines, {.bandwidth_bits = kBandwidth, .seed = 25});
    metrics = engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSupersteps; ++step) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (dst == ctx.id()) continue;
          for (std::size_t i = 0; i < per_link; ++i) {
            Writer w;
            w.put_bytes(blob);
            ctx.send(dst, 4, w);
          }
        }
        const auto in = ctx.exchange();
        if (in.size() != per_link * (kMachines - 1)) {
          throw std::logic_error("bench_exchange: lost tiny messages");
        }
        benchmark::DoNotOptimize(in.data());
      }
    });
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSupersteps * kMachines *
                          (kMachines - 1) * per_link),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TinyBatchFanOut)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_TwoHopShuffle(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(kMachines, {.bandwidth_bits = kBandwidth, .seed = 23});
    metrics = engine.run([&](MachineContext& ctx) {
      std::vector<Message> out;
      out.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        Message m;
        m.dst = static_cast<std::uint32_t>(ctx.rng().below(kMachines));
        m.tag = 3;
        Writer w;
        w.put_varint(i);
        w.put_varint(0xabcdef);
        m.payload = w.take();
        out.push_back(std::move(m));
      }
      const auto in = route_via_random_intermediate(ctx, std::move(out));
      benchmark::DoNotOptimize(in.data());
    });
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kMachines * batch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TwoHopShuffle)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_BarrierLatency(benchmark::State& state) {
  // Empty supersteps: no messages move, so the whole per-step cost is the
  // rendezvous — machine arrivals into their worker's fold, one arrival
  // per worker, the finalize, and the scheduler pass that resumes
  // released fibers instead of a per-machine futex wake.  The k = 256
  // case multiplexes 64 or more machines onto each of the default
  // workers; one engine run amortizes the pool spawn over kSteps
  // barriers.
  const auto machines = static_cast<std::size_t>(state.range(0));
  constexpr int kSteps = 16;
  for (auto _ : state) {
    Engine engine(machines, {.bandwidth_bits = kBandwidth, .seed = 24});
    engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSteps; ++step) {
        const auto in = ctx.exchange();
        benchmark::DoNotOptimize(in.data());
      }
    });
  }
  state.counters["barriers/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSteps),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BarrierLatency)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_CollectiveLatency(benchmark::State& state) {
  // BM_BarrierLatency with an all_reduce_sum in every superstep: the
  // difference between the two rows is what a collective adds to a bare
  // rendezvous — charging k - 1 messages per machine and reading the k
  // values — with the same run shape, so the pair reads as the
  // collective layer's before/after number.
  const auto machines = static_cast<std::size_t>(state.range(0));
  constexpr int kSteps = 16;
  for (auto _ : state) {
    Engine engine(machines, {.bandwidth_bits = kBandwidth, .seed = 24});
    engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSteps; ++step) {
        const std::uint64_t total = ctx.all_reduce_sum(ctx.id());
        if (total != machines * (machines - 1) / 2) {
          throw std::logic_error("bench_exchange: wrong all_reduce_sum");
        }
      }
    });
  }
  state.counters["collectives/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSteps),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CollectiveLatency)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_SpeedupVsWorkers(benchmark::State& state) {
  // Executor scaling: 64 compute-bound machines multiplexed over
  // range(0) workers.  Each machine burns a fixed hash-mixing loop per
  // superstep and sends one tiny message around a ring, so wall time is
  // dominated by machine compute and the series over workers in
  // {1, 2, 4, 8, ...} reads directly as parallel speedup — flat rows
  // past the core count show the pool saturating, and the workers=1 row
  // doubles as the pure-multiplexing (zero-contention) baseline any
  // scheduler overhead would show up in.
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFleet = 64;
  constexpr int kSteps = 8;
  constexpr int kMixesPerStep = 20000;
  Metrics metrics;
  for (auto _ : state) {
    Engine engine(kFleet, {.bandwidth_bits = kBandwidth, .seed = 26,
                           .workers = workers});
    metrics = engine.run([&](MachineContext& ctx) {
      std::uint64_t acc = ctx.id();
      for (int step = 0; step < kSteps; ++step) {
        for (int i = 0; i < kMixesPerStep; ++i) {
          acc = mix64(acc, static_cast<std::uint64_t>(i));
        }
        benchmark::DoNotOptimize(acc);
        Writer w;
        w.put_varint(acc);
        ctx.send((ctx.id() + 1) % kFleet, 5, w);
        const auto in = ctx.exchange();
        if (in.size() != 1) {
          throw std::logic_error("bench_exchange: lost ring message");
        }
        benchmark::DoNotOptimize(in.data());
      }
    });
  }
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  state.counters["supersteps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSteps),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpeedupVsWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

KM_BENCH_MAIN("payload bytes / batch size")
