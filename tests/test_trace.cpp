// Tests for the superstep tracing plane (sim/trace.hpp): span shape and
// nesting on a known program, the timing summary, link-matrix vs
// accounting cross-checks, export validation via the km_trace_check
// library, and the central property — tracing never perturbs the
// deterministic run identity (rounds/bits/timeline/JSON byte-for-byte).
//
// Suite names start with "Trace" so the CI tsan job's suite regex picks
// them up (the span buffers' single-writer contract is exactly the kind
// of claim tsan should see exercised).
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/dataset.hpp"
#include "runtime/results.hpp"
#include "runtime/workload.hpp"
#include "sim/engine.hpp"
#include "trace_check.hpp"

namespace km {
namespace {

// The known 3-superstep program from test_metrics.cpp: send to successor,
// all_gather, send to machine 0.
void known_program(MachineContext& ctx) {
  const std::size_t k = ctx.k();
  ctx.send((ctx.id() + 1) % k, 1,
           std::vector<std::byte>(ctx.id() + 1, std::byte{0xAB}));
  (void)ctx.exchange();
  (void)ctx.all_gather(ctx.id());
  ctx.send(ctx.id() == 0 ? 1 : 0, 2, std::vector<std::byte>(1, std::byte{0}));
  (void)ctx.exchange();
}

Metrics run_known(std::size_t k, bool trace, bool links,
                  std::shared_ptr<const TraceSession>* session = nullptr) {
  Engine engine(k, {.bandwidth_bits = 64,
                    .seed = 7,
                    .record_timeline = true,
                    .trace = trace,
                    .trace_links = links});
  Metrics m = engine.run(known_program);
  if (session != nullptr) *session = engine.trace_session();
  return m;
}

#if KM_TRACING_ENABLED
constexpr bool kTracingBuilt = true;
#else
constexpr bool kTracingBuilt = false;
#endif

TEST(TraceSpans, OffByDefaultAndOffWhenNotRequested) {
  std::shared_ptr<const TraceSession> session;
  const Metrics m = run_known(4, /*trace=*/false, /*links=*/false, &session);
  EXPECT_EQ(session, nullptr);
  EXPECT_FALSE(m.timing.enabled);
  EXPECT_TRUE(m.timing.per_machine.empty());
}

TEST(TraceSpans, KnownProgramSpanShape) {
  if (!kTracingBuilt) GTEST_SKIP() << "built with KM_DISABLE_TRACING";
  const std::size_t k = 4;
  std::shared_ptr<const TraceSession> session;
  const Metrics m = run_known(k, /*trace=*/true, /*links=*/false, &session);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(m.supersteps, 3u);
  EXPECT_EQ(session->k(), k);

  for (std::size_t id = 0; id < k; ++id) {
    const std::vector<TraceSpan>& spans = session->machine(id).spans();
    // Exactly four spans per (machine, superstep), in phase order, then
    // the trailing compute + send pair closed when the program returns.
    ASSERT_EQ(spans.size(), 4 * m.supersteps + 2) << "machine " << id;
    for (std::uint64_t s = 0; s < m.supersteps; ++s) {
      const TraceSpan& compute = spans[4 * s + 0];
      const TraceSpan& send = spans[4 * s + 1];
      const TraceSpan& barrier = spans[4 * s + 2];
      const TraceSpan& deliver = spans[4 * s + 3];
      for (const TraceSpan* span : {&compute, &send, &barrier, &deliver}) {
        EXPECT_EQ(span->superstep, s) << "machine " << id;
        EXPECT_LE(span->begin_ns, span->end_ns) << "machine " << id;
      }
      EXPECT_EQ(compute.phase, TracePhase::kCompute);
      EXPECT_EQ(send.phase, TracePhase::kSend);
      EXPECT_EQ(barrier.phase, TracePhase::kBarrierWait);
      EXPECT_EQ(deliver.phase, TracePhase::kDeliver);
      // send nests inside compute; compute/barrier/deliver tile the
      // machine's wall time without gaps.
      EXPECT_GE(send.begin_ns, compute.begin_ns);
      EXPECT_LE(send.end_ns, compute.end_ns);
      EXPECT_EQ(barrier.begin_ns, compute.end_ns);
      EXPECT_EQ(deliver.begin_ns, barrier.end_ns);
      EXPECT_EQ(spans[4 * (s + 1)].begin_ns, deliver.end_ns);
    }
    const TraceSpan& tail = spans[4 * m.supersteps];
    const TraceSpan& tail_send = spans[4 * m.supersteps + 1];
    EXPECT_EQ(tail.phase, TracePhase::kCompute);
    EXPECT_EQ(tail_send.phase, TracePhase::kSend);
    EXPECT_EQ(tail.superstep, m.supersteps);
    EXPECT_EQ(tail_send.superstep, m.supersteps);
    EXPECT_LE(tail.begin_ns, tail.end_ns);
    EXPECT_GE(tail_send.begin_ns, tail.begin_ns);
    EXPECT_LE(tail_send.end_ns, tail.end_ns);
  }
}

TEST(TraceSpans, ProgramWithoutExchangeRecordsOneComputeSpan) {
  if (!kTracingBuilt) GTEST_SKIP() << "built with KM_DISABLE_TRACING";
  // Work after a machine's last exchange() must still show up as
  // compute, even when, as here, the program never exchanges at all.
  const std::size_t k = 3;
  Engine engine(k, {.bandwidth_bits = 64, .seed = 7, .trace = true});
  const Metrics m = engine.run([](MachineContext&) {});
  const auto session = engine.trace_session();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(m.supersteps, 0u);
  for (std::size_t id = 0; id < k; ++id) {
    const std::vector<TraceSpan>& spans = session->machine(id).spans();
    ASSERT_EQ(spans.size(), 2u) << "machine " << id;
    EXPECT_EQ(spans[0].phase, TracePhase::kCompute);
    EXPECT_EQ(spans[1].phase, TracePhase::kSend);
    EXPECT_EQ(spans[1].begin_ns, spans[0].end_ns);  // no sends: zero-length
    EXPECT_EQ(spans[1].end_ns, spans[0].end_ns);
    EXPECT_LE(spans[0].begin_ns, spans[0].end_ns);
  }
  const std::string json = session->chrome_trace_json("no_exchange");
  trace_check::JsonValue doc;
  std::string error;
  ASSERT_TRUE(trace_check::parse_json(json, doc, error)) << error;
  const trace_check::CheckResult result =
      trace_check::check_chrome_trace(doc, k);
  EXPECT_TRUE(result.ok()) << ::testing::PrintToString(result.errors);
  EXPECT_EQ(result.span_events, 2 * k);
}

TEST(TraceSpans, TimingSummaryCoversEveryMachine) {
  if (!kTracingBuilt) GTEST_SKIP() << "built with KM_DISABLE_TRACING";
  const std::size_t k = 5;
  const Metrics m = run_known(k, /*trace=*/true, /*links=*/false);
  ASSERT_TRUE(m.timing.enabled);
  ASSERT_EQ(m.timing.per_machine.size(), k);
  for (std::size_t id = 0; id < k; ++id) {
    const MachinePhaseMs& pm = m.timing.per_machine[id];
    EXPECT_EQ(pm.machine, id);
    EXPECT_GE(pm.compute_ms, 0.0);
    EXPECT_GE(pm.send_ms, 0.0);
    EXPECT_GE(pm.barrier_wait_ms, 0.0);
    EXPECT_GE(pm.deliver_ms, 0.0);
    // The four phases tile the machine thread's traced interval, which
    // the engine's wall_ms (thread spawn to join) strictly contains.
    // Loose slack absorbs clock granularity on coarse-tick hosts.
    const double sum =
        pm.compute_ms + pm.send_ms + pm.barrier_wait_ms + pm.deliver_ms;
    EXPECT_LE(sum, m.wall_ms + 5.0) << "machine " << id;
  }
  EXPECT_GE(m.timing.barrier_wait_max_ms, m.timing.barrier_wait_mean_ms);
  if (m.timing.barrier_wait_mean_ms > 0.0) {
    EXPECT_GE(m.timing.barrier_wait_skew, 1.0);
  } else {
    EXPECT_EQ(m.timing.barrier_wait_skew, 0.0);
  }
}

TEST(TraceSpans, CounterSamplesMatchTimeline) {
  if (!kTracingBuilt) GTEST_SKIP() << "built with KM_DISABLE_TRACING";
  std::shared_ptr<const TraceSession> session;
  const Metrics m = run_known(4, /*trace=*/true, /*links=*/false, &session);
  ASSERT_NE(session, nullptr);
  // Post-join quiescence: Engine::run returned, so no fold is running and
  // this (single-threaded) test holds the fold-phase role.
  session->fold_gate.assert_held();
  const std::vector<TraceCounterSample>& samples = session->counters();
  ASSERT_EQ(samples.size(), m.timeline.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    EXPECT_EQ(samples[s].superstep, m.timeline[s].superstep);
    EXPECT_EQ(samples[s].rounds, m.timeline[s].rounds);
    EXPECT_EQ(samples[s].messages, m.timeline[s].messages);
    EXPECT_EQ(samples[s].bits, m.timeline[s].bits);
    EXPECT_EQ(samples[s].max_link_bits, m.timeline[s].max_link_bits);
    if (s > 0) {
      EXPECT_GE(samples[s].at_ns, samples[s - 1].at_ns);
    }
  }
}

TEST(TraceLinks, MatricesCrossCheckTheAccounting) {
  if (!kTracingBuilt) GTEST_SKIP() << "built with KM_DISABLE_TRACING";
  const std::size_t k = 4;
  std::shared_ptr<const TraceSession> session;
  const Metrics m = run_known(k, /*trace=*/true, /*links=*/true, &session);
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->links_enabled());
  // Post-join quiescence (see CounterSamplesMatchTimeline).
  session->fold_gate.assert_held();

  std::vector<std::uint64_t> row_totals(k, 0);
  std::uint64_t total_bits = 0;
  std::uint64_t prev_superstep = 0;
  bool first = true;
  for (const LinkLoadMatrix& matrix : session->link_matrices()) {
    ASSERT_EQ(matrix.bits.size(), k * k);
    ASSERT_LT(matrix.superstep, m.timeline.size());
    if (!first) {
      EXPECT_GT(matrix.superstep, prev_superstep);
    }
    first = false;
    prev_superstep = matrix.superstep;

    std::uint64_t matrix_bits = 0;
    std::uint64_t matrix_max = 0;
    for (std::size_t src = 0; src < k; ++src) {
      EXPECT_EQ(matrix.bits[src * k + src], 0u)
          << "machine " << src << " messaged itself";
      for (std::size_t dst = 0; dst < k; ++dst) {
        const std::uint64_t cell = matrix.bits[src * k + dst];
        matrix_bits += cell;
        matrix_max = std::max(matrix_max, cell);
        row_totals[src] += cell;
      }
    }
    // Each matrix must reproduce its superstep's accounted totals.
    EXPECT_EQ(matrix_bits, m.timeline[matrix.superstep].bits);
    EXPECT_EQ(matrix_max, m.timeline[matrix.superstep].max_link_bits);
    total_bits += matrix_bits;
  }
  // Traffic-free supersteps have no matrix, so summing over matrices
  // recovers the run totals exactly.
  EXPECT_EQ(total_bits, m.bits);
  ASSERT_EQ(m.send_bits_per_machine.size(), k);
  for (std::size_t src = 0; src < k; ++src) {
    EXPECT_EQ(row_totals[src], m.send_bits_per_machine[src])
        << "machine " << src;
  }
}

TEST(TraceExport, ChromeTraceValidatesInProcess) {
  if (!kTracingBuilt) GTEST_SKIP() << "built with KM_DISABLE_TRACING";
  const std::size_t k = 4;
  std::shared_ptr<const TraceSession> session;
  const Metrics m = run_known(k, /*trace=*/true, /*links=*/false, &session);
  ASSERT_NE(session, nullptr);

  const std::string json = session->chrome_trace_json("known_program");
  trace_check::JsonValue doc;
  std::string error;
  ASSERT_TRUE(trace_check::parse_json(json, doc, error)) << error;
  const trace_check::CheckResult result =
      trace_check::check_chrome_trace(doc, k);
  EXPECT_TRUE(result.ok()) << ::testing::PrintToString(result.errors);
  EXPECT_EQ(result.machines, k);
  EXPECT_EQ(result.span_events, k * (m.supersteps * 4 + 2));
  // 6 ph "C" events per counter sample (4 scalars + 2 pool pairs).
  EXPECT_EQ(result.counter_events, m.supersteps * 6);
}

TEST(TraceExport, LinkTraceValidatesInProcess) {
  if (!kTracingBuilt) GTEST_SKIP() << "built with KM_DISABLE_TRACING";
  const std::size_t k = 4;
  std::shared_ptr<const TraceSession> session;
  run_known(k, /*trace=*/true, /*links=*/true, &session);
  ASSERT_NE(session, nullptr);

  const std::string json = session->link_matrix_json();
  trace_check::JsonValue doc;
  std::string error;
  ASSERT_TRUE(trace_check::parse_json(json, doc, error)) << error;
  const trace_check::CheckResult result =
      trace_check::check_link_trace(doc, k);
  EXPECT_TRUE(result.ok()) << ::testing::PrintToString(result.errors);
  EXPECT_EQ(result.machines, k);
  // Post-join quiescence (see CounterSamplesMatchTimeline).
  session->fold_gate.assert_held();
  EXPECT_EQ(result.matrices, session->link_matrices().size());
}

// ---------------------------------------------------------------------
// The central property: tracing is observation only.  For every
// registered workload, a traced run (spans + counters + link matrices)
// must produce the same km.run_result/v1 document as an untraced run,
// byte for byte, once the documented exempt keys (wall_ms, timing —
// the same set tests/test_golden_metrics.cpp strips) are removed.

/// Small datasets, one per workload — every registered workload must
/// have an entry (asserted in the test) so a new workload cannot dodge
/// the tracing-neutrality property.
const std::map<std::string, std::string>& property_datasets() {
  static const std::map<std::string, std::string> specs = {
      {"cliques4", "gnp:n=48,p=0.15"},
      {"components", "gnp:n=64,p=0.05"},
      {"connectivity", "gnp:n=64,p=0.05"},
      {"connectivity_baseline", "gnp:n=64,p=0.05"},
      {"mst", "gnp:n=64,p=0.08,maxw=1000"},
      {"pagerank", "gnp:n=64,p=0.05"},
      {"pagerank_baseline", "gnp:n=64,p=0.05"},
      {"sort", "keys:n=512"},
      {"triangles", "gnp:n=48,p=0.15"},
      {"triangles_baseline", "gnp:n=48,p=0.15"},
  };
  return specs;
}

/// Drops lines carrying an exempt key; when the exempt value opens an
/// object/array, the whole block goes (brace/bracket depth tracking) —
/// mirror of the golden suite's strip_exempt.
std::vector<std::string> strip_exempt(const std::string& text) {
  static const std::vector<std::string> keys = {"\"wall_ms\":",
                                                "\"timing\":"};
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  int depth = 0;
  while (std::getline(in, line)) {
    if (depth > 0) {  // inside an exempt block
      for (char c : line) {
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
      }
      continue;
    }
    bool exempt = false;
    for (const std::string& key : keys) {
      const std::size_t pos = line.find(key);
      if (pos == std::string::npos) continue;
      exempt = true;
      for (char c : line.substr(pos)) {
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
      }
      break;
    }
    if (!exempt) lines.push_back(line);
  }
  return lines;
}

RunResult run_once(const Workload& workload, const Dataset& dataset,
                   bool trace) {
  RunParams params;
  params.k = 4;
  params.bandwidth_bits = 0;  // paper default B = Theta(log^2 n)
  params.seed = 7;
  params.record_timeline = true;
  params.check = true;
  params.trace = trace;
  params.trace_links = trace;
  return run_workload(workload, dataset, params);
}

TEST(TraceProperty, TracingNeverPerturbsAnyWorkload) {
  for (const Workload* workload : WorkloadRegistry::instance().list()) {
    ASSERT_TRUE(
        property_datasets().contains(std::string(workload->name())))
        << "workload '" << workload->name()
        << "' has no dataset entry in test_trace.cpp — add one so the "
           "tracing-neutrality property covers it";
  }
  for (const auto& [name, spec] : property_datasets()) {
    const Workload* workload = WorkloadRegistry::instance().find(name);
    ASSERT_NE(workload, nullptr) << name;
    const Dataset dataset = load_dataset(spec, workload->input_kind(), 7);

    const RunResult off = run_once(*workload, dataset, /*trace=*/false);
    const RunResult on = run_once(*workload, dataset, /*trace=*/true);

    EXPECT_EQ(off.trace, nullptr) << name;
    if (kTracingBuilt) {
      ASSERT_NE(on.trace, nullptr) << name;
      EXPECT_TRUE(on.metrics.timing.enabled) << name;
    }

    // The deterministic run identity, field by field...
    EXPECT_EQ(on.metrics.rounds, off.metrics.rounds) << name;
    EXPECT_EQ(on.metrics.supersteps, off.metrics.supersteps) << name;
    EXPECT_EQ(on.metrics.messages, off.metrics.messages) << name;
    EXPECT_EQ(on.metrics.bits, off.metrics.bits) << name;
    EXPECT_EQ(on.metrics.max_link_bits_superstep,
              off.metrics.max_link_bits_superstep)
        << name;
    EXPECT_EQ(on.metrics.dropped_messages, off.metrics.dropped_messages)
        << name;
    EXPECT_EQ(on.metrics.send_bits_per_machine,
              off.metrics.send_bits_per_machine)
        << name;
    EXPECT_EQ(on.metrics.recv_bits_per_machine,
              off.metrics.recv_bits_per_machine)
        << name;
    EXPECT_EQ(on.metrics.timeline, off.metrics.timeline) << name;
    EXPECT_EQ(on.check.ok, off.check.ok) << name;

    // ...and the whole serialized document, byte for byte modulo the
    // documented exempt keys.
    EXPECT_EQ(strip_exempt(run_result_to_json(on)),
              strip_exempt(run_result_to_json(off)))
        << name;
  }
}

}  // namespace
}  // namespace km
