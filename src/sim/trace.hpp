// Superstep tracing plane: wall-time phase spans, per-superstep counter
// events, and link-load matrices for the k-machine engine.
//
// The paper's cost model is rounds and bits, and the engine accounts those
// exactly — but every wall-time question (where does a superstep's real
// time go? which machine is the straggler at the barrier? which links
// carry the load the max_link_bits scalar only summarizes?) needs a layer
// the accounting cannot answer.  This module is that layer:
//
//  - Every machine thread records spans into its own MachineTraceBuffer
//    (single writer, no locks, no atomics — the buffer is owned by the
//    machine's thread until the engine joins).  Each (machine, superstep)
//    yields exactly four spans: `compute` (program code between
//    exchanges), `send` (serialization/bucketing inside send(), nested in
//    compute), `barrier_wait` (arrival to release at the combining-tree
//    barrier — the straggler signature), and `deliver` (the lock-free
//    inbound drain).  When the program returns, a trailing `compute` +
//    `send` pair covers the code after its last exchange.
//  - The root finalizer emits one TraceCounterSample per superstep
//    (rounds, messages, bits, max_link_bits, buffer/payload-pool deltas),
//    recorded under the barrier's fold-phase exclusivity.
//  - Opt-in (`record_links`): the leaf folders snapshot each machine's
//    per-destination bit row before zeroing it, folding a full k x k
//    link-bits matrix per superstep — the data behind load-imbalance
//    heatmaps and the balanced-proxy-assignment hypothesis (ROADMAP
//    item 5).
//
// Clock discipline: this module is the one sanctioned home (alongside the
// wall_ms reads in sim/engine.cpp) for steady-clock reads — km_lint's
// trace-outside-module rule rejects allow(wall-clock) escapes anywhere
// else.  Timestamps are nanoseconds relative to the session epoch and
// never feed the simulation: rounds/bits/delivery are byte-identical with
// tracing on or off (tests/test_trace.cpp proves it per workload).
//
// Export: chrome_trace_json() emits the Chrome/Perfetto trace-event
// format (one pid per run, one tid per machine, ph "X" slices + ph "C"
// counters) loadable in https://ui.perfetto.dev or chrome://tracing;
// link_matrix_json() emits the km.link_trace/v1 document.  summarize()
// folds the spans into the Metrics::timing block (per-machine phase_ms +
// barrier-wait skew) surfaced in km.run_result/v1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
#include "util/annotations.hpp"

namespace km {

/// The four wall-time phases of a (machine, superstep).
enum class TracePhase : std::uint8_t {
  kCompute = 0,      ///< program code between exchanges (minus send time)
  kSend = 1,         ///< serialization + bucketing inside send()/broadcast()
  kBarrierWait = 2,  ///< arrival at the tree barrier until release
  kDeliver = 3,      ///< lock-free inbound drain after release
};

std::string_view to_string(TracePhase phase) noexcept;

/// One recorded interval.  `kSend` spans nest inside the same superstep's
/// `kCompute` span; the other three tile the machine's wall time.
struct TraceSpan {
  std::uint64_t superstep = 0;
  TracePhase phase = TracePhase::kCompute;
  std::uint64_t begin_ns = 0;  ///< relative to the session epoch
  std::uint64_t end_ns = 0;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

/// Per-superstep counter sample, recorded once by the root finalizer.
/// Pool fields are the process-wide counter delta since the previous
/// superstep (with one engine running — the normal case — that is exactly
/// this run's machine threads).
struct TraceCounterSample {
  std::uint64_t superstep = 0;
  std::uint64_t at_ns = 0;  ///< finalize time, relative to the epoch
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_link_bits = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t payload_pool_hits = 0;
  std::uint64_t payload_pool_misses = 0;
};

/// One superstep's k x k link-bits matrix (row-major, bits[src * k + dst]
/// = bits machine src sent to machine dst).  Only supersteps that carried
/// traffic get a matrix; the superstep index says which.
struct LinkLoadMatrix {
  std::uint64_t superstep = 0;
  std::vector<std::uint64_t> bits;  ///< k * k, row-major by source
};

class TraceSession;

/// Span recorder for one machine.  Single-writer: only the owning machine
/// thread appends (between Engine::run's spawn and join), and readers
/// (summarize/export) run after the join — so no synchronization beyond
/// the engine's own thread lifecycle is needed.
class MachineTraceBuffer {
 public:
  /// Steady-clock read, nanoseconds since the session epoch.  The one
  /// clock the machine threads touch; confined to trace.cpp.
  std::uint64_t now_ns() const noexcept;

  /// Marks the origin of the machine's first compute span (called on the
  /// machine thread right before the program starts).
  void thread_begin() noexcept;

  /// Accumulates one send() call's duration into the current superstep's
  /// nested send span.
  void add_send(std::uint64_t begin_ns, std::uint64_t end_ns) noexcept;

  /// Superstep boundary, phase by phase: begin_sync closes the compute
  /// span (emitting the nested send span) at barrier arrival, end_barrier
  /// closes the barrier_wait span at release, end_deliver closes the
  /// deliver span and advances to the next superstep.
  void begin_sync(std::uint64_t at_ns);
  void end_barrier(std::uint64_t at_ns);
  void end_deliver(std::uint64_t at_ns);
  /// Program return: closes the trailing compute span (with its nested
  /// send span) after the machine's last exchange.
  void thread_end(std::uint64_t at_ns);

  const std::vector<TraceSpan>& spans() const noexcept { return spans_; }

 private:
  friend class TraceSession;
  explicit MachineTraceBuffer(const TraceSession* session)
      : session_(session) {}

  /// Emits the compute span ending at `at_ns` and its nested send span.
  void close_compute(std::uint64_t at_ns);

  const TraceSession* session_;
  std::vector<TraceSpan> spans_;
  std::uint64_t superstep_ = 0;      ///< this machine's exchange count
  std::uint64_t prev_end_ns_ = 0;    ///< where the next compute span opens
  std::uint64_t phase_begin_ns_ = 0;  ///< barrier/deliver span origin
  std::uint64_t send_begin_ns_ = 0;
  std::uint64_t send_accum_ns_ = 0;
  bool any_send_ = false;
};

/// One engine run's trace: k machine buffers plus the fold-phase streams
/// (counter samples, link matrices).  Created by Engine::run when
/// EngineConfig::trace is set; read via Engine::trace_session() after the
/// run.  Thread contract: machine buffers are written by their own
/// threads; the fold-phase streams are written only under the barrier's
/// fold protocol (see fold_gate); everything is read single-threaded
/// after the engine joins.
class TraceSession {
 public:
  TraceSession(std::size_t k, bool record_links);

  std::size_t k() const noexcept { return k_; }
  bool links_enabled() const noexcept { return links_; }

  MachineTraceBuffer& machine(std::size_t id) { return *machines_[id]; }
  const MachineTraceBuffer& machine(std::size_t id) const {
    return *machines_[id];
  }

  /// Steady-clock read relative to the session epoch (see the module
  /// comment for the clock discipline).
  std::uint64_t now_ns() const noexcept;

  /// Capability standing for the barrier's fold-phase exclusivity over
  /// the streams below — same protocol-not-a-lock pattern as
  /// TreeBarrier::fold_phase (the engine's fold/finalize hooks assert it;
  /// see Engine::fold_node).
  PhantomCapability fold_gate;

  /// Leaf-fold hook: copies machine `src`'s per-destination bit row (k
  /// entries) into the current superstep's matrix before the fold zeroes
  /// it.  Concurrent leaf folders write disjoint rows.
  void record_link_row(std::size_t src,
                       const std::uint64_t* row_bits) KM_REQUIRES(fold_gate);

  /// Root-finalizer hook, once per counted superstep: records the counter
  /// sample and, when links are enabled and the superstep carried
  /// traffic, commits the current link matrix.
  void finalize_superstep(std::uint64_t superstep, std::uint64_t rounds,
                          std::uint64_t messages, std::uint64_t bits,
                          std::uint64_t max_link_bits) KM_REQUIRES(fold_gate);

  const std::vector<TraceCounterSample>& counters() const noexcept
      KM_REQUIRES(fold_gate) {
    return counters_;
  }
  const std::vector<LinkLoadMatrix>& link_matrices() const noexcept
      KM_REQUIRES(fold_gate) {
    return matrices_;
  }

  /// Folds the spans into the per-machine phase breakdown plus
  /// barrier-wait skew statistics (Metrics::timing).
  TimingSummary summarize() const;

  /// Chrome/Perfetto trace-event JSON: one pid (1) per run, one tid per
  /// machine, ph "X" phase slices (ts/dur in microseconds), ph "C"
  /// counter events, process/thread-name metadata.  `label` names the
  /// process (e.g. "workload on dataset").
  std::string chrome_trace_json(std::string_view label) const;
  void write_chrome_trace(const std::string& path,
                          std::string_view label) const;

  /// km.link_trace/v1: {"schema", "k", "supersteps": [{"superstep",
  /// "bits": [[row 0...], ...]}]}.  Empty unless record_links was set.
  std::string link_matrix_json() const;
  void write_link_matrix_json(const std::string& path) const;

 private:
  std::size_t k_;
  bool links_;
  std::uint64_t epoch_ns_;  ///< absolute steady-clock origin of the run

  // unique_ptr for stable addresses and to keep adjacent machines'
  // write-hot buffers off one cache line.
  std::vector<std::unique_ptr<MachineTraceBuffer>> machines_;

  std::vector<TraceCounterSample> counters_ KM_GUARDED_BY(fold_gate);
  std::vector<LinkLoadMatrix> matrices_ KM_GUARDED_BY(fold_gate);
  /// Scratch matrix the leaf folders fill row by row; committed (and
  /// re-zeroed) by finalize_superstep when the superstep had traffic.
  std::vector<std::uint64_t> current_links_ KM_GUARDED_BY(fold_gate);
  /// Pool baselines for the per-superstep deltas.
  BufferPoolCounters pool_prev_ KM_GUARDED_BY(fold_gate);
  PayloadPoolCounters payload_prev_ KM_GUARDED_BY(fold_gate);
};

}  // namespace km
