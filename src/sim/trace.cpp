#include "sim/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace km {
namespace {

// The module's one clock read.  steady_clock (never system_clock): trace
// timestamps must be monotone per thread, and wall-calendar time has no
// business in the simulator.  This is the sanctioned wall-clock site the
// km_lint trace-outside-module rule carves out (alongside the wall_ms
// reads in sim/engine.cpp).
std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // km-lint: allow(wall-clock)
              .time_since_epoch())
          .count());
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) throw std::runtime_error("trace: short write to " + path);
}

}  // namespace

std::string_view to_string(TracePhase phase) noexcept {
  switch (phase) {
    case TracePhase::kCompute:
      return "compute";
    case TracePhase::kSend:
      return "send";
    case TracePhase::kBarrierWait:
      return "barrier_wait";
    case TracePhase::kDeliver:
      return "deliver";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MachineTraceBuffer

std::uint64_t MachineTraceBuffer::now_ns() const noexcept {
  return session_->now_ns();
}

void MachineTraceBuffer::thread_begin() noexcept { prev_end_ns_ = now_ns(); }

void MachineTraceBuffer::add_send(std::uint64_t begin_ns,
                                  std::uint64_t end_ns) noexcept {
  if (!any_send_) {
    any_send_ = true;
    send_begin_ns_ = begin_ns;
  }
  send_accum_ns_ += end_ns - begin_ns;
}

void MachineTraceBuffer::close_compute(std::uint64_t at_ns) {
  spans_.push_back({superstep_, TracePhase::kCompute, prev_end_ns_, at_ns});
  // The nested send span: real extent when the program sent this
  // superstep, zero-length at the compute boundary otherwise — so every
  // (machine, superstep) has exactly four spans and the well-nestedness
  // invariant (send ⊆ compute) holds unconditionally.
  const std::uint64_t sb = any_send_ ? send_begin_ns_ : at_ns;
  spans_.push_back({superstep_, TracePhase::kSend, sb, sb + send_accum_ns_});
  any_send_ = false;
  send_accum_ns_ = 0;
}

void MachineTraceBuffer::begin_sync(std::uint64_t at_ns) {
  close_compute(at_ns);
  phase_begin_ns_ = at_ns;
}

void MachineTraceBuffer::thread_end(std::uint64_t at_ns) {
  close_compute(at_ns);
}

void MachineTraceBuffer::end_barrier(std::uint64_t at_ns) {
  spans_.push_back(
      {superstep_, TracePhase::kBarrierWait, phase_begin_ns_, at_ns});
  phase_begin_ns_ = at_ns;
}

void MachineTraceBuffer::end_deliver(std::uint64_t at_ns) {
  spans_.push_back({superstep_, TracePhase::kDeliver, phase_begin_ns_, at_ns});
  prev_end_ns_ = at_ns;
  ++superstep_;
}

// ---------------------------------------------------------------------------
// TraceSession

TraceSession::TraceSession(std::size_t k, bool record_links)
    : k_(k), links_(record_links), epoch_ns_(steady_now_ns()) {
  machines_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    machines_.emplace_back(new MachineTraceBuffer(this));
  }
  if (links_) current_links_.assign(k * k, 0);
  pool_prev_ = buffer_pool_counters();
  payload_prev_ = payload_pool_counters();
}

std::uint64_t TraceSession::now_ns() const noexcept {
  return steady_now_ns() - epoch_ns_;
}

void TraceSession::record_link_row(std::size_t src,
                                   const std::uint64_t* row_bits) {
  fold_gate.assert_held();
  if (!links_) return;
  std::uint64_t* row = current_links_.data() + src * k_;
  for (std::size_t dst = 0; dst < k_; ++dst) row[dst] = row_bits[dst];
}

void TraceSession::finalize_superstep(std::uint64_t superstep,
                                      std::uint64_t rounds,
                                      std::uint64_t messages,
                                      std::uint64_t bits,
                                      std::uint64_t max_link_bits) {
  fold_gate.assert_held();
  const BufferPoolCounters pool = buffer_pool_counters();
  const PayloadPoolCounters payload = payload_pool_counters();
  counters_.push_back({.superstep = superstep,
                       .at_ns = now_ns(),
                       .rounds = rounds,
                       .messages = messages,
                       .bits = bits,
                       .max_link_bits = max_link_bits,
                       .pool_hits = pool.hits - pool_prev_.hits,
                       .pool_misses = pool.misses - pool_prev_.misses,
                       .payload_pool_hits = payload.hits - payload_prev_.hits,
                       .payload_pool_misses =
                           payload.misses - payload_prev_.misses});
  pool_prev_ = pool;
  payload_prev_ = payload;
  if (links_ && messages > 0) {
    matrices_.push_back({superstep, current_links_});
    std::fill(current_links_.begin(), current_links_.end(), 0);
  }
}

TimingSummary TraceSession::summarize() const {
  TimingSummary out;
  out.enabled = true;
  out.per_machine.reserve(k_);
  double wait_sum = 0.0;
  for (std::size_t i = 0; i < k_; ++i) {
    MachinePhaseMs pm;
    pm.machine = static_cast<std::uint32_t>(i);
    std::uint64_t ns[4] = {0, 0, 0, 0};
    for (const TraceSpan& s : machines_[i]->spans()) {
      ns[static_cast<std::size_t>(s.phase)] += s.end_ns - s.begin_ns;
    }
    // send spans nest inside compute; report compute exclusive of send so
    // the four columns tile the machine's traced wall time.
    const std::uint64_t send = ns[static_cast<std::size_t>(TracePhase::kSend)];
    std::uint64_t compute =
        ns[static_cast<std::size_t>(TracePhase::kCompute)];
    compute -= send < compute ? send : compute;
    constexpr double kMs = 1e-6;
    pm.compute_ms = static_cast<double>(compute) * kMs;
    pm.send_ms = static_cast<double>(send) * kMs;
    pm.barrier_wait_ms =
        static_cast<double>(
            ns[static_cast<std::size_t>(TracePhase::kBarrierWait)]) *
        kMs;
    pm.deliver_ms =
        static_cast<double>(
            ns[static_cast<std::size_t>(TracePhase::kDeliver)]) *
        kMs;
    wait_sum += pm.barrier_wait_ms;
    if (pm.barrier_wait_ms > out.barrier_wait_max_ms) {
      out.barrier_wait_max_ms = pm.barrier_wait_ms;
    }
    out.per_machine.push_back(pm);
  }
  if (k_ > 0) out.barrier_wait_mean_ms = wait_sum / static_cast<double>(k_);
  if (out.barrier_wait_mean_ms > 0.0) {
    out.barrier_wait_skew = out.barrier_wait_max_ms / out.barrier_wait_mean_ms;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Export

std::string TraceSession::chrome_trace_json(std::string_view label) const {
  // Reads run after Engine::run joined every machine thread, so the
  // buffers and fold streams are quiescent; assert_held documents that
  // the fold protocol is over, not that a lock is taken.
  fold_gate.assert_held();
  constexpr double kUs = 1e-3;  // ns -> trace-event microseconds
  JsonWriter w(0);  // compact: traces are big and machine-consumed
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  // Metadata: one process for the run, one named thread per machine.
  w.begin_object();
  w.key("name");
  w.value("process_name");
  w.key("ph");
  w.value("M");
  w.key("pid");
  w.value(std::uint64_t{1});
  w.key("tid");
  w.value(std::uint64_t{0});
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value(label);
  w.end_object();
  w.end_object();
  for (std::size_t i = 0; i < k_; ++i) {
    w.begin_object();
    w.key("name");
    w.value("thread_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(i));
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value("machine " + std::to_string(i));
    w.end_object();
    w.end_object();
  }
  // Phase slices: per-machine recorded order, which is non-decreasing in
  // begin_ns per tid (the trace checker verifies this property).
  for (std::size_t i = 0; i < k_; ++i) {
    for (const TraceSpan& s : machines_[i]->spans()) {
      w.begin_object();
      w.key("name");
      w.value(to_string(s.phase));
      w.key("cat");
      w.value("superstep");
      w.key("ph");
      w.value("X");
      w.key("pid");
      w.value(std::uint64_t{1});
      w.key("tid");
      w.value(static_cast<std::uint64_t>(i));
      w.key("ts");
      w.value(static_cast<double>(s.begin_ns) * kUs);
      w.key("dur");
      w.value(static_cast<double>(s.end_ns - s.begin_ns) * kUs);
      w.key("args");
      w.begin_object();
      w.key("superstep");
      w.value(s.superstep);
      w.end_object();
      w.end_object();
    }
  }
  // Counter tracks: the finalizer's per-superstep accounting sample.
  for (const TraceCounterSample& c : counters_) {
    const double ts = static_cast<double>(c.at_ns) * kUs;
    const auto counter = [&](std::string_view name, auto emit_args) {
      w.begin_object();
      w.key("name");
      w.value(name);
      w.key("ph");
      w.value("C");
      w.key("pid");
      w.value(std::uint64_t{1});
      w.key("tid");
      w.value(std::uint64_t{0});
      w.key("ts");
      w.value(ts);
      w.key("args");
      w.begin_object();
      emit_args();
      w.end_object();
      w.end_object();
    };
    counter("rounds", [&] { w.field("rounds", c.rounds); });
    counter("bits", [&] { w.field("bits", c.bits); });
    counter("max_link_bits",
            [&] { w.field("max_link_bits", c.max_link_bits); });
    counter("messages", [&] { w.field("messages", c.messages); });
    counter("pool", [&] {
      w.field("hits", c.pool_hits);
      w.field("misses", c.pool_misses);
    });
    counter("payload_pool", [&] {
      w.field("hits", c.payload_pool_hits);
      w.field("misses", c.payload_pool_misses);
    });
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void TraceSession::write_chrome_trace(const std::string& path,
                                      std::string_view label) const {
  write_file(path, chrome_trace_json(label));
}

std::string TraceSession::link_matrix_json() const {
  fold_gate.assert_held();
  JsonWriter w(0);
  w.begin_object();
  w.key("schema");
  w.value("km.link_trace/v1");
  w.key("k");
  w.value(static_cast<std::uint64_t>(k_));
  w.key("supersteps");
  w.begin_array();
  for (const LinkLoadMatrix& m : matrices_) {
    w.begin_object();
    w.key("superstep");
    w.value(m.superstep);
    w.key("bits");
    w.begin_array();
    for (std::size_t src = 0; src < k_; ++src) {
      w.begin_array();
      for (std::size_t dst = 0; dst < k_; ++dst) {
        w.value(m.bits[src * k_ + dst]);
      }
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void TraceSession::write_link_matrix_json(const std::string& path) const {
  write_file(path, link_matrix_json());
}

}  // namespace km
