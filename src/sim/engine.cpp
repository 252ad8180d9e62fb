#include "sim/engine.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "util/buffer_pool.hpp"
#include "util/mathx.hpp"

namespace km {

namespace {
/// Accumulates one send() call's wall time into the machine's nested send
/// span.  Inert (no clock read) on untraced runs.
class SendTimer {
 public:
  explicit SendTimer(MachineTraceBuffer* buf) : buf_(buf) {
    if (buf_) begin_ = buf_->now_ns();
  }
  ~SendTimer() {
    if (buf_) buf_->add_send(begin_, buf_->now_ns());
  }
  SendTimer(const SendTimer&) = delete;
  SendTimer& operator=(const SendTimer&) = delete;

 private:
  MachineTraceBuffer* buf_;
  std::uint64_t begin_ = 0;
};
}  // namespace

std::uint64_t EngineConfig::default_bandwidth(std::size_t n) noexcept {
  const std::uint64_t logn = std::max<std::uint64_t>(1, ceil_log2(n));
  return 16 * logn * logn;
}

// ---------------------------------------------------------------------------
// MachineContext
// ---------------------------------------------------------------------------

MachineContext::MachineContext(Engine* engine, std::size_t id, Rng rng)
    : engine_(engine), id_(id), rng_(rng) {
  const std::size_t k = engine_->k();
  for (auto& links : out_) links.resize(k);
  out_bits_.assign(k, 0);
  out_msgs_.assign(k, 0);
}

std::size_t MachineContext::k() const noexcept { return engine_->k(); }

const EngineConfig& MachineContext::config() const noexcept {
  return engine_->config();
}

MachineContext::LinkOut& MachineContext::link_for(std::size_t dst) {
  if (dst == id_) {
    throw std::logic_error("MachineContext::send: self-addressed message");
  }
  if (dst >= k()) {
    throw std::out_of_range("MachineContext::send: bad destination");
  }
  return out_[barriers_passed_ & 1][dst];
}

void MachineContext::account_send(std::size_t dst,
                                  std::uint64_t payload_bytes) {
  // Phase 1 of the exchange protocol: cost the link now — one header plus
  // the payload per message, framed or not (the unbatched formula) — so
  // the barrier folds only counters.  The row aggregates keep the leaf
  // fold O(1) per machine scalar.
  const std::uint64_t bits = Message::kHeaderBits + payload_bytes * 8;
  out_bits_[dst] += bits;
  out_msgs_[dst] += 1;
  row_bits_ += bits;
  row_msgs_ += 1;
  row_max_ = std::max(row_max_, out_bits_[dst]);
}

// Framing pays a memcpy to save a refcounted buffer per message; with a
// single message on the link there is nothing to amortize it against, so
// a link's first small message takes the zero-copy path and framing
// starts from the second.  (Delivery order is independent of the split:
// the messages vector is authoritative.)
bool MachineContext::should_frame(const LinkOut& link,
                                  std::size_t payload_bytes) const {
  return payload_bytes <= engine_->frame_threshold_ && !link.messages.empty();
}

Message MachineContext::stamp(std::size_t dst, std::uint16_t tag) const {
  Message msg;
  msg.src = static_cast<std::uint32_t>(id_);
  msg.dst = static_cast<std::uint32_t>(dst);
  msg.tag = tag;
  return msg;
}

void MachineContext::send(std::size_t dst, std::uint16_t tag,
                          PayloadRef payload) {
  const SendTimer timer(trace_);
  LinkOut& link = link_for(dst);
  account_send(dst, payload.size());
  Message msg = stamp(dst, tag);
  msg.payload = std::move(payload);
  link.messages.push_back(std::move(msg));
}

void MachineContext::send_framed(LinkOut& link, std::size_t dst,
                                 std::uint16_t tag,
                                 std::span<const std::byte> payload) {
  account_send(dst, payload.size());
  // The frame is one pooled buffer per (src, dst, superstep); its entries
  // are length-prefixed and appear in the same order as the indices in
  // link.framed, so delivery can walk both in lockstep.
  if (link.frame.capacity() == 0) link.frame = acquire_buffer();
  link.framed.push_back(static_cast<std::uint32_t>(link.messages.size()));
  append_varint(link.frame, payload.size());
  link.frame.insert(link.frame.end(), payload.begin(), payload.end());
  // The payload stays empty until delivery slices the frame.
  link.messages.push_back(stamp(dst, tag));
}

void MachineContext::send(std::size_t dst, std::uint16_t tag,
                          std::vector<std::byte> payload) {
  const SendTimer timer(trace_);
  LinkOut& link = link_for(dst);
  if (should_frame(link, payload.size())) {
    send_framed(link, dst, tag, payload);
    recycle_buffer(std::move(payload));
  } else {
    account_send(dst, payload.size());
    Message msg = stamp(dst, tag);
    msg.payload = PayloadRef(std::move(payload));
    link.messages.push_back(std::move(msg));
  }
}

void MachineContext::send(std::size_t dst, std::uint16_t tag, Writer& writer) {
  const SendTimer timer(trace_);
  LinkOut& link = link_for(dst);
  if (should_frame(link, writer.size_bytes())) {
    send_framed(link, dst, tag, writer.view());
    writer.clear();  // consumed; capacity stays with the writer
  } else {
    account_send(dst, writer.size_bytes());
    Message msg = stamp(dst, tag);
    msg.payload = PayloadRef(writer.take());
    link.messages.push_back(std::move(msg));
  }
}

void MachineContext::send(std::size_t dst, std::uint16_t tag,
                          std::span<const std::byte> payload) {
  const SendTimer timer(trace_);
  LinkOut& link = link_for(dst);
  if (should_frame(link, payload.size())) {
    send_framed(link, dst, tag, payload);
  } else {
    account_send(dst, payload.size());
    Message msg = stamp(dst, tag);
    msg.payload =
        PayloadRef(std::vector<std::byte>(payload.begin(), payload.end()));
    link.messages.push_back(std::move(msg));
  }
}

void MachineContext::broadcast(std::uint16_t tag, Writer& writer) {
  const PayloadRef payload(writer.take());
  for (std::size_t dst = 0; dst < k(); ++dst) {
    if (dst == id_) continue;
    send(dst, tag, payload);  // shares the buffer, no copy, never framed
  }
}

std::vector<Message> MachineContext::exchange() {
  // The machine's superstep boundary is also the tracing seam: the span
  // clock only ticks here and in SendTimer, so an untraced run's hot path
  // sees nothing but null-pointer checks.
  if (trace_) trace_->begin_sync(trace_->now_ns());
  if (engine_->barrier_arrive_and_wait(id_)) {
    // Only possible when the engine aborted (superstep budget, or a
    // failed barrier merge): a normal stop requires *all* machines to
    // have finished, and this one hasn't.
    throw std::runtime_error("MachineContext::exchange: engine aborted");
  }
  if (trace_) trace_->end_barrier(trace_->now_ns());
  std::vector<Message> result = std::move(stashed_);
  stashed_.clear();
  engine_->drain_inbound(*this, result);
  if (trace_) trace_->end_deliver(trace_->now_ns());
  return result;
}

std::vector<std::uint64_t> MachineContext::all_gather(std::uint64_t value) {
  Writer w;
  w.put_varint(value);
  broadcast(kCollectiveTag, w);
  // Collective-tagged messages are always consumed in the superstep that
  // sent them, so stashed leftovers survive the detour through exchange()
  // unchanged: they come back at the front of `raw` and go straight back
  // into the stash, preserving order.
  std::vector<Message> raw = exchange();
  std::vector<std::uint64_t> values(k(), 0);
  values[id_] = value;
  for (auto& msg : raw) {
    if (msg.tag == kCollectiveTag) {
      Reader r(msg.payload);
      values[msg.src] = r.get_varint();
    } else {
      stashed_.push_back(std::move(msg));
    }
  }
  return values;
}

std::uint64_t MachineContext::all_reduce_sum(std::uint64_t value) {
  std::uint64_t total = 0;
  for (std::uint64_t v : all_gather(value)) total += v;
  return total;
}

std::uint64_t MachineContext::all_reduce_max(std::uint64_t value) {
  std::uint64_t best = 0;
  for (std::uint64_t v : all_gather(value)) best = std::max(best, v);
  return best;
}

bool MachineContext::all_reduce_or(bool value) {
  return all_reduce_sum(value ? 1 : 0) > 0;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(std::size_t k, EngineConfig config)
    : k_(k),
      config_(std::move(config)),
      frame_threshold_(framed_payload_default_bytes(config_.bandwidth_bits)),
      barrier_(k),
      node_accums_(barrier_.node_count()) {
  if (k_ < 1) throw std::invalid_argument("Engine: k must be >= 1");
  if (config_.bandwidth_bits < 1) {
    throw std::invalid_argument("Engine: bandwidth must be >= 1 bit");
  }
  for (NodeAccum& acc : node_accums_) {
    acc.recv_bits.assign(k_, 0);
    acc.recv_msgs.assign(k_, 0);
  }
}

Metrics Engine::run(const Program& program) {
  contexts_.clear();
  contexts_.reserve(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    contexts_.emplace_back(
        new MachineContext(this, i, Rng(config_.seed, i)));
  }
  // Tear machine state down on *every* exit path, including the rethrow
  // below: stale contexts must not survive into the next run.
  struct ContextsGuard {
    Engine& engine;
    ~ContextsGuard() { engine.contexts_.clear(); }
  } guard{*this};
  trace_.reset();  // last run's trace dies here whatever config says now
  if (config_.trace) {
    trace_ = std::make_shared<TraceSession>(k_, config_.trace_links);
    for (std::size_t i = 0; i < k_; ++i) {
      contexts_[i]->trace_ = &trace_->machine(i);
    }
  }
  // Single-threaded prologue: no machine thread exists yet, so this
  // thread trivially has fold-phase exclusivity over the metrics and
  // accumulators (the phantom acquire is free and keeps the guarded
  // members compile-checked).
  barrier_.fold_phase.acquire();
  metrics_ = Metrics{};
  metrics_.send_bits_per_machine.assign(k_, 0);
  metrics_.recv_bits_per_machine.assign(k_, 0);
  // An aborted run leaves folded-but-unconsumed accumulators behind;
  // re-arm everything before the first machine thread starts.
  barrier_.reset();
  for (NodeAccum& acc : node_accums_) {
    acc.bits = acc.msgs = acc.max_link = 0;
    std::fill(acc.recv_bits.begin(), acc.recv_bits.end(), 0);
    std::fill(acc.recv_msgs.begin(), acc.recv_msgs.end(), 0);
  }
  barrier_.fold_phase.release();
  stop_.store(false, std::memory_order_relaxed);
  finished_count_.store(0, std::memory_order_relaxed);
  {
    const MutexLock lock(mutex_);
    first_error_ = nullptr;
  }
  const BufferPoolCounters pool_baseline = buffer_pool_counters();
  const PayloadPoolCounters payload_baseline = payload_pool_counters();

  // Wall-clock metric, not simulation state: rounds/bits stay seeded-
  // deterministic whatever this reads.  km-lint: allow(wall-clock)
  const auto start = std::chrono::steady_clock::now();
  {
    // One fiber per machine, multiplexed over the worker pool.  When a
    // machine parks at the barrier the worker polls
    // TreeBarrier::released() for it; when a worker's whole block is
    // parked it futex-waits on the barrier's sense word (the only event
    // that can make a parked machine runnable).
    Executor executor(k_, config_.workers,
                      IdleHooks{.epoch = &Engine::idle_epoch,
                                .wait = &Engine::idle_wait,
                                .arg = this});
    executor_ = &executor;
    struct ExecutorGuard {
      Engine& engine;
      ~ExecutorGuard() { engine.executor_ = nullptr; }
    } executor_guard{*this};
    executor.run([this, &program](std::size_t i) { machine_main(program, i); });
  }  // workers join here
  // Wall-clock metric, not simulation state.  km-lint: allow(wall-clock)
  const auto end = std::chrono::steady_clock::now();
  // Single-threaded epilogue: every machine thread joined above, so this
  // thread again holds fold-phase exclusivity.
  barrier_.fold_phase.acquire();
  metrics_.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  metrics_.pool = buffer_pool_counters().since(pool_baseline);
  metrics_.payload_pool = payload_pool_counters().since(payload_baseline);
  if (trace_) metrics_.timing = trace_->summarize();
  const Metrics result = metrics_;
  barrier_.fold_phase.release();

  std::exception_ptr error;
  {
    const MutexLock lock(mutex_);
    error = first_error_;
  }
  if (error) std::rethrow_exception(error);
  return result;
}

void Engine::machine_main(const Program& program, std::size_t who) {
  // Span origin on the machine's own fiber, so the first compute span
  // excludes pool startup latency.
  if (contexts_[who]->trace_) contexts_[who]->trace_->thread_begin();
  try {
    program(*contexts_[who]);
  } catch (...) {
    record_first_error(std::current_exception());
  }
  // The compute after the machine's last exchange() (all of it, for a
  // program that never exchanges) gets its own trailing span.
  if (MachineTraceBuffer* trace = contexts_[who]->trace_) {
    trace->thread_end(trace->now_ns());
  }
  contexts_[who]->finished_ = true;  // published by the next arrival
  finished_count_.fetch_add(1, std::memory_order_release);
  // Keep participating in barriers until the engine stops, so machines
  // that finish early do not deadlock the others.  The stop flag is
  // checked *before* arriving: once it is set, no machine will enter
  // another barrier episode.  Incoming buckets still have to be walked
  // each episode — discarded, not delivered — to keep the parity
  // hand-off sound.
  while (!stopped()) {
    if (barrier_arrive_and_wait(who)) break;
    discard_inbound(*contexts_[who]);
  }
}

bool Engine::machine_released(void* self, std::size_t who) {
  return static_cast<Engine*>(self)->barrier_.released(who);
}

std::uint64_t Engine::idle_epoch(void* self) {
  return static_cast<Engine*>(self)->barrier_.sense_word();
}

void Engine::idle_wait(void* self, std::uint64_t seen) {
  static_cast<Engine*>(self)->barrier_.wait_sense(
      static_cast<std::uint32_t>(seen));
}

void Engine::record_first_error(std::exception_ptr error) {
  const MutexLock lock(mutex_);
  set_first_error_locked(std::move(error));
}

void Engine::set_first_error_locked(std::exception_ptr error) {
  if (!first_error_) first_error_ = std::move(error);
}

bool Engine::barrier_arrive_and_wait(std::size_t who) {
  const auto outcome = barrier_.arrive_begin(
      who,
      [this](std::size_t node, bool leaf, std::size_t child_begin,
             std::size_t child_end) {
        // TreeBarrier::arrive_begin holds fold_phase across this hook
        // (the node's fan-in fetch_add elected us sole folder); the
        // lambda is analyzed in isolation, so restate that fact for the
        // analysis.
        barrier_.fold_phase.assert_held();
        fold_node(node, leaf, child_begin, child_end);
      },
      [this] {
        // Same contract: arrive_begin() holds fold_phase across finalize.
        barrier_.fold_phase.assert_held();
        return finalize_superstep();
      });
  if (outcome == TreeBarrier::ArriveOutcome::kParked) {
    // Machine-granular wait: yield this fiber back to the worker, which
    // runs its other machines and resumes us once released() holds.  The
    // sense cannot flip again until this machine re-arrives, so a stale
    // resume is impossible.
    executor_->park(who, &Engine::machine_released, this);
  }
  return barrier_.stop_flag();
}

void Engine::fold_node(std::size_t node, bool leaf, std::size_t child_begin,
                       std::size_t child_end) {
  // Phase 2 of the exchange protocol: runs on the last thread to arrive
  // at `node`, with every child quiescent (their arrivals happen-before
  // this call).  Only pre-computed integer counters fold here — payloads
  // never ride the barrier.  Children are zeroed as they are consumed so
  // the next episode starts clean.
  NodeAccum& acc = node_accums_[node];
  if (leaf) {
    for (std::size_t m = child_begin; m < child_end; ++m) {
      MachineContext& from = *contexts_[m];
      if (from.row_msgs_ == 0) continue;
      if (trace_ && trace_->links_enabled()) {
        // Snapshot the row before the zeroing below destroys it.  Leaf
        // folders own disjoint machine ranges, so concurrent folders
        // write disjoint matrix rows — the same exclusivity that lets
        // them write metrics_.send_bits_per_machine[m] above.
        trace_->fold_gate.assert_held();
        trace_->record_link_row(m, from.out_bits_.data());
      }
      acc.bits += from.row_bits_;
      acc.msgs += from.row_msgs_;
      acc.max_link = std::max(acc.max_link, from.row_max_);
      metrics_.send_bits_per_machine[m] += from.row_bits_;
      for (std::size_t dst = 0; dst < k_; ++dst) {
        if (from.out_msgs_[dst] == 0) continue;
        acc.recv_bits[dst] += from.out_bits_[dst];
        acc.recv_msgs[dst] += from.out_msgs_[dst];
        from.out_bits_[dst] = 0;
        from.out_msgs_[dst] = 0;
      }
      from.row_bits_ = from.row_msgs_ = from.row_max_ = 0;
    }
  } else {
    for (std::size_t c = child_begin; c < child_end; ++c) {
      NodeAccum& child = node_accums_[c];
      if (child.msgs == 0) continue;
      acc.bits += child.bits;
      acc.msgs += child.msgs;
      acc.max_link = std::max(acc.max_link, child.max_link);
      for (std::size_t dst = 0; dst < k_; ++dst) {
        if (child.recv_msgs[dst] == 0) continue;
        acc.recv_bits[dst] += child.recv_bits[dst];
        acc.recv_msgs[dst] += child.recv_msgs[dst];
        child.recv_bits[dst] = 0;
        child.recv_msgs[dst] = 0;
      }
      child.bits = child.msgs = child.max_link = 0;
    }
  }
}

bool Engine::finalize_superstep() {
  // Runs once per superstep on the root's last arriver; by the acq_rel
  // arrival chain it happens-after every machine's sends, finish flag,
  // and the whole counter fold.  Must not throw: failures become
  // first_error_ plus a stop that propagates down the release.
  NodeAccum& root = node_accums_[barrier_.root()];
  bool stop = false;
  try {
    if (config_.barrier_fault_injection) {
      config_.barrier_fault_injection(metrics_.supersteps);
    }
    SuperstepStats stats{.superstep = metrics_.supersteps,
                         .messages = root.msgs,
                         .bits = root.bits,
                         .max_link_bits = root.max_link};
    if (root.msgs > 0) {
      // Section 1.1's cost model: the busiest link carries B bits per
      // round, and a superstep that moved anything costs at least one.
      stats.rounds = std::max<std::uint64_t>(
          1, ceil_div(root.max_link, config_.bandwidth_bits));
      for (std::size_t dst = 0; dst < k_; ++dst) {
        if (root.recv_msgs[dst] == 0) continue;
        metrics_.recv_bits_per_machine[dst] += root.recv_bits[dst];
        if (contexts_[dst]->finished_) {
          metrics_.dropped_messages += root.recv_msgs[dst];
        }
        root.recv_bits[dst] = 0;
        root.recv_msgs[dst] = 0;
      }
    }
    root.bits = root.msgs = root.max_link = 0;
    const bool all_finished =
        finished_count_.load(std::memory_order_acquire) == k_;
    // The final barrier episode where every machine has already finished
    // (the drain pass) is bookkeeping, not a superstep of the algorithm.
    if (!(all_finished && stats.messages == 0)) {
      if (config_.record_timeline) metrics_.timeline.push_back(stats);
      if (trace_) {
        // Root finalizer == sole holder of the fold phase; one counter
        // sample (and link matrix, if any) per counted superstep.
        trace_->fold_gate.assert_held();
        trace_->finalize_superstep(stats.superstep, stats.rounds,
                                   stats.messages, stats.bits,
                                   stats.max_link_bits);
      }
      ++metrics_.supersteps;
    }
    metrics_.rounds += stats.rounds;
    metrics_.messages += stats.messages;
    metrics_.bits += stats.bits;
    metrics_.max_link_bits_superstep =
        std::max(metrics_.max_link_bits_superstep, stats.max_link_bits);
    if (all_finished) stop = true;
    if (metrics_.supersteps > config_.max_supersteps) {
      record_first_error(std::make_exception_ptr(std::runtime_error(
          "Engine: superstep budget exhausted (runaway loop?)")));
      stop = true;
    }
  } catch (...) {
    // A throw out of the merge must not leave the other machines parked
    // forever: record it and stop, so the sense flip wakes everyone into
    // the abort path.
    record_first_error(std::current_exception());
    stop = true;
  }
  if (stop) stop_.store(true, std::memory_order_release);
  return stop;
}

void Engine::drain_inbound(MachineContext& ctx, std::vector<Message>& into) {
  // Runs on ctx's own thread with no lock held.  Safe: the sources wrote
  // these LinkOuts before arriving at the barrier we just left (the tree
  // barrier's release publishes them), and their next sends go to the
  // opposite parity.
  const std::size_t parity = ctx.barriers_passed_ & 1;
  ++ctx.barriers_passed_;
  std::size_t total = into.size();
  for (std::size_t src = 0; src < k_; ++src) {
    total += contexts_[src]->out_[parity][ctx.id_].messages.size();
  }
  into.reserve(total);
  for (std::size_t src = 0; src < k_; ++src) {
    auto& link = contexts_[src]->out_[parity][ctx.id_];
    if (!link.framed.empty()) {
      // Re-materialize framed payloads: the whole frame becomes one
      // refcounted buffer and each framed message gets a zero-copy slice
      // of it, restoring the exact bytes the sender wrote.
      PayloadRef frame(std::move(link.frame));
      Reader r(frame.view());
      for (const std::uint32_t idx : link.framed) {
        const std::uint64_t len = r.get_varint();
        const std::size_t offset = frame.size() - r.remaining();
        link.messages[idx].payload =
            frame.slice(offset, static_cast<std::size_t>(len));
        r.skip(static_cast<std::size_t>(len));
      }
      link.framed.clear();
    }
    into.insert(into.end(), std::make_move_iterator(link.messages.begin()),
                std::make_move_iterator(link.messages.end()));
    link.messages.clear();  // keeps capacity: slot pool across supersteps
  }
}

void Engine::discard_inbound(MachineContext& ctx) {
  const std::size_t parity = ctx.barriers_passed_ & 1;
  ++ctx.barriers_passed_;
  for (std::size_t src = 0; src < k_; ++src) {
    auto& link = contexts_[src]->out_[parity][ctx.id_];
    link.messages.clear();
    link.framed.clear();
    link.frame.clear();  // keeps capacity for the link's next superstep
  }
}

std::string Metrics::summary() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " supersteps=" << supersteps
     << " messages=" << messages << " bits=" << bits
     << " max_link_bits=" << max_link_bits_superstep
     << " max_recv_bits=" << max_recv_bits()
     << " dropped=" << dropped_messages << " wall_ms=" << wall_ms
     << " pool_hits=" << pool.hits << " pool_misses=" << pool.misses
     << " pool_evicted=" << pool.evicted
     << " pool_evicted_bytes=" << pool.evicted_bytes
     << " pool_buffers=" << pool.pooled_buffers
     << " pool_bytes=" << pool.pooled_bytes
     << " pool_shelf_returns=" << pool.shelf_returns
     << " pool_shelf_refills=" << pool.shelf_refills
     << " pool_shelf_buffers=" << pool.shelf_buffers
     << " payload_pool_hits=" << payload_pool.hits
     << " payload_pool_misses=" << payload_pool.misses
     << " payload_pool_recycled=" << payload_pool.recycled
     << " payload_pool_dropped=" << payload_pool.dropped
     << " payload_pool_objects=" << payload_pool.pooled_objects;
  if (timing.enabled) {
    os << " barrier_wait_max_ms=" << timing.barrier_wait_max_ms
       << " barrier_wait_mean_ms=" << timing.barrier_wait_mean_ms
       << " barrier_wait_skew=" << timing.barrier_wait_skew;
  }
  return os.str();
}

}  // namespace km
