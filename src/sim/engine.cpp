#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Header of one framed entry in a sender's slab; the payload's `len`
/// bytes follow it.  `next` is the slab offset of the link's next framed
/// entry (unread on the link's last one).  A fixed-width length suffices:
/// the framing threshold never exceeds kFramedPayloadMaxDefaultBytes.
struct SlabEntry {
  std::uint32_t next;
  std::uint16_t tag;
  std::uint16_t len;
};
static_assert(sizeof(SlabEntry) == 8);
static_assert(kFramedPayloadMaxDefaultBytes <= UINT16_MAX);

/// Slab offsets and a link's framed byte count are 32-bit.
constexpr std::size_t kMaxSlabBytes = UINT32_MAX;
constexpr std::size_t kMinSlabBytes = 256;
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
  // the barrier folds only counters.  The row aggregates keep the
  // arrival fold O(1) per machine scalar.
  const std::uint64_t bits = Message::kHeaderBits + payload_bytes * 8;
  out_bits_[dst] += bits;
  out_msgs_[dst] += 1;
  row_bits_ += bits;
  row_msgs_ += 1;
  row_max_ = std::max(row_max_, out_bits_[dst]);
}

bool MachineContext::should_frame(std::size_t payload_bytes) const {
  return payload_bytes != 0 && payload_bytes <= engine_->frame_threshold_;
}

void MachineContext::send_framed(LinkOut& link, std::size_t dst,
                                 std::uint16_t tag,
                                 std::span<const std::byte> payload) {
  // One slab per (sender, parity) holds every link's framed entries of
  // the superstep, each chained behind its link's previous one, so a
  // superstep's framed traffic costs this machine one growing buffer
  // rather than one per active link.
  Slab& slab = slab_[barriers_passed_ & 1];
  const std::size_t at = slab.used;
  const std::size_t end = at + sizeof(SlabEntry) + payload.size();
  if (end > slab.capacity) {
    if (end > kMaxSlabBytes) {
      throw std::length_error(
          "MachineContext::send: outbox slab over 2^32 - 1 bytes in one "
          "superstep");
    }
    const std::size_t capacity = std::min(
        kMaxSlabBytes, std::max({end, 2 * slab.capacity, kMinSlabBytes}));
    // Default-initialized: pages are touched only as entries fill them.
    std::unique_ptr<std::byte[]> grown(new std::byte[capacity]);
    if (at != 0) std::memcpy(grown.get(), slab.bytes.get(), at);
    slab.bytes = std::move(grown);
    slab.capacity = capacity;
  }
  account_send(dst, payload.size());
  std::byte* base = slab.bytes.get();
  const SlabEntry entry{.next = 0,
                        .tag = tag,
                        .len = static_cast<std::uint16_t>(payload.size())};
  std::memcpy(base + at, &entry, sizeof entry);
  std::memcpy(base + at + sizeof entry, payload.data(), payload.size());
  const auto offset = static_cast<std::uint32_t>(at);
  if (link.count == link.unframed.size()) {
    link.head = offset;  // the link's first framed entry
  } else {
    std::memcpy(base + link.tail + offsetof(SlabEntry, next), &offset,
                sizeof offset);
  }
  link.tail = offset;
  link.framed_bytes += static_cast<std::uint32_t>(payload.size());
  ++link.count;
  slab.used = end;
}

void MachineContext::send_unframed(LinkOut& link, std::size_t dst,
                                   std::uint16_t tag, PayloadRef payload) {
  account_send(dst, payload.size());
  link.unframed.push_back(
      {.payload = std::move(payload), .pos = link.count, .tag = tag});
  ++link.count;
}

void MachineContext::send(std::size_t dst, std::uint16_t tag,
                          PayloadRef payload) {
  const SendTimer timer(trace_);
  send_unframed(link_for(dst), dst, tag, std::move(payload));
}

void MachineContext::send(std::size_t dst, std::uint16_t tag,
                          std::vector<std::byte> payload) {
  const SendTimer timer(trace_);
  LinkOut& link = link_for(dst);
  if (should_frame(payload.size())) {
    send_framed(link, dst, tag, payload);
    recycle_buffer(std::move(payload));
  } else {
    send_unframed(link, dst, tag, PayloadRef(std::move(payload)));
  }
}

void MachineContext::send(std::size_t dst, std::uint16_t tag, Writer& writer) {
  const SendTimer timer(trace_);
  LinkOut& link = link_for(dst);
  if (should_frame(writer.size_bytes())) {
    send_framed(link, dst, tag, writer.view());
    writer.clear();  // consumed; capacity stays with the writer
  } else {
    send_unframed(link, dst, tag, PayloadRef(writer.take()));
  }
}

void MachineContext::send(std::size_t dst, std::uint16_t tag,
                          std::span<const std::byte> payload) {
  const SendTimer timer(trace_);
  LinkOut& link = link_for(dst);
  if (should_frame(payload.size())) {
    send_framed(link, dst, tag, payload);
  } else {
    send_unframed(
        link, dst, tag,
        PayloadRef(std::vector<std::byte>(payload.begin(), payload.end())));
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
  if (engine_->arrive_and_wait(*this)) {
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

std::uint64_t Gathered::sum() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t v : values) total += v;
  return total;
}

Gathered MachineContext::exchange_gather(std::uint64_t value) {
  // Charged as a broadcast of the value's varint: one message to every
  // peer, so rounds, bits, link maxima, drops and link traces fold from
  // the counters exactly as for k - 1 sends, added to whatever this
  // machine sent this superstep.  The value itself travels through the
  // engine's slot array; no Message is built.
  {
    const SendTimer timer(trace_);
    const std::size_t bytes = varint_size(value);
    for (std::size_t dst = 0; dst < k(); ++dst) {
      if (dst != id_) account_send(dst, bytes);
    }
  }
  std::vector<Engine::CollectiveSlot>& slots =
      engine_->collective_[barriers_passed_ & 1];
  const std::uint64_t stamp = barriers_passed_ + 1;
  slots[id_] = {.value = value, .stamp = stamp};
  Gathered gathered{.messages = exchange(),
                    .values = std::vector<std::uint64_t>(k(), 0)};
  for (std::size_t m = 0; m < gathered.values.size(); ++m) {
    // A stale stamp is a machine that finished before this superstep:
    // it contributes 0.
    if (slots[m].stamp == stamp) gathered.values[m] = slots[m].value;
  }
  return gathered;
}

std::vector<std::uint64_t> MachineContext::all_gather(std::uint64_t value) {
  // Everything the superstep delivers, stashed leftovers first, goes
  // back into the stash in order.
  Gathered gathered = exchange_gather(value);
  stashed_ = std::move(gathered.messages);
  return std::move(gathered.values);
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
      frame_threshold_(framed_payload_default_bytes(config_.bandwidth_bits)) {
  if (k_ < 1) throw std::invalid_argument("Engine: k must be >= 1");
  if (config_.bandwidth_bits < 1) {
    throw std::invalid_argument("Engine: bandwidth must be >= 1 bit");
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
  // Stamps restart with the contexts' barrier counts: clear last run's.
  for (auto& slots : collective_) slots.assign(k_, CollectiveSlot{});
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
    // machine parks at the barrier the worker polls machine_released()
    // for it; when all of a worker's machines are parked it futex-waits
    // on the barrier's episode word (the only event that can make a
    // parked machine runnable).
    Executor executor(k_, config_.workers,
                      IdleHooks{.epoch = &Engine::idle_epoch,
                                .wait = &Engine::idle_wait,
                                .arg = this});
    // Single-threaded prologue: no worker runs yet, so this thread
    // trivially has fold-phase exclusivity over the metrics and the
    // folds (the phantom acquire is free and keeps the guarded members
    // compile-checked).  An aborted run leaves folded-but-unconsumed
    // accumulators behind; re-arm everything for the executor's W'
    // workers before the first machine runs.
    barrier_.fold_phase.acquire();
    metrics_ = Metrics{};
    metrics_.send_bits_per_machine.assign(k_, 0);
    metrics_.recv_bits_per_machine.assign(k_, 0);
    folds_.assign(executor.worker_count(),
                  WorkerFold{.recv = std::vector<LinkTotal>(k_)});
    for (std::size_t m = 0; m < k_; ++m) {
      WorkerFold& fold = folds_[executor.worker_of(m)];
      ++fold.live;
      ++fold.pending;
    }
    barrier_.reset(executor.worker_count());
    barrier_.fold_phase.release();
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
  // One last arrival folds the sends made after the last exchange and
  // takes the machine out of its worker's count; then the fiber exits.
  // Once the engine has stopped no episode follows (the stop flag is
  // stable here: the barrier cannot finalize while this machine's worker
  // still waits for it).
  contexts_[who]->finished_ = true;  // published by the arrival
  if (!barrier_.stop_flag()) arrive(*contexts_[who]);
}

bool Engine::machine_released(void* self, std::size_t who) {
  // A parked machine has passed as many barriers as there are completed
  // episodes; the episode cannot move twice while it is parked, because
  // the next episode needs its worker to arrive again.
  const auto* engine = static_cast<const Engine*>(self);
  return engine->barrier_.episode() !=
         static_cast<std::uint32_t>(engine->contexts_[who]->barriers_passed_);
}

std::uint64_t Engine::idle_epoch(void* self) {
  return static_cast<Engine*>(self)->barrier_.episode();
}

void Engine::idle_wait(void* self, std::uint64_t seen) {
  static_cast<Engine*>(self)->barrier_.wait(static_cast<std::uint32_t>(seen));
}

void Engine::record_first_error(std::exception_ptr error) {
  const MutexLock lock(mutex_);
  set_first_error_locked(std::move(error));
}

void Engine::set_first_error_locked(std::exception_ptr error) {
  if (!first_error_) first_error_ = std::move(error);
}

void Engine::arrive(MachineContext& ctx) {
  // Phase 2 of the exchange protocol, machine half: runs on ctx's own
  // fiber.  A worker runs one fiber at a time and the finalizer reads
  // this worker's fold only after the worker's acq_rel arrival, so the
  // worker's machines own the fold until then; each writes only its own
  // entries of the send-bits vector and of the trace link matrix.  That
  // is the fold-phase exclusivity the writes below need.  Only
  // pre-computed integer counters fold here — payloads never ride the
  // barrier — and the row is zeroed as it is consumed.
  barrier_.fold_phase.assert_held();
  WorkerFold& fold = folds_[executor_->worker_of(ctx.id_)];
  if (ctx.row_msgs_ != 0) {
    if (trace_ && trace_->links_enabled()) {
      // Snapshot the row before the zeroing below destroys it.
      trace_->fold_gate.assert_held();
      trace_->record_link_row(ctx.id_, ctx.out_bits_.data());
    }
    fold.bits += ctx.row_bits_;
    fold.msgs += ctx.row_msgs_;
    fold.max_link = std::max(fold.max_link, ctx.row_max_);
    metrics_.send_bits_per_machine[ctx.id_] += ctx.row_bits_;
    for (std::size_t dst = 0; dst < k_; ++dst) {
      if (ctx.out_msgs_[dst] == 0) continue;
      fold.recv[dst].bits += ctx.out_bits_[dst];
      fold.recv[dst].msgs += ctx.out_msgs_[dst];
      ctx.out_bits_[dst] = 0;
      ctx.out_msgs_[dst] = 0;
    }
    ctx.row_bits_ = ctx.row_msgs_ = ctx.row_max_ = 0;
  }
  if (ctx.finished_) --fold.live;
  if (--fold.pending != 0) return;
  // The worker's last live machine: every other one is parked (or gone),
  // so the count re-arms here, before the worker arrives.
  fold.pending = fold.live;
  barrier_.arrive(fold.live == 0, [this] {
    // WorkerBarrier::arrive holds fold_phase across this hook (the
    // countdown's last arrival elected us); the lambda is analyzed in
    // isolation, so restate that fact for the analysis.
    barrier_.fold_phase.assert_held();
    return finalize_superstep();
  });
}

bool Engine::arrive_and_wait(MachineContext& ctx) {
  arrive(ctx);
  if (!machine_released(this, ctx.id_)) {
    // Machine-granular wait: yield this fiber back to the worker, which
    // runs its other machines and resumes us once the episode moves.
    executor_->park(ctx.id_, &Engine::machine_released, this);
  }
  return barrier_.stop_flag();
}

bool Engine::finalize_superstep() {
  // Runs once per superstep on the last worker to arrive; by the acq_rel
  // countdown it happens-after every machine's sends, finish flag, and
  // every worker's fold.  Must not throw: failures become first_error_
  // plus a stop that the episode bump releases.
  bool stop = false;
  try {
    if (config_.barrier_fault_injection) {
      config_.barrier_fault_injection(metrics_.supersteps);
    }
    SuperstepStats stats{.superstep = metrics_.supersteps};
    for (const WorkerFold& fold : folds_) {
      stats.messages += fold.msgs;
      stats.bits += fold.bits;
      stats.max_link_bits = std::max(stats.max_link_bits, fold.max_link);
    }
    if (stats.messages > 0) {
      // Section 1.1's cost model: the busiest link carries B bits per
      // round, and a superstep that moved anything costs at least one.
      stats.rounds = std::max<std::uint64_t>(
          1, ceil_div(stats.max_link_bits, config_.bandwidth_bits));
      // Every sender of this episode has passed as many barriers as
      // there are completed episodes: that count's parity holds its sends.
      const std::size_t parity = barrier_.episode() & 1;
      for (std::size_t dst = 0; dst < k_; ++dst) {
        LinkTotal to;
        for (WorkerFold& fold : folds_) {
          if (fold.msgs == 0) continue;
          to.bits += fold.recv[dst].bits;
          to.msgs += fold.recv[dst].msgs;
          fold.recv[dst] = {};
        }
        if (to.msgs == 0) continue;
        metrics_.recv_bits_per_machine[dst] += to.bits;
        if (!contexts_[dst]->finished_) continue;
        // Nobody drains a finished machine's links: count their messages
        // as dropped and reset the links here.
        metrics_.dropped_messages += to.msgs;
        for (const auto& src : contexts_) {
          MachineContext::LinkOut& link = src->out_[parity][dst];
          link.unframed.clear();
          link.count = 0;
          link.framed_bytes = 0;
        }
      }
    }
    for (WorkerFold& fold : folds_) fold.bits = fold.msgs = fold.max_link = 0;
    // The barrier re-armed before this hook: no participant left means
    // every worker's machines have all finished.
    const bool all_finished = barrier_.participants() == 0;
    // The last episode holds only finished machines' final arrivals: it is
    // bookkeeping, not a superstep of the algorithm, unless they carried
    // sends made after the last exchange.
    if (!(all_finished && stats.messages == 0)) {
      if (config_.record_timeline) metrics_.timeline.push_back(stats);
      if (trace_) {
        // The finalizer is the sole holder of the fold phase; one counter
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
    // forever: record it and stop, so the episode bump wakes everyone
    // into the abort path.
    record_first_error(std::current_exception());
    stop = true;
  }
  return stop;
}

void Engine::drain_inbound(MachineContext& ctx, std::vector<Message>& into) {
  // Runs on ctx's own thread with no lock held.  Safe: the sources wrote
  // these LinkOuts and slabs before arriving at the barrier we just left
  // (the episode bump publishes them), and their next sends go to the
  // opposite parity.
  const std::size_t parity = ctx.barriers_passed_ & 1;
  ++ctx.barriers_passed_;
  // Every receiver drained the slab this machine fills next before it
  // arrived at the barrier just passed: the LinkOuts' parity invariant.
  ctx.slab_[ctx.barriers_passed_ & 1].used = 0;
  const auto dst = static_cast<std::uint32_t>(ctx.id_);
  std::size_t total = into.size();
  std::size_t framed = 0;
  std::size_t framed_bytes = 0;
  for (std::size_t src = 0; src < k_; ++src) {
    const MachineContext::LinkOut& link = contexts_[src]->out_[parity][dst];
    // An empty link costs one read of its count (at huge k most are).
    if (link.count == 0) continue;
    total += link.count;
    framed += link.count - link.unframed.size();
    framed_bytes += link.framed_bytes;
  }
  // Nothing below allocates or throws once the inbox and the arena are
  // sized, so every reference share() counts is adopted.
  into.reserve(total);
  // One inbox arena per receiver per superstep: every framed payload is
  // copied out of its sender's slab into it and handed out as a slice,
  // so the buffer is allocated and released on this machine's worker
  // and no sender's slab outlives the superstep through a Message.
  detail::PayloadBuf* arena = nullptr;
  std::byte* fill = nullptr;
  if (framed != 0) {
    std::vector<std::byte> bytes = acquire_buffer();
    bytes.resize(framed_bytes);
    arena = PayloadRef::share(std::move(bytes), framed);
    fill = arena->bytes.data();
  }
  for (std::size_t src = 0; src < k_; ++src) {
    MachineContext::LinkOut& link = contexts_[src]->out_[parity][dst];
    if (link.count == 0) continue;
    const auto from = static_cast<std::uint32_t>(src);
    const std::byte* slab = contexts_[src]->slab_[parity].bytes.get();
    std::uint32_t at = link.head;
    // Copies one entry out (as send_framed wrote it: the walk trusts the
    // chain and checks no bounds) and follows the link's chain.
    const auto deliver_framed = [&] {
      SlabEntry entry;
      std::memcpy(&entry, slab + at, sizeof entry);
      std::memcpy(fill, slab + at + sizeof entry, entry.len);
      into.emplace_back(from, dst, entry.tag,
                        PayloadRef(arena, {fill, entry.len}));
      fill += entry.len;
      at = entry.next;
    };
    std::uint32_t pos = 0;
    for (MachineContext::Unframed& msg : link.unframed) {
      for (; pos < msg.pos; ++pos) deliver_framed();
      into.emplace_back(from, dst, msg.tag, std::move(msg.payload));
      ++pos;
    }
    for (; pos < link.count; ++pos) deliver_framed();
    link.unframed.clear();  // keeps capacity: slot pool across supersteps
    link.count = 0;
    link.framed_bytes = 0;
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
