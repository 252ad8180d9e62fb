// SPMD execution engine for the k-machine model.
//
// Engine::run(program) runs one *logical machine* per participant, all
// executing the same `program` (SPMD, like an MPI rank program).  A
// machine communicates by buffering messages with ctx.send() and calling
// ctx.exchange(), which is a synchronization point for *all* machines: the
// engine charges rounds per the bandwidth model (Section 1.1: a superstep
// costs max over links of ceil(bits / B) rounds, see sim/metrics.hpp) and
// returns each machine the messages addressed to it.  Local computation
// between exchanges is free, as in the paper.
//
// Execution model: machines are stackful fibers multiplexed over a
// bounded pool of EngineConfig::workers OS threads (sim/executor.hpp),
// dealt to workers statically, round-robin, in groups of up to four
// consecutive ids.  A machine that reaches the superstep barrier parks
// its fiber — the worker switches to its next runnable machine instead
// of blocking — so k can exceed the core count by orders of
// magnitude (k = 4096 on a laptop is the paper's regime, not a special
// case).  Scheduling is invisible to results: rounds, bits, delivery
// order, and every serialized artifact are identical at every worker
// count (the Determinism suite sweeps workers to prove it).
//
// Message plane (three-phase exchange protocol):
//  - Phase 1 (pre-bucket, outside any lock): send() buckets each message
//    into a per-destination LinkOut owned by the sending machine and
//    accumulates that link's bit/message counters on the fly, so by the
//    time a machine arrives at the barrier its outbound traffic is fully
//    bucketed and costed.  Small payloads (1 byte up to the threshold
//    framed_payload_default_bytes() in sim/message.hpp derives from B)
//    produced by the Writer/vector/span overloads are *framed*, a link's
//    first message included: they are appended to the sender's outbox
//    slab — one per machine per barrier parity, shared by all of its
//    links — as u32 next | u16 tag | u16 len | payload bytes, and each
//    LinkOut chains its entries by slab offset (head, tail, the framed
//    byte total).  No Message is built at send time and no buffer is
//    taken per message or per link: the model's common case is one or
//    two O(log n)-bit messages on each of many links per superstep, so
//    a superstep's framed traffic costs each sender one growing slab.
//    The span overload copies caller-owned bytes — into the slab when
//    framed, otherwise into a buffer of exactly the payload's size — so
//    one payload sent to many peers costs no per-send heap copy of its
//    own and never pins a pooled buffer of arbitrary capacity.  Unframed
//    messages (PayloadRef sends, broadcast(), empty payloads, payloads
//    over the threshold) go to a side vector with their position on the
//    link.  broadcast() and the PayloadRef overload are never framed:
//    they share one immutable PayloadRef across receivers (zero-copy),
//    which is already cheaper than k-1 copies.  Collectives send no
//    message at all: all_gather charges each of the machine's k-1
//    links one message of the value's varint, as a broadcast would, and
//    writes the value into the engine's per-machine slot array, which
//    every machine reads after the barrier.  Accounting is
//    deliberately *unbatched*: every message is still charged
//    Message::kHeaderBits + 8 * payload_bytes against its link, framed or
//    not, so rounds/bits/max_link_bits are byte-identical to an
//    unbatched plane (tests/test_exchange_determinism.cpp enforces
//    this).
//  - Phase 2 (merge, per worker, then once): the superstep rendezvous
//    is a barrier among the W workers (sim/barrier.hpp).  An arriving
//    machine folds its out_bits_/out_msgs_ row into its worker's
//    accumulator with plain adds — a worker runs one fiber at a time —
//    and parks.  The worker's last live machine to arrive arrives the
//    worker; the last worker to arrive folds the W accumulators and
//    finalizes the superstep: rounds = ceil(max link bits / B),
//    per-machine recv bits, dropped-message bookkeeping, timeline,
//    stop/budget checks.  Payloads never pass through the barrier; only
//    integers fold.
//  - Phase 3 (delivery, lock-free): after release each machine drains the
//    LinkOuts addressed to it from all k sources in ascending source
//    order, in parallel with every other machine, without any lock.  A
//    first pass over the k sources sizes the inbox from the per-link
//    message counts and one inbox arena from the framed byte totals; the
//    second walks each link's slab chain, copies every framed payload
//    into the arena, and constructs each Message in place in the inbox —
//    framed ones as slices of the arena, whose reference count is set
//    once for all of them, unframed ones at their recorded positions —
//    in exact send order.  A superstep therefore takes one buffer per
//    receiver (allocated and released on the receiver's own worker) and
//    one slab per sender, O(k) buffers however many links are active,
//    and no delivered payload points into a sender's slab.  LinkOuts and
//    slabs are double-buffered by barrier parity so the drain of
//    superstep s never races the sends of superstep s+1; a machine
//    resets the slab it fills next right after passing a barrier, when
//    every receiver has drained it.  The worker barrier's acq_rel
//    countdown and its release of the episode bump provide the
//    happens-before edges (tsan verified by the CI tsan job).
//
// Conventions:
//  - All machines must call exchange() in lockstep (same count, same
//    order).  Data-dependent loop bounds must be agreed on through the
//    provided collectives, which cost rounds through the same accounting.
//  - Determinism: machine i's RNG is seeded from (config.seed, i), a
//    machine's code runs sequentially between barriers, and delivery
//    order is ascending source then send order, so results do not depend
//    on thread scheduling.
//  - A machine that returns from `program` arrives at the barrier once
//    more, folding the sends it made after its last exchange, and its
//    fiber exits; a worker with no live machine left leaves the barrier.
//    Messages sent to a finished machine are counted as dropped (tests
//    assert this never happens) and discarded by the finalizer.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/barrier.hpp"
#include "util/annotations.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace km {

struct EngineConfig {
  std::uint64_t bandwidth_bits = 256;  ///< B, per link per round
  std::uint64_t seed = 0x5eedULL;      ///< base seed for machine RNGs
  std::uint64_t max_supersteps = 1'000'000;  ///< runaway-loop backstop
  /// Record a per-superstep SuperstepStats timeline in Metrics::timeline.
  bool record_timeline = false;
  /// Record wall-time phase spans (compute/send/barrier_wait/deliver per
  /// machine per superstep) and per-superstep counter events into a
  /// TraceSession (sim/trace.hpp), surfaced via Engine::trace_session()
  /// and Metrics::timing.  Same opt-in pattern as record_timeline: off
  /// means one predictable null-pointer branch per seam.  Tracing never
  /// perturbs rounds/bits/delivery (tests/test_trace.cpp proves
  /// byte-identity).
  bool trace = false;
  /// With `trace`: also record the opt-in per-superstep k x k link-bits
  /// matrix (O(k^2) memory per traffic-carrying superstep).
  bool trace_links = false;
  /// Test-only fault injection: invoked on the finalizer at the start of
  /// every superstep merge (all machines arrived, none released).  A
  /// throw from here must abort the run cleanly — captured as the run's
  /// first error and released to every parked machine as a stop, never a
  /// deadlock.
  std::function<void(std::uint64_t superstep)> barrier_fault_injection = {};
  /// OS threads the executor multiplexes the k machine fibers over; 0
  /// means hardware concurrency.  The executor uses at most this many,
  /// deals machines to them in round-robin groups, and gives every
  /// worker at least one machine (sim/executor.hpp).
  /// Pure execution policy: results are byte-identical at every
  /// setting (like `trace`, it is deliberately absent from serialized
  /// run parameters).
  std::size_t workers = 0;

  /// Bandwidth used throughout the paper: B = Theta(polylog n).
  /// We use B = 16 * ceil(log2 n)^2 bits (a handful of O(log n)-bit
  /// messages per link per round).
  static std::uint64_t default_bandwidth(std::size_t n) noexcept;
};

class Engine;
class Executor;
class TraceSession;
class MachineTraceBuffer;

/// Per-machine handle: identity, RNG, messaging, collectives.
class MachineContext {
 public:
  std::size_t id() const noexcept { return id_; }
  std::size_t k() const noexcept;
  Rng& rng() noexcept { return rng_; }
  const EngineConfig& config() const noexcept;

  /// Buffer a message for the next exchange. dst != id().
  void send(std::size_t dst, std::uint16_t tag, PayloadRef payload);
  void send(std::size_t dst, std::uint16_t tag, std::vector<std::byte> payload);
  void send(std::size_t dst, std::uint16_t tag, Writer& writer);
  /// Copies the bytes: into the sender's slab when framed, otherwise into
  /// a buffer of exactly payload.size().  For one payload sent to many
  /// peers from caller-owned storage.
  void send(std::size_t dst, std::uint16_t tag,
            std::span<const std::byte> payload);

  /// Buffer the same payload to every other machine (k-1 messages sharing
  /// one immutable buffer — zero-copy).  Consumes the writer's contents.
  void broadcast(std::uint16_t tag, Writer& writer);

  /// Superstep boundary: flush sends, synchronize with all machines,
  /// return the messages delivered to this machine (ascending source,
  /// then send order; messages delivered during collectives first).
  std::vector<Message> exchange();

  // ---- Collectives (each costs one superstep) ----
  // Charged as a broadcast of the value's varint, delivered without
  // messages.  A machine that has finished contributes 0.  Messages the
  // collective's exchange delivers are kept, in order, for the next
  // exchange().
  std::uint64_t all_reduce_sum(std::uint64_t value);
  std::uint64_t all_reduce_max(std::uint64_t value);
  bool all_reduce_or(bool value);
  std::vector<std::uint64_t> all_gather(std::uint64_t value);

 private:
  friend class Engine;
  MachineContext(Engine* engine, std::size_t id, Rng rng);

  /// A message that does not ride the slab, with its position among
  /// the link's messages of the superstep (send order).
  struct Unframed {
    PayloadRef payload;
    std::uint32_t pos = 0;
    std::uint16_t tag = 0;
  };
  /// One link's pre-bucketed outbound traffic for one superstep parity:
  /// `count` messages in send order.  The framed ones (count -
  /// unframed.size() of them, `framed_bytes` payload bytes in all) are
  /// entries of the sender's slab of the same parity, chained from
  /// `head` to `tail` by slab offset; the rest sit in `unframed`,
  /// ascending by position.
  struct LinkOut {
    std::uint32_t count = 0;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::uint32_t framed_bytes = 0;
    std::vector<Unframed> unframed;
  };
  static_assert(sizeof(LinkOut) ==
                4 * sizeof(std::uint32_t) + sizeof(std::vector<Unframed>));
  /// One barrier parity's outbox: every framed entry the machine sent in
  /// that superstep, all links interleaved in send order.  Grown
  /// geometrically and never shrunk within a run; `used` is reset once
  /// per superstep by its owner (Engine::drain_inbound).
  struct Slab {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// Validates dst and returns its current-parity LinkOut.
  LinkOut& link_for(std::size_t dst);
  /// Charges the link (unbatched formula) and updates the sender's row
  /// aggregates.  Every send path funnels through here.
  void account_send(std::size_t dst, std::uint64_t payload_bytes);
  /// Transport policy: non-empty payloads up to
  /// framed_payload_default_bytes(B) ride the sender's slab, whatever
  /// else the link carries; an empty payload has no bytes to copy and
  /// rides `unframed` ownerless.  Never affects accounting or delivery
  /// order.
  bool should_frame(std::size_t payload_bytes) const;
  /// Appends a small payload to the current-parity slab and chains it
  /// behind the link's tail.  Throws std::length_error if the slab would
  /// grow past 2^32 - 1 bytes (its offsets are 32-bit).
  void send_framed(LinkOut& link, std::size_t dst, std::uint16_t tag,
                   std::span<const std::byte> payload);
  /// Records a message that keeps its own PayloadRef.
  void send_unframed(LinkOut& link, std::size_t dst, std::uint16_t tag,
                     PayloadRef payload);

  Engine* engine_;
  std::size_t id_;
  Rng rng_;

  // Pre-bucketed outbound traffic (phase 1 of the exchange protocol).
  // Double-buffered by barrier parity: sends of superstep s fill parity
  // s&1 while receivers drain parity (s-1)&1 from the previous barrier.
  // Vectors keep their capacity across supersteps (slot pooling).
  std::array<std::vector<LinkOut>, 2> out_;
  std::array<Slab, 2> slab_;  ///< framed entries, by the same parity
  std::vector<std::uint64_t> out_bits_;   ///< per-destination bit totals
  std::vector<std::uint64_t> out_msgs_;   ///< per-destination msg counts
  // Row aggregates over out_bits_/out_msgs_, maintained incrementally by
  // account_send() so the arrival fold reads three scalars instead of
  // re-scanning the row.
  std::uint64_t row_bits_ = 0;   ///< sum over dst of out_bits_[dst]
  std::uint64_t row_msgs_ = 0;   ///< sum over dst of out_msgs_[dst]
  std::uint64_t row_max_ = 0;    ///< max over dst of out_bits_[dst]
  std::uint64_t barriers_passed_ = 0;     ///< drives the bucket parity

  std::vector<Message> stashed_;  // messages delivered during collectives
  bool finished_ = false;

  /// This machine's span recorder, or null when the run is untraced.
  /// Single-writer from this machine's own thread (sim/trace.hpp).
  MachineTraceBuffer* trace_ = nullptr;
};

using Program = std::function<void(MachineContext&)>;

class Engine {
 public:
  /// Throws std::invalid_argument when k or config.bandwidth_bits is 0.
  Engine(std::size_t k, EngineConfig config = {});

  std::size_t k() const noexcept { return k_; }
  const EngineConfig& config() const noexcept { return config_; }

  /// Runs the SPMD program on k machine fibers scheduled over the worker
  /// pool (EngineConfig::workers); blocks until all finish.
  /// Rethrows the first exception any machine threw.  Machine state is
  /// torn down on every exit path (RAII), so a failed run never leaks
  /// stale contexts into the next one.
  Metrics run(const Program& program);

  /// The last run's trace (EngineConfig::trace), or null when the run was
  /// untraced.  Valid after run() returns; shared so results can outlive
  /// the engine (RunResult::trace).
  std::shared_ptr<const TraceSession> trace_session() const noexcept {
    return trace_;
  }

 private:
  friend class MachineContext;

  /// Bits and messages addressed to one destination.
  struct LinkTotal {
    std::uint64_t bits = 0;
    std::uint64_t msgs = 0;
  };
  /// One worker's share of a superstep's fold: the traffic of its
  /// machines that arrived this episode, with per-destination column
  /// sums that become recv_bits_per_machine and the dropped-message
  /// count.  The worker's machines add to it one fiber at a time; the
  /// finalizer reads it and zeroes it, so every episode starts from
  /// zeros.
  struct WorkerFold {
    std::uint64_t bits = 0;
    std::uint64_t msgs = 0;
    std::uint64_t max_link = 0;
    std::vector<LinkTotal> recv;  ///< length k
    std::size_t live = 0;     ///< the worker's machines not yet finished
    std::size_t pending = 0;  ///< live machines yet to arrive this episode
  };

  /// Folds machine `ctx`'s counter row into its worker's accumulator;
  /// when `ctx` is the worker's last live machine to arrive, arrives the
  /// worker at the barrier (leaving it if no live machine remains), and
  /// the last worker to arrive finalizes.  A finished machine arrives
  /// once this way and does not wait.
  void arrive(MachineContext& ctx);
  /// exchange()'s rendezvous: arrive(), then park the calling fiber with
  /// the executor until the episode moves; returns true when the engine
  /// has stopped (superstep budget exhausted, or a merge failed).
  bool arrive_and_wait(MachineContext& ctx);
  /// One machine's whole lifetime on its fiber: trace origin, the user
  /// program, and its last arrival.
  void machine_main(const Program& program, std::size_t who);
  // Executor callbacks (C-style so parked-machine polling stays an
  // atomic load, no std::function indirection on the scheduler path).
  static bool machine_released(void* self, std::size_t who);
  static std::uint64_t idle_epoch(void* self);
  static void idle_wait(void* self, std::uint64_t seen);
  /// Runs once per superstep on the last worker to arrive: folds the W
  /// worker accumulators into round/bit metrics and the stop decision,
  /// and discards the links addressed to finished machines.  Never
  /// throws — failures (fault injection) become first_error_ + stop.
  bool finalize_superstep() KM_REQUIRES(barrier_.fold_phase);
  /// Records `error` as the run's first error if none is set yet.
  void record_first_error(std::exception_ptr error) KM_EXCLUDES(mutex_);
  void set_first_error_locked(std::exception_ptr error)
      KM_REQUIRES(mutex_);

  /// Lock-free delivery (phase 3): builds every message addressed to
  /// `ctx` from the sources' parity LinkOuts in place at the end of
  /// `into`, ascending source then send order, framed payloads copied
  /// out of the sources' slabs into one inbox arena and handed out as
  /// slices of it.  Advances the context's bucket parity and resets the
  /// slab it fills next.
  void drain_inbound(MachineContext& ctx, std::vector<Message>& into);

  std::size_t k_;
  EngineConfig config_;
  /// Largest payload (bytes) should_frame() puts on the sender's slab:
  /// framed_payload_default_bytes(config_.bandwidth_bits).
  std::size_t frame_threshold_;

  std::vector<std::unique_ptr<MachineContext>> contexts_;

  /// One machine's all_gather value, stamped with the superstep it was
  /// given in (its barriers passed, plus one).
  struct CollectiveSlot {
    std::uint64_t value = 0;
    std::uint64_t stamp = 0;
  };
  /// all_gather's values, indexed by machine and double-buffered by
  /// barrier parity like the LinkOuts: each machine writes its own slot
  /// before it arrives and reads all k after the release, and cannot
  /// write that parity again until every live machine has arrived at
  /// the next barrier, i.e. has read it.
  std::array<std::vector<CollectiveSlot>, 2> collective_;

  /// Recreated at the top of each traced run; machine threads write their
  /// own buffers through MachineContext::trace_, arrivals and the
  /// finalizer write the counter/link streams under the fold protocol.
  std::shared_ptr<TraceSession> trace_;

  WorkerBarrier barrier_;
  // Fold-phase state: written only while holding barrier_.fold_phase —
  // by arrivals (each into its own worker's fold and its own machine's
  // entries) and the finalizer inside a barrier episode, and by
  // Engine::run in its single-threaded prologue/epilogue (which acquires
  // the phantom capability to make that exclusivity explicit to the
  // analysis).
  std::vector<WorkerFold> folds_  ///< indexed by worker
      KM_GUARDED_BY(barrier_.fold_phase);
  Metrics metrics_ KM_GUARDED_BY(barrier_.fold_phase);

  /// The pool the current run's machine fibers execute on; non-null only
  /// while run() is live (machines park themselves through it).
  Executor* executor_ = nullptr;

  mutable Mutex mutex_;  // guards first_error_ only
  std::exception_ptr first_error_ KM_GUARDED_BY(mutex_);
};

}  // namespace km
