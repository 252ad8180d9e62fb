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
// bounded pool of EngineConfig::workers OS threads (sim/executor.hpp) in
// static contiguous blocks.  A machine that reaches the superstep
// barrier parks its fiber — the worker switches to its next runnable
// machine instead of blocking — so barrier arrival/release is
// machine-granular and k can exceed the core count by orders of
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
//    bucketed and costed.  Small payloads (<= the threshold
//    framed_payload_default_bytes() in sim/message.hpp derives from B)
//    produced by the Writer/vector/span overloads are
//    *framed* from the link's second message of the superstep onward:
//    their bytes are appended to one length-prefixed frame buffer per
//    (src, dst, superstep) — layout per entry:
//    varint(payload_len) | payload bytes — instead of each becoming a
//    refcounted heap buffer of its own.  (A link's first message has
//    nothing to amortize the copy against and takes the zero-copy
//    path.)  One pooled frame buffer
//    amortizes the per-message fixed cost (PayloadBuf object + refcount
//    traffic + allocator round trip) across every small message on the
//    link, which is what dominates tiny-payload workloads.  The span
//    overload copies caller-owned bytes — into the frame when framed,
//    otherwise into a buffer of exactly the payload's size — so one
//    payload sent to many peers costs no per-send heap copy of its own
//    and never pins a pooled buffer of arbitrary capacity.  Accounting is
//    deliberately *unbatched*: every message is still charged
//    Message::kHeaderBits + 8 * payload_bytes against its link, framed or
//    not, so rounds/bits/max_link_bits are byte-identical to an
//    unbatched plane (tests/test_exchange_determinism.cpp enforces
//    this).  broadcast() and the PayloadRef overload are never framed:
//    they share one immutable PayloadRef across receivers (zero-copy),
//    which is already cheaper than copying into k-1 frames.
//  - Phase 2 (merge, folding up the barrier tree): the superstep
//    rendezvous is a sense-reversing arity-4 combining-tree barrier
//    (sim/barrier.hpp).  The last arriver at each tree node folds its
//    children's per-link counters into the node's accumulator — machines'
//    out_bits_/out_msgs_ rows at the leaves, child accumulators at
//    internal nodes — so the merge that used to be O(k^2) on the last
//    thread is now O(arity * k) per folder, pipelined up the tree.  The
//    root's last arriver finalizes the superstep: rounds =
//    ceil(max link bits / B), per-machine recv bits, dropped-message
//    bookkeeping, timeline, stop/budget checks.  Payloads never pass
//    through the barrier; only integers fold.
//  - Phase 3 (delivery, lock-free): after release each machine drains the
//    LinkOuts addressed to it from all k sources in ascending source
//    order, in parallel with every other machine, without any lock.  A
//    link's frame buffer is wrapped in one PayloadRef and every framed
//    message becomes a zero-copy slice of it, interleaved with unframed
//    messages in original send order.  LinkOuts are double-buffered by
//    barrier parity so the drain of superstep s never races the sends of
//    superstep s+1; the tree barrier's acq_rel arrival chain and
//    release-on-sense-flip provide the happens-before edges (tsan
//    verified by the CI tsan job).
//
// Conventions:
//  - All machines must call exchange() in lockstep (same count, same
//    order).  Data-dependent loop bounds must be agreed on through the
//    provided collectives, which cost rounds through the same accounting.
//  - Determinism: machine i's RNG is seeded from (config.seed, i), a
//    machine's code runs sequentially between barriers, and delivery
//    order is ascending source then send order, so results do not depend
//    on thread scheduling.
//  - A machine that returns from `program` keeps participating in barriers
//    invisibly until all machines finish; messages sent to a finished
//    machine are counted as dropped (tests assert this never happens).
#pragma once

#include <array>
#include <atomic>
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
  /// Test-only fault injection: invoked on the root finalizer at the
  /// start of every superstep merge (all machines arrived, none released).
  /// A throw from here must abort the run cleanly — captured as the run's
  /// first error and propagated down the barrier tree as a stop, never a
  /// deadlock.
  std::function<void(std::uint64_t superstep)> barrier_fault_injection = {};
  /// OS threads the executor multiplexes the k machine fibers over; 0
  /// means hardware concurrency.  The executor uses at most this many,
  /// and every worker owns at least one machine (sim/executor.hpp).
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
  /// Copies the bytes: into the link's frame when framed, otherwise into
  /// a buffer of exactly payload.size().  For one payload sent to many
  /// peers from caller-owned storage.
  void send(std::size_t dst, std::uint16_t tag,
            std::span<const std::byte> payload);

  /// Buffer the same payload to every other machine (k-1 messages sharing
  /// one immutable buffer — zero-copy).  Consumes the writer's contents.
  void broadcast(std::uint16_t tag, Writer& writer);

  /// Superstep boundary: flush sends, synchronize with all machines,
  /// return the messages delivered to this machine (ascending source,
  /// then send order; stashed collective leftovers first).
  std::vector<Message> exchange();

  // ---- Collectives (each costs one superstep; built on exchange) ----
  std::uint64_t all_reduce_sum(std::uint64_t value);
  std::uint64_t all_reduce_max(std::uint64_t value);
  bool all_reduce_or(bool value);
  std::vector<std::uint64_t> all_gather(std::uint64_t value);

 private:
  friend class Engine;
  MachineContext(Engine* engine, std::size_t id, Rng rng);

  /// One link's pre-bucketed outbound traffic for one superstep parity.
  /// `messages` holds every message in send order; a framed message sits
  /// there with an empty payload until delivery, when its bytes are
  /// sliced back out of `frame`.  `framed` lists the indices of framed
  /// entries (ascending), and `frame` is the shared length-prefixed
  /// buffer (varint(len) | bytes per entry, same order as `framed`).
  struct LinkOut {
    std::vector<Message> messages;
    std::vector<std::uint32_t> framed;
    std::vector<std::byte> frame;
  };

  /// Validates dst and returns its current-parity LinkOut.
  LinkOut& link_for(std::size_t dst);
  /// A Message with src/dst/tag filled in, payload empty.
  Message stamp(std::size_t dst, std::uint16_t tag) const;
  /// Charges the link (unbatched formula) and updates the sender's row
  /// aggregates.  Every send path funnels through here.
  void account_send(std::size_t dst, std::uint64_t payload_bytes);
  /// Transport policy: payloads up to framed_payload_default_bytes(B)
  /// are framed from the link's second message onward (one message has
  /// nothing to amortize the copy against).  Never affects accounting or
  /// delivery order.
  bool should_frame(const LinkOut& link, std::size_t payload_bytes) const;
  /// Appends a small payload to the link's frame (acquiring a pooled
  /// buffer on first use) and records the framed entry.
  void send_framed(LinkOut& link, std::size_t dst, std::uint16_t tag,
                   std::span<const std::byte> payload);

  Engine* engine_;
  std::size_t id_;
  Rng rng_;

  // Pre-bucketed outbound traffic (phase 1 of the exchange protocol).
  // Double-buffered by barrier parity: sends of superstep s fill parity
  // s&1 while receivers drain parity (s-1)&1 from the previous barrier.
  // Vectors keep their capacity across supersteps (slot pooling).
  std::array<std::vector<LinkOut>, 2> out_;
  std::vector<std::uint64_t> out_bits_;   ///< per-destination bit totals
  std::vector<std::uint64_t> out_msgs_;   ///< per-destination msg counts
  // Row aggregates over out_bits_/out_msgs_, maintained incrementally by
  // account_send() so the barrier's leaf fold reads three scalars instead
  // of re-scanning the row.
  std::uint64_t row_bits_ = 0;   ///< sum over dst of out_bits_[dst]
  std::uint64_t row_msgs_ = 0;   ///< sum over dst of out_msgs_[dst]
  std::uint64_t row_max_ = 0;    ///< max over dst of out_bits_[dst]
  std::uint64_t barriers_passed_ = 0;     ///< drives the bucket parity

  std::vector<Message> stashed_;  // non-collective msgs seen by collectives
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

  /// Per-barrier-node fold state: the subtree's traffic totals plus the
  /// per-destination column sums that become recv_bits_per_machine and
  /// the dropped-message count.  Folders zero a child's accumulator
  /// right after consuming it, so every episode starts from zeros.
  struct NodeAccum {
    std::uint64_t bits = 0;
    std::uint64_t msgs = 0;
    std::uint64_t max_link = 0;
    std::vector<std::uint64_t> recv_bits;  ///< length k
    std::vector<std::uint64_t> recv_msgs;  ///< length k
  };

  /// Arrives machine `who` at the tree barrier and, if the episode is
  /// not complete, parks the calling fiber with the executor until the
  /// sense flips; returns true when the engine has stopped (all machines
  /// finished, superstep budget exhausted, or a merge failed).
  bool barrier_arrive_and_wait(std::size_t who);
  /// One machine's whole lifetime on its fiber: trace origin, the user
  /// program, and the post-finish barrier participation loop.
  void machine_main(const Program& program, std::size_t who);
  // Executor callbacks (C-style so parked-machine polling stays a pair
  // of atomic loads, no std::function indirection on the scheduler path).
  static bool machine_released(void* self, std::size_t who);
  static std::uint64_t idle_epoch(void* self);
  static void idle_wait(void* self, std::uint64_t seen);
  bool stopped() const {
    return stop_.load(std::memory_order_acquire);
  }
  /// Combining hook: the last arriver at `node` folds its children
  /// (machine counter rows at leaves, child accumulators otherwise).
  /// Fold-phase exclusivity is the barrier's fan-in protocol; the
  /// capability requirement makes every touch of the guarded
  /// accumulators/metrics below compile-checked under -Wthread-safety.
  void fold_node(std::size_t node, bool leaf, std::size_t child_begin,
                 std::size_t child_end) KM_REQUIRES(barrier_.fold_phase);
  /// Runs once per superstep on the root's last arriver: converts the
  /// root accumulator into round/bit metrics and the stop decision.
  /// Never throws — failures (fault injection) become first_error_ + stop.
  bool finalize_superstep() KM_REQUIRES(barrier_.fold_phase);
  /// Records `error` as the run's first error if none is set yet.
  void record_first_error(std::exception_ptr error) KM_EXCLUDES(mutex_);
  void set_first_error_locked(std::exception_ptr error)
      KM_REQUIRES(mutex_);

  /// Lock-free delivery (phase 3): moves every message addressed to `ctx`
  /// from the sources' parity LinkOuts into `into`, ascending source
  /// order, re-materializing framed payloads as zero-copy slices of each
  /// link's frame buffer.  Advances the context's bucket parity.
  void drain_inbound(MachineContext& ctx, std::vector<Message>& into);
  /// Same bucket walk for a finished machine: discards instead of
  /// delivering (the merge step already counted these as dropped).
  void discard_inbound(MachineContext& ctx);

  std::size_t k_;
  EngineConfig config_;
  /// Largest payload (bytes) should_frame() batches into a link's frame:
  /// framed_payload_default_bytes(config_.bandwidth_bits).
  std::size_t frame_threshold_;

  std::vector<std::unique_ptr<MachineContext>> contexts_;

  /// Recreated at the top of each traced run; machine threads write their
  /// own buffers through MachineContext::trace_, the fold/finalize hooks
  /// write the counter/link streams under the barrier's fold protocol.
  std::shared_ptr<TraceSession> trace_;

  TreeBarrier barrier_;
  // Fold-phase state: written only while holding barrier_.fold_phase —
  // by folders/finalizers inside a barrier episode, and by Engine::run
  // in its single-threaded prologue/epilogue (which acquires the phantom
  // capability to make that exclusivity explicit to the analysis).
  std::vector<NodeAccum> node_accums_  ///< indexed by barrier node id
      KM_GUARDED_BY(barrier_.fold_phase);
  Metrics metrics_ KM_GUARDED_BY(barrier_.fold_phase);

  /// The pool the current run's machine fibers execute on; non-null only
  /// while run() is live (machines park themselves through it).
  Executor* executor_ = nullptr;

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> finished_count_{0};
  mutable Mutex mutex_;  // guards first_error_ only
  std::exception_ptr first_error_ KM_GUARDED_BY(mutex_);
};

}  // namespace km
