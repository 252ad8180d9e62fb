// Cost accounting for a k-machine execution.
//
// `rounds` is the paper's cost measure: for every superstep, the engine
// charges max over ordered links of ceil(bits on link / B) rounds (at
// least 1 if any message was sent).  `recv_bits_per_machine` is the
// empirical counterpart of the information cost IC in the General Lower
// Bound Theorem: the total number of bits a machine received.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "util/buffer_pool.hpp"

namespace km {

/// Cost of one superstep, recorded when EngineConfig::record_timeline is
/// set.  The sum of each field over the timeline equals the corresponding
/// Metrics total (tests/test_metrics.cpp asserts this invariant).
struct SuperstepStats {
  std::uint64_t superstep = 0;  ///< 0-based index
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_link_bits = 0;  ///< peak single-link load this superstep

  friend bool operator==(const SuperstepStats&,
                         const SuperstepStats&) = default;
};

/// Wall-time phase breakdown for one machine, folded from its trace
/// spans (sim/trace.hpp).  compute_ms excludes the nested send time, so
/// compute + send + barrier_wait + deliver ≈ the machine's share of the
/// run's wall time (tests/test_trace.cpp pins the tolerance).
struct MachinePhaseMs {
  std::uint32_t machine = 0;
  double compute_ms = 0.0;
  double send_ms = 0.0;
  double barrier_wait_ms = 0.0;
  double deliver_ms = 0.0;
};

/// Aggregate timing view of a traced run.  Like `wall_ms`, none of this
/// is part of the deterministic run identity: the `timing` object in
/// km.run_result/v1 is exempt from golden diffs.  `barrier_wait_skew`
/// (max/mean total barrier wait across machines) is the straggler
/// signature: ~1 means machines arrive together, >>1 means one machine
/// serializes the superstep for everyone.
struct TimingSummary {
  bool enabled = false;  ///< true iff the run was traced
  std::vector<MachinePhaseMs> per_machine;
  double barrier_wait_max_ms = 0.0;
  double barrier_wait_mean_ms = 0.0;
  double barrier_wait_skew = 0.0;  ///< max/mean, 0 when mean is 0
};

struct Metrics {
  std::uint64_t rounds = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_link_bits_superstep = 0;  ///< peak single-link load
  std::uint64_t dropped_messages = 0;  ///< sent to already-finished machines
  std::vector<std::uint64_t> send_bits_per_machine;
  std::vector<std::uint64_t> recv_bits_per_machine;
  double wall_ms = 0.0;

  /// Per-superstep cost breakdown; empty unless the engine ran with
  /// EngineConfig::record_timeline (opt-in: size is k-independent but
  /// grows with supersteps, and most callers only want totals).
  std::vector<SuperstepStats> timeline;

  /// Buffer-pool activity during this run: hits/misses/evictions are the
  /// process-wide counter delta between run start and end (with one
  /// engine running at a time — the normal case — that is exactly the
  /// run's machine threads; concurrent pool users would be folded in
  /// too), and the occupancy gauges are the end-of-run reading.  A large
  /// evicted_bytes means the workload's payloads thrash past the
  /// per-thread pool caps and every superstep pays the allocator — see
  /// util/buffer_pool.hpp.
  BufferPoolCounters pool;

  /// PayloadBuf *object* pool activity during this run (same per-run
  /// delta convention as `pool`, which tracks the byte storage).  A
  /// large `dropped` means more than 1024 payload objects die on one
  /// thread's pool between acquires — the object pool is thrashing even
  /// if the byte pool is not.
  PayloadPoolCounters payload_pool;

  /// Wall-time phase breakdown; `timing.enabled` is false unless the run
  /// was traced (EngineConfig::trace).  Exempt from golden diffs like
  /// `wall_ms` — wall time is not part of the deterministic run identity.
  TimingSummary timing;

  /// Max bits received by any machine = empirical information cost bound.
  std::uint64_t max_recv_bits() const noexcept {
    if (recv_bits_per_machine.empty()) return 0;
    return *std::max_element(recv_bits_per_machine.begin(),
                             recv_bits_per_machine.end());
  }

  std::uint64_t max_send_bits() const noexcept {
    if (send_bits_per_machine.empty()) return 0;
    return *std::max_element(send_bits_per_machine.begin(),
                             send_bits_per_machine.end());
  }

  std::string summary() const;
};

}  // namespace km
