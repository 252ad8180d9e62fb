// Shared types of the kmbench load generator (see perfbench/README.md).
//
// A *scenario* is one request, from a dataset spec string to a checked
// km.run_result/v1 document.  A *target* produces one workload's seeded
// scenario stream and executes it: in process through the runtime's
// public calls (load_dataset_cached -> run_workload -> run_result_to_json),
// or over the km_serve socket.  Every document is then checked by the
// Gate before the scenario counts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace kmb {

class Tracer;

/// CLOCK_MONOTONIC in seconds: the clock perfbench/run.py stamps a
/// process launch with, so set-up time can be measured across the exec.
double mono_s() noexcept;

/// One scenario cell: everything that identifies a deterministic run.
struct Cell {
  std::string workload;  ///< registry name, e.g. "mst"
  std::string dataset;   ///< dataset spec string
  std::size_t k = 8;
  std::uint64_t bandwidth = 0;  ///< 0 = the paper's default B
  std::uint64_t seed = 1;       ///< run seed (partition, engine RNGs)
  std::uint64_t dataset_seed = 1;
  std::size_t workers = 1;  ///< engine worker threads
  bool timeline = true;     ///< per-superstep timeline in the document

  /// Identity for the determinism gate and the per-cell table.
  std::string key() const;
  /// The NDJSON `run` request km_serve answers for this cell (km_serve
  /// seeds the dataset with the run seed, so serve cells keep them equal).
  std::string request_line() const;
};

/// One scenario's answer; the target fills ok/error/source/doc/span, the
/// Gate the counts.
struct Outcome {
  bool ok = false;
  bool fatal = false;  ///< the program under test is gone: stop the run
  std::string error;   ///< why !ok
  std::string source;  ///< "engine", "result_store" or "in_process"
  std::string doc;     ///< the document as received
  int span = -1;       ///< traced mode: the span of the call that ran it
  std::uint64_t rounds = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t bits = 0;
  double wall_ms = 0.0;  ///< the document's metrics.wall_ms
};

/// Parses `out.doc` and checks it answers `cell` with a performed,
/// passing reference check; fills the counts.  Never throws.
void check_document(const Cell& cell, Outcome& out);

/// Checks each document and enforces determinism: the reference check
/// must have passed, every repeat of a cell within a run must reproduce
/// its rounds, supersteps and bits, and a result-store replay must be
/// byte-identical to the cell's first document (which was checked in
/// full, so a replay is checked by that comparison alone).
class Gate {
 public:
  /// `tamper` alters every recorded expectation (rounds + 1, and a byte
  /// appended to the document) so the gate's failure path can be shown
  /// to trip (self-test only).
  explicit Gate(bool tamper) : tamper_(tamper) {}

  /// Fills out's counts; turns `out` into a failure on any violation.
  void check(const Cell& cell, Outcome& out);

  /// Exact rounds/supersteps/bits per distinct cell, one line each (the
  /// first `max_rows` cells, then a count of the rest).
  std::string table(std::size_t max_rows) const;

 private:
  struct Expected {
    std::uint64_t rounds = 0;
    std::uint64_t supersteps = 0;
    std::uint64_t bits = 0;
    std::string doc;
  };
  std::map<std::string, Expected> seen_;
  bool tamper_ = false;
};

/// Per-layer numbers a target measures in traced mode, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// One workload's scenario stream and how to execute it.
class Target {
 public:
  virtual ~Target() = default;

  /// Engine worker threads per run (for the provenance line).
  virtual std::size_t engine_workers() const = 0;
  /// Scenarios every run completes; simulated-cost metrics are means over
  /// this prefix of the stream, so they are exact for a seed.
  virtual std::size_t min_scenarios() const = 0;

  /// Cold dataset materialization plus an untimed warm-up pass over cells
  /// outside the timed stream.  Returns false on a failed warm-up.
  virtual bool setup(std::string& error) = 0;
  /// The next cell of the seeded stream.
  virtual Cell next_cell() = 0;
  /// Executes one scenario; with a tracer, records spans under `parent`.
  virtual Outcome run(const Cell& cell, Tracer* tracer,
                      std::uint64_t scenario, int parent) = 0;
  /// Peak resident memory of the program under test, in MiB.
  virtual double peak_rss_mb() = 0;

  /// Traced mode, before any window: measures each layer's public calls
  /// on this workload's cells (partition, check, engine, sketch, ...).
  virtual bool probe_layers(LayerMetrics& out, std::string& error) = 0;
  /// Traced mode: brackets the traced window, so counters the program
  /// under test keeps can be differenced over it and spans read back.
  virtual void begin_traced_window() = 0;
  virtual void end_traced_window(const Tracer& tracer, LayerMetrics& out) = 0;

  /// Stops whatever the target started.  Idempotent.
  virtual void finish() {}
};

/// The target for `workload`, or nullptr for an unknown name.  `toy`
/// selects the self-test's small inputs; `serve_bin` is the km_serve
/// binary and `run_dir` a writable directory for sockets and logs.
std::unique_ptr<Target> make_target(const std::string& workload,
                                    std::uint64_t seed, bool toy,
                                    const std::string& serve_bin,
                                    const std::string& run_dir);

/// The huge-k cell the traced mode probes on every workload:
/// connectivity_baseline on path:n=8192 at k=1024 with one engine worker,
/// where O(k^2) per-link state does nearly all the work.
Cell huge_k_cell(std::uint64_t seed, bool toy);

/// Peak resident set (VmHWM) of a process ("self" or a pid), in MiB;
/// -1 when unreadable.
double vm_hwm_mb(const std::string& pid_or_self);

}  // namespace kmb
