// The runtime's workload registry: one named, uniformly-invokable entry
// point per k-machine algorithm.
//
// A Workload adapter binds an algorithm from src/core/ to (a) the input
// kind it consumes, (b) the sequential reference checker from src/graph/
// that validates its output, and (c) the scalar outputs worth reporting.
// Adapters self-register into the process-wide WorkloadRegistry via
// static WorkloadRegistrar objects (km_runtime is an OBJECT library so
// the linker cannot drop them), which makes `km_run list` and tests see
// every workload without a central enumeration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "runtime/dataset.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/partition.hpp"

namespace km {

/// Knobs shared by every workload run.
struct RunParams {
  std::size_t k = 8;  ///< number of machines
  /// Per-link bandwidth B in bits per round; 0 = the paper's default
  /// B = Theta(log^2 n), resolved against the dataset's n at run time.
  std::uint64_t bandwidth_bits = 0;
  std::uint64_t seed = 1;  ///< drives dataset, partition, and engine RNGs
  bool record_timeline = true;  ///< per-superstep breakdown in the result
  bool check = true;  ///< verify against the sequential reference
  /// Wall-time tracing (EngineConfig::trace): phase spans + counter
  /// events, surfaced as RunResult::trace and the result's `timing`
  /// block.  NOT part of the run's parameter cell — rounds/bits are
  /// byte-identical either way (tests/test_trace.cpp), so these two are
  /// deliberately absent from the serialized `params` object and golden
  /// snapshots never see them.
  bool trace = false;
  bool trace_links = false;  ///< with trace: per-superstep k x k bit matrix
  /// Worker threads the executor multiplexes the k machine fibers over
  /// (EngineConfig::workers); 0 = hardware concurrency.  Execution
  /// policy, not a simulation parameter: results are byte-identical at
  /// every setting (the Determinism suite proves it), so like `trace` it
  /// is deliberately absent from the serialized `params` object and
  /// golden snapshots never see it.
  std::size_t workers = 0;
};

/// Outcome of the sequential-reference verification.
struct CheckResult {
  bool performed = false;
  bool ok = true;
  std::string detail;  ///< human-readable what/why (also on success)
};

/// Workload-specific scalar outputs, serialized in insertion order.
using OutputValue =
    std::variant<std::uint64_t, std::int64_t, double, bool, std::string>;

struct RunResult {
  std::string workload;
  std::string dataset_spec;
  DatasetKind dataset_kind = DatasetKind::kUndirected;
  std::size_t n = 0;  ///< dataset vertices (or keys)
  std::size_t m = 0;  ///< dataset edges/arcs
  RunParams params;   ///< as executed, bandwidth_bits resolved (never 0)
  Metrics metrics;
  CheckResult check;
  std::vector<std::pair<std::string, OutputValue>> outputs;
  /// The run's trace when RunParams::trace was set (null otherwise);
  /// shared with the engine's session so it outlives it.  Export via
  /// TraceSession::write_chrome_trace / write_link_matrix_json.
  std::shared_ptr<const TraceSession> trace;

  void add_output(std::string name, OutputValue value) {
    outputs.emplace_back(std::move(name), std::move(value));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  virtual DatasetKind input_kind() const = 0;

  /// Runs the algorithm on `engine` (already sized to params.k).  The
  /// dataset's kind matches input_kind() — run_workload() enforces it.
  virtual RunResult run(Engine& engine, const Dataset& dataset,
                        const RunParams& params) const = 0;

 protected:
  /// Fills the bookkeeping fields every adapter shares.
  RunResult make_result(const Dataset& dataset, const RunParams& params,
                        Metrics metrics) const;
};

class WorkloadRegistry {
 public:
  /// The process-wide registry (function-local static: safe to use from
  /// static initializers in any translation unit).
  static WorkloadRegistry& instance();

  /// Throws std::logic_error if the name is already taken.
  void add(std::unique_ptr<Workload> workload);

  /// nullptr when absent.
  const Workload* find(std::string_view name) const;

  /// All workloads, sorted by name.
  std::vector<const Workload*> list() const;

 private:
  std::map<std::string, std::unique_ptr<Workload>, std::less<>> by_name_;
};

/// Self-registration hook: `static WorkloadRegistrar r{std::make_unique<X>()};`
struct WorkloadRegistrar {
  explicit WorkloadRegistrar(std::unique_ptr<Workload> workload);
};

/// Convenience driver: loads nothing — the dataset is the caller's — but
/// verifies the kind matches, resolves the default bandwidth, builds the
/// Engine, and delegates to workload.run().
RunResult run_workload(const Workload& workload, const Dataset& dataset,
                       const RunParams& params);

/// Partition used by every graph workload: the paper's random vertex
/// partition realized by hashing, derived from the run seed.
VertexPartition runtime_partition(std::size_t n, std::size_t k,
                                  std::uint64_t seed);

/// Shared reference check for the component-labeling workload family
/// (components, connectivity, connectivity_baseline): compares a
/// distributed labeling against the sequential BFS reference.
CheckResult check_component_labels(const Graph& g,
                                   const std::vector<std::uint32_t>& labels,
                                   std::size_t num_components);

}  // namespace km
