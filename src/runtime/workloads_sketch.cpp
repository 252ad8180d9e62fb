// Workload adapters for the sketch-based algorithms in
// core/connectivity.hpp: sketch connectivity (Õ(n/k²) rounds) and the
// centralized Õ(n/k) baseline it is measured against.  Both check
// against the sequential BFS components.
#include "core/connectivity.hpp"
#include "runtime/workload.hpp"
#include "util/rng.hpp"

namespace km {
namespace {

// ---- Sketch connectivity ----

class ConnectivityWorkload final : public Workload {
 public:
  std::string_view name() const override { return "connectivity"; }
  std::string_view description() const override {
    return "connectivity via l0-sampling linear sketches (AGM/[51]), "
           "O~(n/k^2) rounds independent of m; checked against BFS";
  }
  DatasetKind input_kind() const override { return DatasetKind::kUndirected; }

  RunResult run(Engine& engine, const Dataset& dataset,
                const RunParams& params) const override {
    const auto partition =
        runtime_partition(dataset.n, params.k, params.seed);
    const auto dist = sketch_connectivity(dataset.graph, partition, engine,
                                          mix64(params.seed, 0x5ce7'c401ULL));
    RunResult result = make_result(dataset, params, dist.metrics);
    result.add_output("num_components", std::uint64_t{dist.num_components});
    result.add_output("phases", std::uint64_t{dist.phases});
    if (params.check) {
      result.check = check_component_labels(dataset.graph, dist.labels,
                                            dist.num_components);
    }
    return result;
  }
};

// ---- Centralized baseline ----

class ConnectivityBaselineWorkload final : public Workload {
 public:
  std::string_view name() const override { return "connectivity_baseline"; }
  std::string_view description() const override {
    return "centralize-all-edges connectivity baseline, O~(n/k) rounds; "
           "checked against BFS";
  }
  DatasetKind input_kind() const override { return DatasetKind::kUndirected; }

  RunResult run(Engine& engine, const Dataset& dataset,
                const RunParams& params) const override {
    const auto partition =
        runtime_partition(dataset.n, params.k, params.seed);
    const auto dist =
        centralized_connectivity_baseline(dataset.graph, partition, engine);
    RunResult result = make_result(dataset, params, dist.metrics);
    result.add_output("num_components", std::uint64_t{dist.num_components});
    result.add_output("phases", std::uint64_t{dist.phases});
    if (params.check) {
      result.check = check_component_labels(dataset.graph, dist.labels,
                                            dist.num_components);
    }
    return result;
  }
};

const WorkloadRegistrar connectivity_registrar{
    std::make_unique<ConnectivityWorkload>()};
const WorkloadRegistrar connectivity_baseline_registrar{
    std::make_unique<ConnectivityBaselineWorkload>()};

}  // namespace
}  // namespace km
