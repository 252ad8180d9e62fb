#include "runtime/workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/properties.hpp"
#include "util/options.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace km {

RunResult Workload::make_result(const Dataset& dataset,
                                const RunParams& params,
                                Metrics metrics) const {
  RunResult result;
  result.workload = std::string(name());
  result.dataset_spec = dataset.spec;
  result.dataset_kind = dataset.kind;
  result.n = dataset.n;
  result.m = dataset.m;
  result.params = params;
  result.metrics = std::move(metrics);
  return result;
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry registry;
  return registry;
}

void WorkloadRegistry::add(std::unique_ptr<Workload> workload) {
  const std::string name(workload->name());
  if (name.empty()) {
    throw std::logic_error("WorkloadRegistry: empty workload name");
  }
  if (!by_name_.emplace(name, std::move(workload)).second) {
    throw std::logic_error("WorkloadRegistry: duplicate workload '" + name +
                           "'");
  }
}

const Workload* WorkloadRegistry::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

std::vector<const Workload*> WorkloadRegistry::list() const {
  std::vector<const Workload*> out;
  out.reserve(by_name_.size());
  for (const auto& [name, workload] : by_name_) out.push_back(workload.get());
  return out;  // std::map iteration order = sorted by name
}

WorkloadRegistrar::WorkloadRegistrar(std::unique_ptr<Workload> workload) {
  WorkloadRegistry::instance().add(std::move(workload));
}

VertexPartition runtime_partition(std::size_t n, std::size_t k,
                                  std::uint64_t seed) {
  return VertexPartition::by_hash(n, k, mix64(seed, 0x9A27'11F3ULL));
}

CheckResult check_component_labels(const Graph& g,
                                   const std::vector<std::uint32_t>& labels,
                                   std::size_t num_components) {
  const auto ref = connected_components(g);
  // BFS labels are [0, #components), so the count falls out of the
  // labeling itself — no second traversal.
  std::size_t ref_count = 0;
  for (const std::uint32_t l : ref) {
    ref_count = std::max<std::size_t>(ref_count, std::size_t{l} + 1);
  }
  CheckResult check;
  check.performed = true;
  check.ok = num_components == ref_count && same_labeling(labels, ref);
  check.detail = "distributed " + std::to_string(num_components) +
                 " components vs BFS " + std::to_string(ref_count) +
                 (check.ok ? ", labelings agree" : ", labelings DIFFER");
  return check;
}

RunResult run_workload(const Workload& workload, const Dataset& dataset,
                       const RunParams& params) {
  if (dataset.kind != workload.input_kind()) {
    throw std::invalid_argument(
        "run_workload: workload '" + std::string(workload.name()) +
        "' needs a " + std::string(to_string(workload.input_kind())) +
        " dataset, got " + std::string(to_string(dataset.kind)));
  }
  if (params.k < 2) {
    throw std::invalid_argument("run_workload: k must be >= 2");
  }
  RunParams resolved = params;
  if (resolved.bandwidth_bits == 0) {
    resolved.bandwidth_bits =
        EngineConfig::default_bandwidth(std::max<std::size_t>(dataset.n, 2));
  }
  // Framing auto-derives from the *resolved* bandwidth so the serialized
  // parameter cell (and the golden snapshots diffing it) always records
  // the concrete threshold, never the sentinel.
  if (resolved.frame_bytes == kFramedPayloadAuto) {
    resolved.frame_bytes =
        framed_payload_default_bytes(resolved.bandwidth_bits);
  }
  Engine engine(resolved.k,
                {.bandwidth_bits = resolved.bandwidth_bits,
                 .seed = resolved.seed,
                 .record_timeline = resolved.record_timeline,
                 .trace = resolved.trace,
                 .trace_links = resolved.trace_links,
                 .framed_payload_max_bytes = resolved.frame_bytes,
                 .workers = resolved.workers});
  RunResult result = workload.run(engine, dataset, resolved);
  result.trace = engine.trace_session();
  return result;
}

std::size_t frame_bytes_flag(const Options& opts) {
  const std::string text = opts.get_string("frame-bytes", "auto");
  if (text == "auto") return kFramedPayloadAuto;
  std::uint64_t value = 0;
  if (!parse_strict_uint(text, value)) {
    throw OptionsError(
        "flag --frame-bytes expects 'auto' or a non-negative integer, got '" +
        text + "'");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace km
