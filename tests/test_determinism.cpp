// Worker-count invariance: the executor's one observable promise.
//
// RunParams::workers is execution policy — how many OS threads the
// fiber pool multiplexes the k machines over — and must never leak into
// results.  For every registered workload this suite renders the full
// km.run_result/v1 document at workers = 1 (pure sequential
// multiplexing), 2, hardware (0), and k (thread-per-machine, the
// pre-executor shape) and requires the serialized bytes to be identical
// across the sweep AND equal to the checked-in golden snapshot — so a
// scheduling-order leak fails against the pinned history, not just
// against a sibling run.  Only the documented exempt keys (wall_ms,
// timing) are stripped; keep the list in sync with results.hpp,
// tests/test_golden_metrics.cpp, and tests/test_trace.cpp.
//
// Two more sweeps run selected workloads at larger k, since the golden
// cell's k = 4 keeps every worker's share tiny: k = 12 with worker
// counts that divide the machines unevenly across blocks, and k = 64,
// where machines are dealt to workers in barrier leaf groups.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/dataset.hpp"
#include "runtime/results.hpp"
#include "runtime/workload.hpp"

namespace km {
namespace {

/// Same pinned scenario table as tests/test_golden_metrics.cpp (the
/// golden suite asserts it covers every registered workload).
const std::map<std::string, std::string>& golden_datasets() {
  static const std::map<std::string, std::string> specs = {
      {"cliques4", "gnp:n=48,p=0.15"},
      {"components", "gnp:n=64,p=0.05"},
      {"connectivity", "gnp:n=64,p=0.05"},
      {"connectivity_baseline", "gnp:n=64,p=0.05"},
      {"mst", "gnp:n=64,p=0.08,maxw=1000"},
      {"pagerank", "gnp:n=64,p=0.05"},
      {"pagerank_baseline", "gnp:n=64,p=0.05"},
      {"sort", "keys:n=512"},
      {"triangles", "gnp:n=48,p=0.15"},
      {"triangles_baseline", "gnp:n=48,p=0.15"},
  };
  return specs;
}

std::string render(const Workload& workload, const std::string& spec,
                   std::size_t k, std::size_t workers) {
  RunParams params;
  params.k = k;
  params.bandwidth_bits = 0;
  params.seed = 7;
  params.record_timeline = true;
  params.check = true;
  params.workers = workers;
  const Dataset dataset =
      load_dataset(spec, workload.input_kind(), params.seed);
  return run_result_to_json(run_workload(workload, dataset, params)) + "\n";
}

/// Drops the exempt wall-clock keys (scalars and whole blocks) — the
/// same stripper the golden suite documents.
std::vector<std::string> strip_exempt(const std::string& text) {
  static const std::vector<std::string> keys = {"\"wall_ms\":",
                                                "\"timing\":"};
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  int depth = 0;
  while (std::getline(in, line)) {
    if (depth > 0) {
      for (char c : line) {
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
      }
      continue;
    }
    bool exempt = false;
    for (const std::string& key : keys) {
      const std::size_t pos = line.find(key);
      if (pos == std::string::npos) continue;
      exempt = true;
      for (char c : line.substr(pos)) {
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
      }
      break;
    }
    if (!exempt) lines.push_back(line);
  }
  return lines;
}

TEST(Determinism, GoldenCellIsWorkerCountInvariantAndMatchesSnapshots) {
  constexpr std::size_t kGoldenK = 4;
  // 0 = hardware concurrency; kGoldenK = thread-per-machine.
  const std::size_t sweep[] = {1, 2, 0, kGoldenK};
  for (const auto& [name, spec] : golden_datasets()) {
    const Workload* workload = WorkloadRegistry::instance().find(name);
    ASSERT_NE(workload, nullptr) << name;

    const std::vector<std::string> baseline =
        strip_exempt(render(*workload, spec, kGoldenK, /*workers=*/1));
    for (const std::size_t workers : sweep) {
      if (workers == 1) continue;
      const std::vector<std::string> doc =
          strip_exempt(render(*workload, spec, kGoldenK, workers));
      EXPECT_EQ(doc, baseline)
          << name << ": document at workers=" << workers
          << " diverged from workers=1 — scheduling leaked into results";
    }

    std::ifstream in(std::string(KM_GOLDEN_DIR) + "/" + name + ".json");
    ASSERT_TRUE(in.good()) << "missing golden snapshot for " << name;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(baseline, strip_exempt(buffer.str()))
        << name << ": workers=1 document diverged from the checked-in "
                   "golden snapshot";
  }
}

TEST(Determinism, UnevenBlocksAtLargerKStayInvariant) {
  // k = 12 over 5 or 7 requested workers runs on fewer (4 blocks of 3,
  // 6 blocks of 2), since ceil(k / W)-sized blocks cover k early — the
  // shapes the golden cell never reaches.  mst keeps a weighted
  // workload in the sweep.
  const std::vector<std::string> names = {"connectivity", "mst", "sort"};
  for (const std::string& name : names) {
    const Workload* workload = WorkloadRegistry::instance().find(name);
    ASSERT_NE(workload, nullptr) << name;
    const std::string& spec = golden_datasets().at(name);

    const std::vector<std::string> baseline =
        strip_exempt(render(*workload, spec, 12, /*workers=*/1));
    for (const std::size_t workers : {std::size_t{5}, std::size_t{7},
                                      std::size_t{12}}) {
      EXPECT_EQ(strip_exempt(render(*workload, spec, 12, workers)), baseline)
          << name << " at k=12, workers=" << workers;
    }
  }
}

TEST(Determinism, LeafGroupDealAtK64StaysInvariant) {
  // At k = 64, ceil(k / W) exceeds TreeBarrier::kArity for W <= 4, so
  // the executor deals barrier leaf groups to workers round-robin
  // (sim/executor.hpp) — unevenly at W = 3 — where the golden cell's
  // k = 4 always gets contiguous blocks.  triangles puts its busy tuple
  // machines at the lowest ids, which the deal spreads over workers.
  const std::map<std::string, std::string> cells = {
      {"mst", "gnp:n=256,p=0.03,maxw=1000"},
      {"sort", "keys:n=4096"},
      {"triangles", "gnp:n=256,p=0.05"},
  };
  for (const auto& [name, spec] : cells) {
    const Workload* workload = WorkloadRegistry::instance().find(name);
    ASSERT_NE(workload, nullptr) << name;
    const std::vector<std::string> baseline =
        strip_exempt(render(*workload, spec, 64, /*workers=*/1));
    for (const std::size_t workers :
         {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      EXPECT_EQ(strip_exempt(render(*workload, spec, 64, workers)), baseline)
          << name << " at k=64, workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace km
