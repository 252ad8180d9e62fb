// Golden-metrics snapshots: one checked-in km.run_result/v1 document per
// registered workload, produced at a fixed (dataset, k, B, seed) cell
// and diffed field-by-field against a fresh run.  An engine or
// accounting refactor that changes rounds/bits/messages — or any output
// or schema field — fails here with the exact line that moved, instead
// of slipping through as a silent behavioral change.  The documented
// exempt-key set — wall_ms (a scalar) and timing (a whole object,
// present only on traced runs) — is stripped from BOTH sides before
// diffing: those are the values that legitimately vary between
// identical-seed runs (results.hpp documents both).  Everything else,
// including new schema fields, diffs byte for byte.
//
// Regenerate intentionally with:
//   KM_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "runtime/dataset.hpp"
#include "runtime/results.hpp"
#include "runtime/workload.hpp"

namespace km {
namespace {

/// The pinned scenario per workload.  Every registered workload must
/// have an entry (asserted below), so adding a workload without a
/// golden snapshot is a test failure, not an oversight.
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

std::string golden_path(const std::string& workload) {
  return std::string(KM_GOLDEN_DIR) + "/" + workload + ".json";
}

RunResult run_cell(const Workload& workload, const std::string& spec,
                   std::size_t k) {
  RunParams params;
  params.k = k;
  params.bandwidth_bits = 0;  // default B = Theta(log^2 n), deterministic
  params.seed = 7;
  params.record_timeline = true;
  params.check = true;
  const Dataset dataset =
      load_dataset(spec, workload.input_kind(), params.seed);
  return run_workload(workload, dataset, params);
}

std::string render_current(const Workload& workload,
                           const std::string& spec) {
  return run_result_to_json(run_cell(workload, spec, 4)) + "\n";
}

/// The exempt-key set.  A key here is dropped from the diff wherever it
/// appears; when its value opens an object or array, the whole block is
/// dropped (brace/bracket depth tracking), so `"timing": { ... }`
/// vanishes as a unit.  Keep this list in sync with the results.hpp
/// schema doc and tests/test_trace.cpp's strip_exempt.
const std::vector<std::string>& exempt_keys() {
  static const std::vector<std::string> keys = {"\"wall_ms\":",
                                                "\"timing\":"};
  return keys;
}

/// Splits `text` into lines with exempt scalars and blocks removed.
std::vector<std::string> strip_exempt(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  int depth = 0;  // nesting depth inside an exempt block, 0 = outside
  while (std::getline(in, line)) {
    if (depth > 0) {
      for (char c : line) {
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
      }
      continue;
    }
    bool exempt = false;
    for (const std::string& key : exempt_keys()) {
      const std::size_t pos = line.find(key);
      if (pos == std::string::npos) continue;
      exempt = true;
      for (char c : line.substr(pos)) {  // value may open a block
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
      }
      break;
    }
    if (!exempt) lines.push_back(line);
  }
  return lines;
}

TEST(GoldenMetrics, EveryRegisteredWorkloadHasAPinnedSnapshot) {
  for (const Workload* workload : WorkloadRegistry::instance().list()) {
    EXPECT_TRUE(golden_datasets().contains(std::string(workload->name())))
        << "workload '" << workload->name()
        << "' has no golden dataset entry — add one (and its snapshot) to "
           "tests/golden/";
  }
  for (const auto& [name, spec] : golden_datasets()) {
    EXPECT_NE(WorkloadRegistry::instance().find(name), nullptr)
        << "golden entry '" << name << "' names an unregistered workload";
  }
}

TEST(GoldenMetrics, SnapshotsMatchFieldByField) {
  const bool update = std::getenv("KM_UPDATE_GOLDEN") != nullptr;
  for (const auto& [name, spec] : golden_datasets()) {
    const Workload* workload = WorkloadRegistry::instance().find(name);
    ASSERT_NE(workload, nullptr) << name;
    const std::string current = render_current(*workload, spec);

    if (update) {
      std::ofstream out(golden_path(name));
      ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
      out << current;
      continue;
    }

    std::ifstream in(golden_path(name));
    ASSERT_TRUE(in.good())
        << "missing golden snapshot " << golden_path(name)
        << " — generate with KM_UPDATE_GOLDEN=1";
    std::stringstream buffer;
    buffer << in.rdbuf();

    const std::vector<std::string> want = strip_exempt(buffer.str());
    const std::vector<std::string> got = strip_exempt(current);
    const std::size_t lines = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < lines; ++i) {
      EXPECT_EQ(got[i], want[i])
          << name << ".json line " << (i + 1)
          << " (exempt keys stripped) changed — if intentional, "
             "regenerate with KM_UPDATE_GOLDEN=1";
      if (got[i] != want[i]) break;  // first divergence is the story
    }
    EXPECT_EQ(got.size(), want.size()) << name << ".json length changed";
  }
}

// The snapshots run at k = 4, where TriPartition has one color and one
// tuple machine, so they never exercise the multi-color fan-out.  These
// cells do (c = 3 triplets at k = 27, c = 2 quadruplets at k = 16); the
// baseline cell shares the designation phase.  Same seed and default B as
// the snapshots: `km_run run --workload W --dataset D --k K --seed 7`.
TEST(GoldenMetrics, TriPartitionCostsAtMultiColorK) {
  struct Cell {
    const char* workload;
    const char* dataset;
    std::size_t k;
    std::uint64_t rounds, supersteps, messages, bits, max_link_bits, output;
  };
  const Cell cells[] = {
      {"triangles", "gnp:n=120,p=0.15", 27, 4, 3, 4988, 154000, 1216, 1083},
      {"triangles_baseline", "gnp:n=120,p=0.15", 8, 10, 2, 7812, 249536, 6336,
       1083},
      {"cliques4", "gnp:n=80,p=0.3", 16, 5, 3, 3952, 124544, 2208, 1615},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(std::string(cell.workload) + " k=" + std::to_string(cell.k));
    const Workload* workload = WorkloadRegistry::instance().find(cell.workload);
    ASSERT_NE(workload, nullptr);
    const RunResult result = run_cell(*workload, cell.dataset, cell.k);
    EXPECT_TRUE(result.check.ok) << result.check.detail;
    EXPECT_EQ(result.metrics.rounds, cell.rounds);
    EXPECT_EQ(result.metrics.supersteps, cell.supersteps);
    EXPECT_EQ(result.metrics.messages, cell.messages);
    EXPECT_EQ(result.metrics.bits, cell.bits);
    EXPECT_EQ(result.metrics.max_link_bits_superstep, cell.max_link_bits);
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(std::get<std::uint64_t>(result.outputs[0].second), cell.output);
  }
}

// The connectivity snapshots run at k = 4 on n = 64, where a component's
// label rarely has members on more than one machine.  These cells spread
// labels over many hosts: sketch connectivity at k = 64, and on a path at
// k = 16 (19 phases, long components split across machines), plus the
// Borůvka driver behind `components` at k = 27.  Same seed and default B
// as the snapshots.
TEST(GoldenMetrics, ConnectivityCostsAtMultiHostK) {
  struct Cell {
    const char* workload;
    const char* dataset;
    std::size_t k;
    std::uint64_t rounds, supersteps, messages, bits, max_link_bits,
        components, phases;
  };
  const Cell cells[] = {
      {"connectivity", "gnp:n=2048,p=0.004", 64, 52, 55, 61967, 17254368,
       1872, 1, 11},
      {"connectivity", "path:n=2000", 16, 128, 95, 15530, 15371904, 9248, 1,
       19},
      {"components", "gnp:n=2048,p=0.004", 27, 44, 44, 113048, 4990464, 1704,
       1, 6},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(std::string(cell.workload) + " on " + cell.dataset +
                 " k=" + std::to_string(cell.k));
    const Workload* workload = WorkloadRegistry::instance().find(cell.workload);
    ASSERT_NE(workload, nullptr);
    const RunResult result = run_cell(*workload, cell.dataset, cell.k);
    EXPECT_TRUE(result.check.ok) << result.check.detail;
    EXPECT_EQ(result.metrics.rounds, cell.rounds);
    EXPECT_EQ(result.metrics.supersteps, cell.supersteps);
    EXPECT_EQ(result.metrics.messages, cell.messages);
    EXPECT_EQ(result.metrics.bits, cell.bits);
    EXPECT_EQ(result.metrics.max_link_bits_superstep, cell.max_link_bits);
    ASSERT_EQ(result.outputs.size(), 2u);
    EXPECT_EQ(result.outputs[0].first, "num_components");
    EXPECT_EQ(std::get<std::uint64_t>(result.outputs[0].second),
              cell.components);
    EXPECT_EQ(result.outputs[1].first, "phases");
    EXPECT_EQ(std::get<std::uint64_t>(result.outputs[1].second), cell.phases);
  }
}

}  // namespace
}  // namespace km
