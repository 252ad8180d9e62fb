// Layer probes for kmbench's traced mode: each one times calls into one
// layer's public functions, from the benchmark's own code, on the
// workload's own cells.  See the per-layer table in perfbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kmbench.hpp"
#include "runtime/workload.hpp"
#include "serve/client.hpp"

namespace kmb {

/// The registered workload a cell runs; throws for an unknown name.
const km::Workload& workload_of(const Cell& cell);
/// The RunParams a cell runs with (trace off).
km::RunParams run_params(const Cell& cell);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Partition and reference-check time of one cell, as probed.
struct CellCost {
  double partition_ms = 0.0;
  double check_ms = 0.0;
};

/// Runs every cell `reps` times in process with RunParams::trace on and
/// records the engine, pool, partition, reference-check and serialization
/// metrics under their per-layer names (means per run; see README.md),
/// and each cell's last partition/check cost under its Cell::key().
/// Every document is checked; returns false on a failure.
bool probe_engine(const std::vector<Cell>& cells, int reps, LayerMetrics& out,
                  std::map<std::string, CellCost>& costs, std::string& error);

/// The engine on the huge-k cell: one untimed run (the first run at large
/// k pays the allocator's page faults), then three traced runs.  Records
/// hugek.wall_ms, hugek.outside_wall_ms and hugek.deliver_ms, means per
/// run as in probe_engine.  Returns false on a failure.
bool probe_huge_k(const Cell& cell, LayerMetrics& out, std::string& error);

/// Cold load_dataset (no cache) of each distinct dataset: median ms.
double probe_materialize_ms(const std::vector<Cell>& cells);

/// DatasetCache::get on a hit, for each distinct dataset: median us.
double probe_cache_get_us(const std::vector<Cell>& cells);

/// L0Sketch build (per-vertex sketches over every arc) and fold (merge
/// all, then sample) over the cell's dataset as an undirected graph, on
/// the CPUID-picked kernel path and on the forced scalar one:
/// sketch[.scalar].edge_adds_per_s / merge_sample_per_s.
void probe_sketch(const Cell& cell, LayerMetrics& out);

/// serve::parse_request over the cells' request lines: median us per call.
double probe_parse_us(const std::vector<Cell>& cells);

/// ResultStore::find on a hit, over one stored document per cell:
/// median us per call.
double probe_store_find_us(const std::vector<Cell>& cells);

/// Median round trip of `n` ping requests over `client`, in us.
double probe_ping_us(km::serve::ServeClient& client, int n);

/// The serve layers on this workload's cells, in process: a
/// ScenarioService behind a ServeServer socket at `socket`; every cell
/// once (an engine run), then `replay_rounds` replays of every cell, then
/// pings.  Records result_store.hit_ratio, serve.ping_us,
/// serve.replay_us_p50, serve.engine_ms_p50 and service.shed.
bool probe_serve_in_process(const std::vector<Cell>& cells,
                            const std::string& socket, int replay_rounds,
                            LayerMetrics& out, std::string& error);

}  // namespace kmb
