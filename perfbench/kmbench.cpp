// kmbench — closed-loop load generator of the end-to-end benchmark.
//
//   kmbench --workload sweep_k64|serve_mix --seed N --seconds S
//           [--trace 0|1] [--t0 MONO_S] [--setup-only] [--toy] [--tamper]
//           [--serve-bin PATH] [--run-dir DIR]
//
// perfbench/run.py builds and runs it; perfbench/README.md documents the
// workloads, the metrics and the output.  One client, closed loop: the
// next scenario is sent only after the previous one has been checked.
// The last line of stdout is the result object; exit status 0 only when
// every scenario was correct.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "kmbench.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "util/json.hpp"

namespace kmb {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double t0 = 0.0;  ///< when the process was launched (CLOCK_MONOTONIC)
  bool setup_only = false;
  bool toy = false;
  bool tamper = false;
  std::string serve_bin;
  std::string run_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() == "1";
    else if (flag == "--t0") a.t0 = std::stod(value());
    else if (flag == "--setup-only") a.setup_only = true;
    else if (flag == "--toy") a.toy = true;
    else if (flag == "--tamper") a.tamper = true;
    else if (flag == "--serve-bin") a.serve_bin = value();
    else if (flag == "--run-dir") a.run_dir = value();
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return a;
}

/// Aggregate CPU time from /proc/stat: steal and the total it is a share of.
struct CpuTimes {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal (guest time is
  // already counted in user).
  for (int i = 0; i < 8; ++i) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double loadavg_1m() {
  std::ifstream in("/proc/loadavg");
  double v = -1.0;
  in >> v;
  return v;
}

/// One timed window of the closed loop.
struct Window {
  double seconds = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t checked = 0;
  std::vector<double> latency_ms;
  // The stream's first `prefix` scenarios: their distinct cells' simulated
  // cost, and the peak memory once they are done.  This work is the same
  // in every run of a seed, however fast the host is.
  std::size_t prefix = 0;
  std::set<std::string> prefix_cells;
  std::uint64_t prefix_rounds = 0;
  std::uint64_t prefix_bits = 0;
  double prefix_peak_rss_mb = 0.0;
  double steal_pct = 0.0;
  std::string first_error;
};

class Runner {
 public:
  Runner(Target& target, Gate& gate) : target_(target), gate_(gate) {}

  /// Runs scenarios until `seconds` have passed and at least `min` ran
  /// (or the program under test is gone).  Records the simulated cost and
  /// the peak memory of the stream's first `prefix` scenarios.
  Window run(double seconds, std::size_t min, std::size_t prefix,
             Tracer* tracer) {
    Window w;
    const CpuTimes cpu0 = read_cpu_times();
    const double start = mono_s();
    while (mono_s() - start < seconds || w.attempted < min) {
      const Cell cell = target_.next_cell();
      const std::uint64_t id = scenario_++;
      const double t = mono_s();
      const int root = tracer ? tracer->begin("scenario", id) : -1;
      Outcome o = target_.run(cell, tracer, id, root);
      {
        SpanScope s(tracer, "bench/check_document", id, root);
        gate_.check(cell, o);
      }
      if (tracer && o.ok && o.source != "result_store" && o.span >= 0) {
        tracer->attribute("sim/engine.wall_ms", o.span, o.wall_ms);
      }
      if (tracer) tracer->end(root);
      w.latency_ms.push_back((mono_s() - t) * 1e3);
      ++w.attempted;
      if (!o.ok) {
        if (w.first_error.empty()) w.first_error = o.error;
        ++w.failed;
        if (o.fatal) break;
        continue;
      }
      ++w.checked;
      if (w.prefix < prefix) {
        if (w.prefix_cells.insert(cell.key()).second) {
          w.prefix_rounds += o.rounds;
          w.prefix_bits += o.bits;
        }
        if (++w.prefix == prefix) w.prefix_peak_rss_mb = target_.peak_rss_mb();
      }
    }
    w.seconds = mono_s() - start;
    const CpuTimes cpu1 = read_cpu_times();
    if (cpu1.total > cpu0.total) {
      w.steal_pct = 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                    static_cast<double>(cpu1.total - cpu0.total);
    }
    return w;
  }

 private:
  Target& target_;
  Gate& gate_;
  std::uint64_t scenario_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// The last stdout line: the result object the benchmark contract names.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  km::JsonWriter w(0);
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", std::uint64_t{attempted});
  w.field("failed", std::uint64_t{failed});
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void print_provenance(const Args& a, const Target& d, const Window& w) {
  std::printf(
      "provenance: nproc=%ld engine_workers=%zu loadavg_1m=%.2f "
      "steal_pct=%.3f window_s=%.3f workload=%s seed=%llu\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), d.engine_workers(), loadavg_1m(),
      w.steal_pct, w.seconds, a.workload.c_str(),
      static_cast<unsigned long long>(a.seed));
}

/// Units of the per-layer metrics, in the order they are reported.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"dataset.materialize_ms", "ms"},
      {"dataset_cache.get_us", "us"},
      {"dataset_cache.hit_ratio", "ratio"},
      {"dataset_cache.hits", "count"},
      {"dataset_cache.misses", "count"},
      {"partition.ms", "ms"},
      {"engine.wall_ms", "ms"},
      {"engine.outside_wall_ms", "ms"},
      {"engine.us_per_superstep", "us"},
      {"engine.supersteps", "count"},
      {"engine.send_ms", "ms"},
      {"engine.deliver_ms", "ms"},
      {"engine.compute_ms", "ms"},
      {"engine.messages", "count"},
      {"hugek.wall_ms", "ms"},
      {"hugek.outside_wall_ms", "ms"},
      {"hugek.deliver_ms", "ms"},
      {"pool.hit_ratio", "ratio"},
      {"payload_pool.dropped", "count"},
      {"sketch.edge_adds_per_s", "1/s"},
      {"sketch.merge_sample_per_s", "1/s"},
      {"sketch.scalar.edge_adds_per_s", "1/s"},
      {"sketch.scalar.merge_sample_per_s", "1/s"},
      {"check.ms", "ms"},
      {"results.serialize_ms", "ms"},
      {"results.doc_kb", "KB"},
      {"protocol.parse_us", "us"},
      {"result_store.find_us", "us"},
      {"result_store.hit_ratio", "ratio"},
      {"serve.ping_us", "us"},
      {"serve.replay_us_p50", "us"},
      {"serve.engine_ms_p50", "ms"},
      {"service.shed", "count"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

int run_untraced(const Args& a, Target& d, Gate& gate, double setup_s) {
  Runner runner(d, gate);
  const Window w =
      runner.run(a.seconds, d.min_scenarios(), d.min_scenarios(), nullptr);
  d.finish();

  const std::size_t beyond_p90 =
      w.latency_ms.size() -
      std::min(w.latency_ms.size(),
               static_cast<std::size_t>(
                   std::ceil(0.9 * static_cast<double>(w.latency_ms.size()))));
  print_provenance(a, d, w);
  std::printf("scenarios: attempted=%zu checked=%zu failed=%zu "
              "beyond_p90=%zu prefix=%zu prefix_cells=%zu\n",
              w.attempted, w.checked, w.failed, beyond_p90, w.prefix,
              w.prefix_cells.size());
  std::printf("%s", gate.table(12).c_str());
  if (!w.first_error.empty()) {
    std::fprintf(stderr, "kmbench: %s\n", w.first_error.c_str());
  }
  const double cells =
      static_cast<double>(std::max<std::size_t>(w.prefix_cells.size(), 1));
  const bool correct = w.failed == 0 && w.prefix == d.min_scenarios();
  print_result(
      correct, w.attempted, w.failed,
      {{"setup_s", "s", setup_s},
       {"scenarios_per_s", "1/s", static_cast<double>(w.checked) / w.seconds},
       {"scenario_ms_p50", "ms", percentile(w.latency_ms, 50)},
       {"scenario_ms_p90", "ms", percentile(w.latency_ms, 90)},
       {"peak_rss_mb", "MB", w.prefix_peak_rss_mb},
       {"rounds_per_scenario", "rounds",
        static_cast<double>(w.prefix_rounds) / cells},
       {"mbits_per_scenario", "Mbit",
        static_cast<double>(w.prefix_bits) / 1e6 / cells}});
  return correct ? 0 : 1;
}

int run_traced(const Args& a, Target& d, Gate& gate) {
  LayerMetrics layer;
  std::string error;
  bool correct = d.probe_layers(layer, error) &&
                 probe_huge_k(huge_k_cell(a.seed, a.toy), layer, error);
  Runner runner(d, gate);
  Window plain, traced;
  Tracer tracer;
  if (correct) {
    plain = runner.run(a.seconds / 2, 0, 0, nullptr);
    d.begin_traced_window();
    traced = runner.run(a.seconds / 2, 0, 0, &tracer);
    d.end_traced_window(tracer, layer);
    if (error.empty()) error = plain.first_error;
    if (error.empty()) error = traced.first_error;
  }
  d.finish();

  const double plain_sps = static_cast<double>(plain.checked) / plain.seconds;
  const double traced_sps =
      static_cast<double>(traced.checked) / traced.seconds;
  layer["trace.overhead_pct"] =
      plain_sps > 0 ? 100.0 * (plain_sps - traced_sps) / plain_sps : 0.0;

  const std::string spans = a.run_dir + "/spans-" + a.workload + "-seed" +
                            std::to_string(a.seed) + ".json";
  tracer.write_json(spans);
  print_provenance(a, d, traced);
  std::printf("traced: spans=%s untraced_scenarios_per_s=%.4f "
              "traced_scenarios_per_s=%.4f overhead_pct=%.3f\n",
              spans.c_str(), plain_sps, traced_sps,
              layer["trace.overhead_pct"]);
  std::printf("%s", tracer.self_time_table("scenario").c_str());
  std::printf("%s", gate.table(12).c_str());

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_units()) {
    const auto it = layer.find(name);
    if (it == layer.end()) {
      if (error.empty()) error = "per-layer metric " + name + " not measured";
      continue;
    }
    metrics.push_back({name, unit, it->second});
    std::printf("layer: %-34s %16.4f %s\n", name.c_str(), it->second,
                unit.c_str());
  }
  // A failed probe or a missing metric counts as one more failed check.
  const std::size_t extra = error.empty() && correct ? 0 : 1;
  const std::size_t failed = plain.failed + traced.failed + extra;
  correct = failed == 0;
  if (!error.empty()) std::fprintf(stderr, "kmbench: %s\n", error.c_str());
  print_result(correct, plain.attempted + traced.attempted + extra, failed,
               metrics);
  return correct ? 0 : 1;
}

int main_impl(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const double t0 = a.t0 > 0 ? a.t0 : mono_s();
  std::unique_ptr<Target> target =
      make_target(a.workload, a.seed, a.toy, a.serve_bin, a.run_dir);
  if (!target) {
    std::fprintf(stderr, "kmbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  Gate gate(a.tamper);
  std::string error;
  if (!target->setup(error)) {
    target->finish();
    std::fprintf(stderr, "kmbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  const double setup_s = mono_s() - t0;
  if (a.setup_only) {
    target->finish();
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }
  return a.trace ? run_traced(a, *target, gate)
                 : run_untraced(a, *target, gate, setup_s);
}

}  // namespace
}  // namespace kmb

int main(int argc, char** argv) {
  try {
    return kmb::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kmbench: %s\n", e.what());
    return 1;
  }
}
