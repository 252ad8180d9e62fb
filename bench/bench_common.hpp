// Shared infrastructure for the benchmark harness.
//
// The paper has no experimental tables (it is a theory paper); each bench
// binary regenerates the *shape* of one quantitative claim: it records a
// measured series (e.g. rounds vs k), prints it next to the paper's
// predicted curve, and reports the fitted log-log exponent so "who wins,
// by roughly what factor, where crossovers fall" is visible directly in
// the output.  Each binary's header comment names its experiment (E1-E14)
// and the paper claim it tracks.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/mathx.hpp"

namespace km::bench {

/// Collects (x, y) points per named series during benchmark runs and
/// prints per-series tables plus fitted scaling exponents afterwards.
class SeriesTable {
 public:
  static SeriesTable& instance() {
    static SeriesTable table;
    return table;
  }

  void add(const std::string& series, double x, double y) {
    std::scoped_lock lock(mutex_);
    auto& pts = series_[series];
    // Benchmarks may repeat; keep the last value per x.
    for (auto& [px, py] : pts) {
      if (px == x) {
        py = y;
        return;
      }
    }
    pts.emplace_back(x, y);
  }

  /// Prints every series and its fitted log-log slope, with the
  /// expected exponent (if registered) next to it.
  void print_summary(const char* x_label) {
    std::scoped_lock lock(mutex_);
    std::printf("\n===== series summary (x = %s) =====\n", x_label);
    for (const auto& [name, pts] : series_) {
      std::printf("%-42s", name.c_str());
      std::vector<double> xs, ys;
      for (const auto& [x, y] : pts) {
        xs.push_back(x);
        ys.push_back(y);
        std::printf("  (%g, %.4g)", x, y);
      }
      if (xs.size() >= 2) {
        std::printf("   [fitted slope %+.3f", fit_log_log_slope(xs, ys));
        const auto it = expected_.find(name);
        if (it != expected_.end()) {
          std::printf(", paper predicts %+.3f", it->second);
        }
        std::printf(", corr %.3f]", log_log_correlation(xs, ys));
      }
      std::printf("\n");
    }
    std::printf("====================================\n");
  }

  void expect_slope(const std::string& series, double exponent) {
    std::scoped_lock lock(mutex_);
    expected_[series] = exponent;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::vector<std::pair<double, double>>> series_;
  std::map<std::string, double> expected_;
};

}  // namespace km::bench

/// Custom main: run benchmarks, then print the collected series with
/// fitted exponents next to the paper's predictions.
#define KM_BENCH_MAIN(x_label)                                        \
  int main(int argc, char** argv) {                                  \
    ::benchmark::Initialize(&argc, argv);                             \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {       \
      return 1;                                                       \
    }                                                                 \
    ::benchmark::RunSpecifiedBenchmarks();                            \
    ::benchmark::Shutdown();                                          \
    ::km::bench::SeriesTable::instance().print_summary(x_label);      \
    return 0;                                                         \
  }
