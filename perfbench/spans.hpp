// In-memory span recorder for kmbench's traced mode.
//
// Spans are recorded by the benchmark around each call it makes into a
// layer's public functions; nothing inside the simulator is instrumented.
// Where the program itself reports how long part of a call took (the
// engine's Metrics::wall_ms) or a probe measured the same call on the
// same input (partition, reference check), that part is *attributed* as
// a child span placed at its parent's start, so the parent's self time
// is what no layer accounts for.  Spans stay in memory and are written
// out once, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kmb {

class Tracer {
 public:
  /// Opens a span and returns its id; parent -1 makes it a root.
  int begin(std::string_view name, std::uint64_t scenario, int parent = -1);
  void end(int id);
  /// Renames a span once its kind is known (e.g. by the reply's source).
  void rename(int id, std::string_view name);
  /// Adds a child of `parent` lasting `dur_ms`, starting at its start.
  void attribute(std::string_view name, int parent, double dur_ms);

  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Writes every span as one JSON document (km.bench_spans/v1).
  void write_json(const std::string& path) const;

  /// One line per span name: count, total and self time (duration minus
  /// its children), and self time as a share of the summed duration of
  /// the spans named `root`.
  std::string self_time_table(std::string_view root) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t scenario = 0;
    bool attributed = false;
  };
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it free.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name, std::uint64_t scenario,
            int parent = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, scenario, parent) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }
  Tracer* tracer() const { return tracer_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace kmb
