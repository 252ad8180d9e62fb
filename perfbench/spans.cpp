#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "kmbench.hpp"
#include "util/json.hpp"

namespace kmb {

int Tracer::begin(std::string_view name, std::uint64_t scenario, int parent) {
  Span s;
  s.name = std::string(name);
  s.start_us = mono_s() * 1e6;
  s.parent = parent;
  s.scenario = scenario;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) { spans_[static_cast<std::size_t>(id)].end_us = mono_s() * 1e6; }

void Tracer::rename(int id, std::string_view name) {
  spans_[static_cast<std::size_t>(id)].name = std::string(name);
}

void Tracer::attribute(std::string_view name, int parent, double dur_ms) {
  const Span& p = spans_.at(static_cast<std::size_t>(parent));
  Span s;
  s.name = std::string(name);
  s.start_us = p.start_us;
  s.end_us = p.start_us + dur_ms * 1e3;
  s.parent = parent;
  s.scenario = p.scenario;
  s.attributed = true;
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  km::JsonWriter w(0);
  w.begin_object();
  w.field("schema", "km.bench_spans/v1");
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.field("id", std::uint64_t{i});
    w.field("name", s.name);
    w.field("start_us", s.start_us);
    w.field("end_us", s.end_us);
    w.field("parent", std::int64_t{s.parent});
    w.field("scenario", s.scenario);
    w.field("attributed", s.attributed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

std::string Tracer::self_time_table(std::string_view root) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  double root_us = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end_us - s.start_us;
    Row& r = rows[s.name];
    ++r.count;
    r.total_us += dur;
    r.self_us += std::max(0.0, dur - child_us[i]);
    if (s.name == root) root_us += dur;
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %8s %12s %12s %8s\n", "layer span",
                "count", "total_ms", "self_ms", "self_%");
  out += line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-34s %8zu %12.3f %12.3f %8.2f\n",
                  name.c_str(), r.count, r.total_us / 1e3, r.self_us / 1e3,
                  root_us > 0 ? 100.0 * r.self_us / root_us : 0.0);
    out += line;
  }
  return out;
}

}  // namespace kmb
