// The three workloads' targets, the document check and the determinism
// gate.  Why each workload exists is in perfbench/README.md.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

#include "kmbench.hpp"
#include "probes.hpp"
#include "runtime/dataset_cache.hpp"
#include "runtime/results.hpp"
#include "serve/client.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace kmb {

double mono_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double vm_hwm_mb(const std::string& pid_or_self) {
  std::ifstream in("/proc/" + pid_or_self + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return -1.0;
}

// ---- cells, documents, gate ----

std::string Cell::key() const {
  return workload + " " + dataset + " k=" + std::to_string(k) +
         " B=" + std::to_string(bandwidth) + " seed=" + std::to_string(seed) +
         " dseed=" + std::to_string(dataset_seed) +
         (timeline ? "" : " no-timeline");
}

std::string Cell::request_line() const {
  km::JsonWriter w(0);
  w.begin_object();
  w.field("op", "run");
  w.field("workload", workload);
  w.field("dataset", dataset);
  w.field("k", std::uint64_t{k});
  w.field("bandwidth", bandwidth);
  w.field("seed", seed);
  w.field("workers", std::uint64_t{workers});
  w.field("timeline", timeline);
  w.end_object();
  return w.str();
}

namespace {

const km::JsonValue* at(const km::JsonValue& v,
                        std::initializer_list<const char*> path) {
  const km::JsonValue* cur = &v;
  for (const char* key : path) {
    if (!cur->is(km::JsonValue::Kind::kObject)) return nullptr;
    cur = cur->find(key);
    if (!cur) return nullptr;
  }
  return cur;
}

std::uint64_t count_at(const km::JsonValue& v,
                       std::initializer_list<const char*> path) {
  const km::JsonValue* n = at(v, path);
  if (!n || !n->is(km::JsonValue::Kind::kNumber) || n->number < 0) {
    throw std::runtime_error("document lacks a count at metrics path");
  }
  return static_cast<std::uint64_t>(n->number);
}

}  // namespace

void check_document(const Cell& cell, Outcome& out) {
  out.ok = false;
  km::JsonValue v;
  std::string err;
  if (!km::parse_json(out.doc, v, err)) {
    out.error = "unparsable document: " + err;
    return;
  }
  const km::JsonValue* schema = at(v, {"schema"});
  const km::JsonValue* workload = at(v, {"workload"});
  const km::JsonValue* performed = at(v, {"check", "performed"});
  const km::JsonValue* ok = at(v, {"check", "ok"});
  const km::JsonValue* wall = at(v, {"metrics", "wall_ms"});
  if (!schema || schema->string != "km.run_result/v1" || !workload ||
      workload->string != cell.workload || !performed || !ok || !wall) {
    out.error = "document does not answer " + cell.key();
    return;
  }
  if (!performed->boolean || !ok->boolean) {
    const km::JsonValue* detail = at(v, {"check", "detail"});
    out.error = "reference check failed for " + cell.key() + ": " +
                (detail ? detail->string : "");
    return;
  }
  try {
    if (count_at(v, {"params", "k"}) != cell.k ||
        count_at(v, {"params", "seed"}) != cell.seed) {
      out.error = "document params differ from " + cell.key();
      return;
    }
    out.rounds = count_at(v, {"metrics", "rounds"});
    out.supersteps = count_at(v, {"metrics", "supersteps"});
    out.bits = count_at(v, {"metrics", "bits"});
  } catch (const std::exception& e) {
    out.error = e.what();
    return;
  }
  out.wall_ms = wall->number;
  out.ok = true;
}

void Gate::check(const Cell& cell, Outcome& out) {
  if (!out.ok) return;
  const auto it = seen_.find(cell.key());
  if (it != seen_.end() && out.source == "result_store") {
    if (out.doc != it->second.doc) {
      out.ok = false;
      out.error = "replay of " + cell.key() +
                  " is not byte-identical to its first document";
      return;
    }
    out.rounds = it->second.rounds;
    out.supersteps = it->second.supersteps;
    out.bits = it->second.bits;
    return;
  }
  check_document(cell, out);
  if (!out.ok) return;
  if (it == seen_.end()) {
    Expected e{out.rounds, out.supersteps, out.bits,
               out.source == "in_process" ? std::string() : out.doc};
    if (tamper_) {
      ++e.rounds;
      e.doc += ' ';
    }
    seen_.emplace(cell.key(), std::move(e));
    return;
  }
  const Expected& e = it->second;
  if (out.rounds != e.rounds || out.supersteps != e.supersteps ||
      out.bits != e.bits) {
    out.ok = false;
    out.error = "determinism: " + cell.key() + " gave rounds/supersteps/bits " +
                std::to_string(out.rounds) + "/" +
                std::to_string(out.supersteps) + "/" +
                std::to_string(out.bits) + ", first run gave " +
                std::to_string(e.rounds) + "/" + std::to_string(e.supersteps) +
                "/" + std::to_string(e.bits);
  }
}

std::string Gate::table(std::size_t max_rows) const {
  std::string out;
  std::size_t rows = 0;
  for (const auto& [key, e] : seen_) {
    if (rows++ == max_rows) {
      out += "cell: ... " + std::to_string(seen_.size() - max_rows) +
             " more cells\n";
      break;
    }
    out += "cell: " + key + " rounds=" + std::to_string(e.rounds) +
           " supersteps=" + std::to_string(e.supersteps) +
           " bits=" + std::to_string(e.bits) + "\n";
  }
  return out;
}

namespace {

void add_cache_window(const km::DatasetCacheCounters& d, LayerMetrics& out) {
  out["dataset_cache.hits"] = static_cast<double>(d.hits);
  out["dataset_cache.misses"] = static_cast<double>(d.misses);
  out["dataset_cache.hit_ratio"] =
      d.hits + d.misses ? static_cast<double>(d.hits) /
                              static_cast<double>(d.hits + d.misses)
                        : 0.0;
}

// ---- in-process workload: sweep_k64 ----

class InProcessTarget final : public Target {
 public:
  InProcessTarget(std::vector<Cell> cells, std::vector<Cell> warmup,
                  std::size_t min_scenarios, std::size_t sketch_cell,
                  std::string run_dir)
      : cells_(std::move(cells)),
        warmup_(std::move(warmup)),
        min_scenarios_(min_scenarios),
        sketch_cell_(sketch_cell),
        run_dir_(std::move(run_dir)) {}

  std::size_t engine_workers() const override { return cells_[0].workers; }
  std::size_t min_scenarios() const override { return min_scenarios_; }

  bool setup(std::string& error) override {
    for (const Cell& c : cells_) {
      km::load_dataset_cached(c.dataset, workload_of(c).input_kind(),
                              c.dataset_seed);
    }
    for (const Cell& c : warmup_) {
      Outcome o = run(c, nullptr, 0, -1);
      if (o.ok) check_document(c, o);
      if (!o.ok) {
        error = "warm-up " + c.key() + ": " + o.error;
        return false;
      }
    }
    return true;
  }

  Cell next_cell() override { return cells_[next_++ % cells_.size()]; }

  Outcome run(const Cell& cell, Tracer* tracer, std::uint64_t scenario,
              int parent) override {
    Outcome o;
    o.source = "in_process";
    try {
      const km::Workload& w = workload_of(cell);
      std::shared_ptr<const km::Dataset> ds;
      {
        SpanScope s(tracer, "runtime/dataset_cache.get", scenario, parent);
        ds = km::load_dataset_cached(cell.dataset, w.input_kind(),
                                     cell.dataset_seed);
      }
      km::RunParams params = run_params(cell);
      params.trace = tracer != nullptr;
      km::RunResult result;
      {
        SpanScope s(tracer, "runtime/run_workload", scenario, parent);
        result = km::run_workload(w, *ds, params);
        o.span = s.id();
        if (tracer) {
          const CellCost& cost = costs_[cell.key()];
          tracer->attribute("sim/partition", s.id(), cost.partition_ms);
          tracer->attribute("graph/reference_check", s.id(), cost.check_ms);
        }
      }
      SpanScope s(tracer, "runtime/results.serialize", scenario, parent);
      o.doc = km::run_result_to_json(result, 0);
      o.ok = true;
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    return o;
  }

  double peak_rss_mb() override { return vm_hwm_mb("self"); }

  bool probe_layers(LayerMetrics& out, std::string& error) override {
    out["dataset.materialize_ms"] = probe_materialize_ms(cells_);
    // At least 15 traced runs in all.
    const int reps = static_cast<int>(std::max<std::size_t>(1, 15 / cells_.size()));
    if (!probe_engine(cells_, reps, out, costs_, error)) return false;
    probe_sketch(cells_[sketch_cell_], out);
    out["protocol.parse_us"] = probe_parse_us(cells_);
    out["result_store.find_us"] = probe_store_find_us(cells_);
    const std::string socket =
        run_dir_ + "/probe-" + std::to_string(::getpid()) + ".sock";
    return probe_serve_in_process(cells_, socket, 5, out, error);
  }

  void begin_traced_window() override {
    cache_base_ = km::DatasetCache::instance().counters();
  }

  void end_traced_window(const Tracer& tracer, LayerMetrics& out) override {
    add_cache_window(km::DatasetCache::instance().counters().since(cache_base_),
                     out);
    std::vector<double> us = tracer.durations_ms("runtime/dataset_cache.get");
    for (double& v : us) v *= 1e3;
    out["dataset_cache.get_us"] = median(us);
  }

 private:
  std::vector<Cell> cells_;
  std::vector<Cell> warmup_;
  std::size_t min_scenarios_;
  std::size_t sketch_cell_;
  std::string run_dir_;
  std::size_t next_ = 0;
  std::map<std::string, CellCost> costs_;
  km::DatasetCacheCounters cache_base_;
};

// ---- serve_mix: the km_serve daemon over its socket ----

/// The seeded serve_mix request stream.  Requests come in blocks of 20, in
/// a seeded order: 15 repeat an earlier cell (a result-store read), 4 are
/// a new (k, B) cell over a cached dataset (a dataset-cache hit, an engine
/// run and a store write) and 1 brings a new dataset seed (a cache miss
/// and a materialization).  The mix is fixed by construction rather than
/// drawn per request, because its composition decides host time: engine
/// runs cycle through the six families, each family's new cells cycle
/// through its (k, B) grid, and repeats cycle through the families.  The
/// seed picks the datasets, the order inside each block and which earlier
/// cell of a family is repeated.
class ServeStream {
 public:
  struct Family {
    const char* workload;
    std::size_t kind;  ///< the dataset kind it needs, as an index
    bool keys;
  };
  static constexpr Family kFamilies[] = {
      {"mst", 0, false},          {"components", 1, false},
      {"connectivity", 1, false}, {"pagerank", 2, false},
      {"triangles", 1, false},    {"sort", 3, true}};
  static constexpr std::size_t kNumFamilies = std::size(kFamilies);

  ServeStream(std::uint64_t seed, bool toy)
      : state_(km::mix64(seed, 0x5E27'E000ULL)),
        graph_(toy ? "gnp:n=256,p=0.02" : "gnp:n=2048,p=0.004"),
        keys_(toy ? "keys:n=4096" : "keys:n=65536"),
        ks_(toy ? std::array<std::size_t, 2>{4, 8}
                : std::array<std::size_t, 2>{8, 16}),
        base_seed_(1 + seed * 100'000),
        next_seed_(base_seed_ + 1) {
    for (auto& seeds : known_) seeds.push_back(base_seed_);
  }

  /// One cell per family over the base datasets, at a bandwidth the
  /// stream never uses: materializes every dataset kind and warms the
  /// daemon without putting a timed cell in its result store.
  std::vector<Cell> warmup_cells() const {
    std::vector<Cell> out;
    for (std::size_t f = 0; f < kNumFamilies; ++f) {
      Cell c = make(f, base_seed_, 0);
      c.bandwidth = kWarmBandwidth;
      out.push_back(c);
    }
    return out;
  }

  /// One cell per family over the base datasets (engine probes).
  std::vector<Cell> probe_cells() const {
    std::vector<Cell> out;
    for (std::size_t f = 0; f < kNumFamilies; ++f) {
      out.push_back(make(f, base_seed_, f % ks_.size()));
    }
    return out;
  }

  Cell next() {
    if (slot_ == block_.size()) {
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[index(i + 1)]);
      }
      slot_ = 0;
    }
    const char kind = block_[slot_++];
    if (kind == 'R') {
      // Before a family has cells of its own, a repeat becomes a new cell.
      for (std::size_t i = 0; i < kNumFamilies; ++i) {
        const auto& cells = issued_[replay_family_++ % kNumFamilies];
        if (!cells.empty()) return cells[index(cells.size())];
      }
    }
    const std::size_t f = family_++ % kNumFamilies;
    const auto& seeds = known_[kFamilies[f].kind];
    if (kind != 'D') {
      for (std::size_t tries = 0; tries < kCombos; ++tries) {
        const std::size_t combo = combo_[f]++ % kCombos;
        std::vector<std::uint64_t> free;
        for (const std::uint64_t s : seeds) {
          if (!used_.count(make(f, s, combo).key())) free.push_back(s);
        }
        if (!free.empty()) return issue(f, make(f, free[index(free.size())], combo));
      }
    }
    const std::uint64_t dseed = next_seed_++;
    known_[kFamilies[f].kind].push_back(dseed);
    return issue(f, make(f, dseed, combo_[f]++ % kCombos));
  }

 private:
  static constexpr std::uint64_t kBandwidths[] = {0, 512, 1024, 2048, 4096};
  static constexpr std::size_t kCombos = 2 * std::size(kBandwidths);
  static constexpr std::uint64_t kWarmBandwidth = 3072;

  /// Family f's cell over dataset seed `dseed` at (k, B) grid point `combo`.
  Cell make(std::size_t f, std::uint64_t dseed, std::size_t combo) const {
    Cell c;
    c.workload = kFamilies[f].workload;
    c.dataset = kFamilies[f].keys ? keys_ : graph_;
    c.k = ks_[combo % ks_.size()];
    c.bandwidth = kBandwidths[combo / ks_.size()];
    c.seed = dseed;
    c.dataset_seed = dseed;
    c.workers = 1;
    // Replies without the per-superstep timeline keep replay cost about
    // the serving path rather than the size of one cell's document.
    c.timeline = false;
    return c;
  }

  Cell issue(std::size_t f, const Cell& c) {
    used_.insert(c.key());
    issued_[f].push_back(c);
    return c;
  }

  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(km::splitmix64(state_) % n);
  }

  std::uint64_t state_;
  std::string graph_;
  std::string keys_;
  std::array<std::size_t, 2> ks_;
  std::uint64_t base_seed_;
  std::uint64_t next_seed_;
  std::string block_ = std::string(15, 'R') + "NNNND";
  std::size_t slot_ = block_.size();
  std::size_t family_ = 0;
  std::size_t replay_family_ = 0;
  std::size_t combo_[kNumFamilies] = {};
  std::vector<std::uint64_t> known_[4];
  std::set<std::string> used_;
  std::vector<Cell> issued_[kNumFamilies];
};

class ServeTarget final : public Target {
 public:
  ServeTarget(std::uint64_t seed, bool toy, std::string serve_bin,
              std::string run_dir)
      : stream_(seed, toy),
        toy_(toy),
        serve_bin_(std::move(serve_bin)),
        run_dir_(std::move(run_dir)),
        socket_(run_dir_ + "/serve-" + std::to_string(::getpid()) + ".sock") {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ::sched_getaffinity(0, sizeof allowed, &allowed);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }

  ~ServeTarget() override { finish(); }
  ServeTarget(const ServeTarget&) = delete;
  ServeTarget& operator=(const ServeTarget&) = delete;

  std::size_t engine_workers() const override { return 1; }
  std::size_t min_scenarios() const override { return toy_ ? 20 : 1000; }

  bool setup(std::string& error) override {
    if (!start_daemon(error)) return false;
    pin_to(cpus_.front());
    for (const Cell& c : stream_.warmup_cells()) {
      Outcome o = run(c, nullptr, 0, -1);
      if (o.ok) check_document(c, o);
      if (!o.ok) {
        error = "warm-up " + c.key() + ": " + o.error;
        return false;
      }
    }
    return true;
  }

  Cell next_cell() override {
    if (requests_ % kPinBlock == 0) {
      pin_to(cpus_[(requests_ / kPinBlock) % cpus_.size()]);
    }
    ++requests_;
    return stream_.next();
  }

  Outcome run(const Cell& cell, Tracer* tracer, std::uint64_t scenario,
              int parent) override {
    Outcome o;
    try {
      SpanScope s(tracer, "serve/request", scenario, parent);
      km::serve::WireResponse r = client_->request(cell.request_line());
      o.span = s.id();
      if (r.meta.find("\"status\":\"ok\"") == std::string::npos) {
        o.error = "km_serve error for " + cell.key() + ": " + r.meta;
        return o;
      }
      o.source = r.meta.find("\"source\":\"result_store\"") != std::string::npos
                     ? "result_store"
                     : "engine";
      if (tracer) tracer->rename(s.id(), "serve/request[" + o.source + "]");
      o.doc = std::move(r.doc);
      o.ok = true;
    } catch (const std::exception& e) {
      o.error = e.what();
      o.fatal = true;
    }
    return o;
  }

  double peak_rss_mb() override {
    return pid_ > 0 ? vm_hwm_mb(std::to_string(pid_)) : -1.0;
  }

  bool probe_layers(LayerMetrics& out, std::string& error) override {
    const std::vector<Cell> cells = stream_.probe_cells();
    out["dataset.materialize_ms"] = probe_materialize_ms(cells);
    std::map<std::string, CellCost> costs;
    if (!probe_engine(cells, 2, out, costs, error)) return false;
    out["dataset_cache.get_us"] = probe_cache_get_us(cells);
    probe_sketch(cells[1], out);
    // The request mix the daemon parses and looks up: a copy of the
    // stream, so the timed stream itself is not advanced.
    ServeStream copy = stream_;
    std::vector<Cell> lines;
    for (int i = 0; i < 400; ++i) lines.push_back(copy.next());
    out["protocol.parse_us"] = probe_parse_us(lines);
    out["result_store.find_us"] = probe_store_find_us(lines);
    out["serve.ping_us"] = probe_ping_us(*client_, 200);
    return true;
  }

  void begin_traced_window() override { stats_base_ = stats(); }

  void end_traced_window(const Tracer& tracer, LayerMetrics& out) override {
    const km::JsonValue now = stats();
    const auto delta = [&](const char* group, const char* field) {
      const km::JsonValue* a = now.find(group);
      const km::JsonValue* b = stats_base_.find(group);
      const km::JsonValue* x = a ? a->find(field) : nullptr;
      const km::JsonValue* y = b ? b->find(field) : nullptr;
      return x && y ? x->number - y->number : 0.0;
    };
    km::DatasetCacheCounters cache;
    cache.hits = static_cast<std::uint64_t>(delta("dataset_cache", "hits"));
    cache.misses = static_cast<std::uint64_t>(delta("dataset_cache", "misses"));
    add_cache_window(cache, out);
    const double hits = delta("result_store", "hits");
    const double misses = delta("result_store", "misses");
    out["result_store.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out["service.shed"] = delta("service", "shed");
    std::vector<double> replay_us =
        tracer.durations_ms("serve/request[result_store]");
    for (double& v : replay_us) v *= 1e3;
    out["serve.replay_us_p50"] = median(replay_us);
    out["serve.engine_ms_p50"] =
        median(tracer.durations_ms("serve/request[engine]"));
  }

  void finish() override {
    if (pid_ <= 0) return;
    if (client_) {
      try {
        client_->request("{\"op\":\"shutdown\"}");
      } catch (const std::exception&) {
        // The daemon is already gone; reaped below.
      }
      client_.reset();
    }
    // Give the daemon 10 s to exit on its own, then kill it.
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10'000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  bool start_daemon(std::string& error) {
    const std::string log = run_dir_ + "/km_serve.log";
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // The daemon must not outlive the load generator, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      const char* argv[] = {serve_bin_.c_str(), "serve", "--socket",
                            socket_.c_str(), "--runners", "1", nullptr};
      ::execv(serve_bin_.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    // Connect as soon as the daemon listens (up to 30 s).
    for (int i = 0; i < 3000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        error = "km_serve exited during start-up (see " + log + ")";
        return false;
      }
      try {
        client_ = std::make_unique<km::serve::ServeClient>(socket_);
        return true;
      } catch (const std::exception&) {
        ::usleep(2'000);
      }
    }
    error = "km_serve did not listen on " + socket_;
    return false;
  }

  /// Moves the client thread and every daemon thread onto one CPU.  In a
  /// closed loop with one client only one side runs at a time, so sharing
  /// a CPU costs no parallelism, and it keeps the VM's cross-CPU wake-up
  /// latency (which moved the median replay between 40 and 80 us with
  /// host steal) out of every request.  next_cell() moves the pair to the
  /// next CPU every kPinBlock requests, so every run samples every CPU.
  void pin_to(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid_) + "/task", ec)) {
      const pid_t tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      if (tid > 0) ::sched_setaffinity(tid, sizeof one, &one);
    }
  }

  km::JsonValue stats() {
    const km::serve::WireResponse r = client_->request("{\"op\":\"stats\"}");
    km::JsonValue v;
    std::string err;
    if (!km::parse_json(r.doc, v, err)) {
      throw std::runtime_error("unparsable stats document: " + err);
    }
    return v;
  }

  ServeStream stream_;
  bool toy_;
  std::string serve_bin_;
  std::string run_dir_;
  std::string socket_;
  static constexpr std::size_t kPinBlock = 20;
  std::vector<int> cpus_;  ///< the CPUs this process may run on
  std::size_t requests_ = 0;
  pid_t pid_ = -1;
  std::unique_ptr<km::serve::ServeClient> client_;
  km::JsonValue stats_base_;
};

Cell in_process_cell(const char* workload, const std::string& dataset,
                     std::size_t k, std::uint64_t seed, std::size_t workers) {
  Cell c;
  c.workload = workload;
  c.dataset = dataset;
  c.k = k;
  c.seed = seed;
  c.dataset_seed = seed;
  c.workers = workers;
  return c;
}

/// The same cells under another run seed: outside the timed stream.
std::vector<Cell> reseeded(std::vector<Cell> cells, std::uint64_t offset) {
  for (Cell& c : cells) c.seed += offset;
  return cells;
}

}  // namespace

Cell huge_k_cell(std::uint64_t seed, bool toy) {
  return in_process_cell("connectivity_baseline",
                         toy ? "path:n=1024" : "path:n=8192", toy ? 64 : 1024,
                         seed, 1);
}

std::unique_ptr<Target> make_target(const std::string& workload,
                                    std::uint64_t seed, bool toy,
                                    const std::string& serve_bin,
                                    const std::string& run_dir) {
  constexpr std::uint64_t kWarmSeedOffset = 1'000'003;
  if (workload == "sweep_k64") {
    const std::string rmat = toy ? "rmat:n=512,m=4096" : "rmat:n=4096,m=32768";
    const std::string gnp = toy ? "gnp:n=512,p=0.02" : "gnp:n=4096,p=0.004";
    const std::string keys = toy ? "keys:n=8192" : "keys:n=131072";
    const std::size_t k = toy ? 8 : 64;
    // Three dataset instances per family: the mean cost of 15 cells moves
    // less from one seed to the next than that of 5.
    std::vector<Cell> cells;
    for (std::uint64_t instance = 0; instance < 3; ++instance) {
      const std::uint64_t s = seed * 3 + instance;
      for (const auto& [workload, dataset] :
           {std::pair{"pagerank", rmat}, std::pair{"triangles", rmat},
            std::pair{"connectivity", gnp}, std::pair{"mst", gnp},
            std::pair{"sort", keys}}) {
        cells.push_back(in_process_cell(workload, dataset, k, s, 2));
      }
    }
    std::vector<Cell> warmup = reseeded(
        std::vector<Cell>(cells.begin(), cells.begin() + 5), kWarmSeedOffset);
    return std::make_unique<InProcessTarget>(std::move(cells),
                                             std::move(warmup), toy ? 5 : 100,
                                             2, run_dir);
  }
  if (workload == "serve_mix") {
    return std::make_unique<ServeTarget>(seed, toy, serve_bin, run_dir);
  }
  return nullptr;
}

}  // namespace kmb
