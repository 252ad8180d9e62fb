#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <sstream>

namespace km::lint {

namespace {

bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      lines.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

// Rewrites `content` with every comment and string/char literal blanked
// to spaces (line structure preserved), so rules match constructs in
// code, never mentions of them in comments or strings.  Handles //, /**/
// (multi-line), "..." with escapes, '...', and R"delim(...)delim".
std::string blank_non_code(std::string_view content) {
  std::string out(content);
  enum class State { kCode, kLine, kBlock, kString, kChar } state =
      State::kCode;
  std::string raw_close;  // ")delim\"" while inside a raw string
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(out[i - 1]))) {
          // Raw string: R"delim( ... )delim"
          std::size_t p = i + 2;
          std::string delim;
          while (p < out.size() && out[p] != '(' && out[p] != '\n') {
            delim.push_back(out[p]);
            ++p;
          }
          raw_close = ")" + delim + "\"";
          const std::size_t close =
              out.find(raw_close, p == out.size() ? p : p + 1);
          const std::size_t end = close == std::string::npos
                                      ? out.size()
                                      : close + raw_close.size();
          for (std::size_t j = i; j < end; ++j) {
            if (out[j] != '\n') out[j] = ' ';
          }
          i = end == 0 ? 0 : end - 1;
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char close = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == close || c == '\n') {
          if (c != '\n') out[i] = ' ';
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

// True when `line` (or the raw line above it) carries a
// "km-lint: allow(rule[, rule...])" escape naming `rule`.
bool allow_on_line(std::string_view raw, std::string_view rule) {
  const std::size_t tag = raw.find("km-lint:");
  if (tag == std::string_view::npos) return false;
  const std::size_t open = raw.find("allow(", tag);
  if (open == std::string_view::npos) return false;
  const std::size_t close = raw.find(')', open);
  if (close == std::string_view::npos) return false;
  std::string_view list = raw.substr(open + 6, close - open - 6);
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view item = trim(list.substr(0, comma));
    if (item == rule) return true;
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return false;
}

// Occurrences of `token` in `line` with identifier boundaries on both
// ends (a ':' before the token is fine: std::rand is still rand).
std::vector<std::size_t> bounded_occurrences(std::string_view line,
                                             std::string_view token) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

// Skips spaces/tabs from `pos`; returns line.size() at end.
std::size_t skip_ws(std::string_view line, std::size_t pos) {
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
    ++pos;
  }
  return pos;
}

// The name a range-for's range expression iterates: the expression
// itself when it is a plain identifier, or the last identifier of an
// `a.b` / `a->b` member chain; empty for anything else (calls,
// subscripts, casts).
std::string_view ranged_name(std::string_view range) {
  std::size_t pos = 0;
  for (;;) {
    const std::size_t begin = pos;
    while (pos < range.size() && ident_char(range[pos])) ++pos;
    if (pos == begin) return {};
    const std::string_view name = range.substr(begin, pos - begin);
    pos = skip_ws(range, pos);
    if (pos == range.size()) return name;
    if (range[pos] == '.') {
      ++pos;
    } else if (range.substr(pos, 2) == "->") {
      pos += 2;
    } else {
      return {};
    }
    pos = skip_ws(range, pos);
  }
}

constexpr std::array<RuleInfo, 7> kRules = {{
    {"random-device",
     "std::random_device is hardware entropy; runs can never reproduce. "
     "Derive randomness from util/rng.hpp (seeded from config.seed)."},
    {"c-rand",
     "C PRNGs (rand/srand/drand48/...) share hidden global state across "
     "threads; results depend on scheduling. Use util/rng.hpp."},
    {"wall-clock",
     "wall-clock read feeds the host clock into the computation; results "
     "stop being a function of (workload, dataset, k, B, seed). Timing "
     "metrics may carry '// km-lint: allow(wall-clock)' with a reason."},
    {"pointer-key-map",
     "pointer-keyed associative container orders/hashes by address, which "
     "ASLR re-rolls every run. Key by index or id instead."},
    {"unordered-iter",
     "iteration over std::unordered_* in an accounting/workload/results "
     "path; order is a stdlib implementation detail and poisons anything "
     "it feeds (send order, JSON fields, folds). Iterate a sorted view."},
    {"unseeded-rng",
     "<random> engine constructed without a seed ignores the run's seed "
     "cell (always default_seed). Seed it from the machine RNG."},
    {"trace-outside-module",
     "'km-lint: allow(wall-clock)' outside the sanctioned clock sites "
     "(src/sim/trace.* and the wall_ms reads in src/sim/engine.cpp). New "
     "timing code belongs in the tracing plane (sim/trace.hpp), not "
     "behind a fresh escape."},
}};

const RuleInfo& rule_info(std::string_view id) {
  for (const RuleInfo& r : kRules) {
    if (r.id == id) return r;
  }
  return kRules.front();  // unreachable for valid ids
}

// Paths where unordered-iter applies: the accounting / workload /
// results plane plus the algorithm kernels — src/core earned its way in
// once the kernels' unordered iterations were sorted, so golden
// snapshots no longer depend on stdlib hash-iteration order anywhere.
constexpr std::array<std::string_view, 6> kOrderSensitivePaths = {
    "src/core/", "src/sim/",  "src/runtime/",
    "src/graph/", "src/util/", "tools/"};

bool in_order_sensitive_path(std::string_view path) {
  return std::any_of(kOrderSensitivePaths.begin(), kOrderSensitivePaths.end(),
                     [&](std::string_view prefix) {
                       return path.substr(0, prefix.size()) == prefix;
                     });
}

constexpr std::array<std::string_view, 8> kCRandTokens = {
    "rand",   "srand",   "rand_r",  "drand48",
    "lrand48", "mrand48", "random", "srandom"};

constexpr std::array<std::string_view, 7> kWallClockNeedles = {
    "system_clock",  "high_resolution_clock", "::now()",
    "clock_gettime", "gettimeofday",          "time(nullptr)",
    "time(NULL)"};

constexpr std::array<std::string_view, 8> kKeyedContainers = {
    "std::unordered_multimap", "std::unordered_multiset",
    "std::unordered_map",      "std::unordered_set",
    "std::multimap",           "std::multiset",
    "std::map",                "std::set"};

// Longest-first so mt19937_64 is not reported as mt19937 + junk.
constexpr std::array<std::string_view, 8> kStdEngines = {
    "std::default_random_engine",
    "std::minstd_rand0",
    "std::minstd_rand",
    "std::mt19937_64",
    "std::mt19937",
    "std::ranlux24",
    "std::ranlux48",
    "std::knuth_b"};

struct Scanner {
  std::string_view path;
  std::vector<std::string> raw;   // original lines (allow-comment lookup)
  std::vector<std::string> code;  // literals/comments blanked
  std::vector<Finding> findings;

  void fire(std::size_t line_index, std::string_view rule) {
    if (allow_on_line(raw[line_index], rule)) return;
    if (line_index > 0 && allow_on_line(raw[line_index - 1], rule)) return;
    findings.push_back(Finding{std::string(path), line_index + 1,
                               std::string(rule),
                               std::string(rule_info(rule).summary)});
  }

  // --- simple substring/token rules -----------------------------------

  void scan_random_device(std::size_t i, std::string_view line) {
    if (!bounded_occurrences(line, "random_device").empty()) {
      fire(i, "random-device");
    }
  }

  // True when the token at `pos` is a use of the *C library* function:
  // bare (`rand(`), std-qualified (`std::rand(`), or globally qualified
  // (`::rand(`).  Class-qualified calls (Partition::random(), a project
  // method), member accesses (obj.random()), and declarations
  // (`static VertexPartition random(...)`) are not the libc symbol.
  static bool is_libc_call_context(std::string_view line, std::size_t pos) {
    std::size_t p = pos;
    while (p > 0 && (line[p - 1] == ' ' || line[p - 1] == '\t')) --p;
    if (p == 0) return true;
    const char prev = line[p - 1];
    if (ident_char(prev)) return false;  // `Type random(` declaration
    if (prev == '.' || prev == '>') return false;  // member access
    if (prev == ':') {
      if (p < 2 || line[p - 2] != ':') return false;  // lone ':' (label?)
      std::size_t q = p - 2;  // before "::"
      const std::size_t qual_end = q;
      while (q > 0 && ident_char(line[q - 1])) --q;
      const std::string_view qual = line.substr(q, qual_end - q);
      return qual.empty() || qual == "std";  // ::rand / std::rand
    }
    return true;
  }

  void scan_c_rand(std::size_t i, std::string_view line) {
    for (std::string_view token : kCRandTokens) {
      for (std::size_t pos : bounded_occurrences(line, token)) {
        const std::size_t after = skip_ws(line, pos + token.size());
        if (after < line.size() && line[after] == '(' &&
            is_libc_call_context(line, pos)) {
          fire(i, "c-rand");
          return;
        }
      }
    }
  }

  // The only places allowed to escape the wall-clock rule: the tracing
  // module (the clock's designated home, sim/trace.{hpp,cpp}) and the
  // wall_ms reads in sim/engine.cpp.  Everywhere else the escape comment
  // itself is the trace-outside-module finding — a clock read cannot be
  // waved through by annotation alone, it has to live in the plane built
  // for it.
  static bool wall_clock_sanctioned(std::string_view path) noexcept {
    constexpr std::string_view kTraceModule = "src/sim/trace.";
    return path.substr(0, kTraceModule.size()) == kTraceModule ||
           path == "src/sim/engine.cpp";
  }

  void fire_wall_clock(std::size_t i) {
    fire(i, "wall-clock");
    const bool escaped = allow_on_line(raw[i], "wall-clock") ||
                         (i > 0 && allow_on_line(raw[i - 1], "wall-clock"));
    if (escaped && !wall_clock_sanctioned(path)) {
      fire(i, "trace-outside-module");
    }
  }

  void scan_wall_clock(std::size_t i, std::string_view line) {
    for (std::string_view needle : kWallClockNeedles) {
      if (line.find(needle) != std::string_view::npos) {
        fire_wall_clock(i);
        return;
      }
    }
    // Bare clock(): token with boundaries, immediately called.
    for (std::size_t pos : bounded_occurrences(line, "clock")) {
      const std::size_t after = skip_ws(line, pos + 5);
      if (after < line.size() && line[after] == '(') {
        fire_wall_clock(i);
        return;
      }
    }
  }

  void scan_pointer_key(std::size_t i, std::string_view line) {
    for (std::string_view container : kKeyedContainers) {
      for (std::size_t pos : bounded_occurrences(line, container)) {
        std::size_t p = skip_ws(line, pos + container.size());
        if (p >= line.size() || line[p] != '<') continue;
        // First template argument at angle depth 1, same line.
        int depth = 1;
        const std::size_t arg_begin = ++p;
        std::size_t arg_end = std::string_view::npos;
        for (; p < line.size(); ++p) {
          const char c = line[p];
          if (c == '<') ++depth;
          if (c == '>' && --depth == 0) {
            arg_end = p;
            break;
          }
          if (c == ',' && depth == 1) {
            arg_end = p;
            break;
          }
        }
        if (arg_end == std::string_view::npos) continue;  // spans lines
        const std::string_view key =
            trim(line.substr(arg_begin, arg_end - arg_begin));
        if (key.find('*') != std::string_view::npos) {
          fire(i, "pointer-key-map");
          return;
        }
      }
    }
  }

  void scan_unseeded_rng(std::size_t i, std::string_view line) {
    for (std::string_view engine : kStdEngines) {
      for (std::size_t pos : bounded_occurrences(line, engine)) {
        std::size_t p = skip_ws(line, pos + engine.size());
        if (p >= line.size()) continue;
        if (line[p] == '(' || line[p] == '{') {
          // Temporary: flag only the empty-argument form.
          const char close = line[p] == '(' ? ')' : '}';
          const std::size_t q = skip_ws(line, p + 1);
          if (q < line.size() && line[q] == close) {
            fire(i, "unseeded-rng");
            return;
          }
          continue;
        }
        if (!ident_char(line[p])) continue;  // type context (<,>,&,...)
        while (p < line.size() && ident_char(line[p])) ++p;
        p = skip_ws(line, p);
        if (p < line.size() && line[p] == ';') {
          fire(i, "unseeded-rng");
          return;
        }
      }
    }
  }

  // --- unordered-iter: declarations then range-for uses ----------------

  std::vector<std::string> unordered_names() const {
    std::vector<std::string> names;
    // Flatten code to one string so declarations may span lines.
    std::string flat;
    for (const std::string& l : code) {
      flat += l;
      flat += '\n';
    }
    for (std::string_view container :
         {std::string_view("std::unordered_map"),
          std::string_view("std::unordered_set"),
          std::string_view("std::unordered_multimap"),
          std::string_view("std::unordered_multiset")}) {
      std::size_t pos = 0;
      while ((pos = flat.find(container, pos)) != std::string::npos) {
        std::size_t p = pos + container.size();
        pos = p;
        if (p >= flat.size() || flat[p] != '<') continue;
        int depth = 0;
        while (p < flat.size()) {
          if (flat[p] == '<') ++depth;
          if (flat[p] == '>' && --depth == 0) break;
          ++p;
        }
        if (p >= flat.size()) break;
        ++p;  // past '>'
        while (p < flat.size() &&
               (std::isspace(static_cast<unsigned char>(flat[p])) != 0 ||
                flat[p] == '&')) {
          ++p;
        }
        const std::size_t name_begin = p;
        while (p < flat.size() && ident_char(flat[p])) ++p;
        if (p > name_begin) {
          names.emplace_back(flat.substr(name_begin, p - name_begin));
        }
      }
    }
    return names;
  }

  void scan_unordered_iter() {
    if (!in_order_sensitive_path(path)) return;
    const std::vector<std::string> names = unordered_names();
    if (names.empty()) return;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const std::string_view line = code[i];
      for (std::size_t pos : bounded_occurrences(line, "for")) {
        const std::size_t open = skip_ws(line, pos + 3);
        if (open >= line.size() || line[open] != '(') continue;
        // The range expression: after the single ':' (ignoring '::')
        // inside the for parens, up to the matching ')'.
        int depth = 0;
        std::size_t colon = std::string_view::npos;
        std::size_t close = std::string_view::npos;
        for (std::size_t p = open; p < line.size(); ++p) {
          const char c = line[p];
          if (c == '(') ++depth;
          if (c == ')' && --depth == 0) {
            close = p;
            break;
          }
          if (c == ':' && depth == 1) {
            const bool dbl = (p + 1 < line.size() && line[p + 1] == ':') ||
                             (p > 0 && line[p - 1] == ':');
            if (!dbl) colon = p;
          }
        }
        if (colon == std::string_view::npos ||
            close == std::string_view::npos) {
          continue;
        }
        const std::string_view name =
            ranged_name(trim(line.substr(colon + 1, close - colon - 1)));
        if (!name.empty() &&
            std::find(names.begin(), names.end(), name) != names.end()) {
          fire(i, "unordered-iter");
        }
      }
    }
  }

  void run() {
    for (std::size_t i = 0; i < code.size(); ++i) {
      const std::string_view line = code[i];
      scan_random_device(i, line);
      scan_c_rand(i, line);
      scan_wall_clock(i, line);
      scan_pointer_key(i, line);
      scan_unseeded_rng(i, line);
    }
    scan_unordered_iter();
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
  }
};

}  // namespace

std::span<const RuleInfo> rules() noexcept { return kRules; }

std::vector<Finding> scan_source(std::string_view path,
                                 std::string_view content) {
  Scanner scanner;
  scanner.path = path;
  scanner.raw = split_lines(content);
  scanner.code = split_lines(blank_non_code(content));
  scanner.run();
  return std::move(scanner.findings);
}

std::optional<std::vector<Finding>> scan_file(const std::string& file,
                                              std::string_view path) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return scan_source(path, buffer.str());
}

}  // namespace km::lint
