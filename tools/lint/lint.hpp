// km_lint: repo-specific determinism lint for the k-machine simulator.
//
// The engine's reproducibility contract — bit-for-bit identical
// km.run_result/v1 documents for a fixed (workload, dataset, k, B, seed)
// cell, regardless of thread scheduling, host, or wall-clock — survives
// only as long as no code path consults an ambient source of
// nondeterminism.  Generic tools cannot check that contract; km_lint
// encodes it as source rules no off-the-shelf linter knows:
//
//   random-device   std::random_device is hardware entropy: two runs can
//                   never reproduce.  All randomness must flow from
//                   util/rng.hpp, seeded by (config.seed, machine id).
//   c-rand          rand()/srand()/drand48()/random() use hidden global
//                   state shared across threads: results depend on
//                   scheduling even for a fixed seed.
//   wall-clock      ::now()/time()/gettimeofday() reads feed the clock
//                   into the computation.  Timing *metrics* are fine —
//                   annotate those sites with the allow escape below.
//   pointer-key-map std::map/set (and unordered) keyed on pointers order
//                   (or hash) by address; the allocator decides
//                   iteration order, different every run under ASLR.
//   unordered-iter  range-for over a std::unordered_{map,set} inside the
//                   accounting/workload/results paths (src/core,
//                   src/sim, src/runtime, src/graph, src/util, tools):
//                   iteration order is a stdlib implementation detail,
//                   so anything it feeds — send order, JSON fields,
//                   metric sums — can differ across standard libraries.
//                   The algorithm kernels in src/core keep no hash
//                   containers at all (dense indexes and sorted vectors
//                   instead), which is what lets golden snapshots be
//                   platform-portable.
//   unseeded-rng    a <random> engine constructed without a seed
//                   (std::mt19937 g;) uses default_seed — deterministic
//                   but seed-blind: it silently ignores the run's seed
//                   cell.  Construct from the machine RNG instead.
//   trace-outside-module
//                   the allow(wall-clock) escape is honoured only in the
//                   sanctioned clock sites: the tracing plane
//                   (src/sim/trace.{hpp,cpp}, the clock's designated
//                   home) and the wall_ms reads in src/sim/engine.cpp.
//                   Anywhere else the escape comment itself fires this
//                   rule, so a clock read cannot be waved through by
//                   annotation alone — timing instrumentation must go
//                   through sim/trace.hpp.
//
// Matching runs on code only: string/char literals and comments are
// blanked first, so naming a banned construct in a comment (or in this
// file's own rule table) is not a finding.
//
// Escape hatch: a finding is suppressed when the offending line, or the
// line directly above it, carries
//
//     // km-lint: allow(<rule>[, <rule>...])
//
// naming the fired rule.  The comment is the in-tree justification; use
// it sparingly and say why (see the wall_ms sites in sim/engine.cpp).
//
// The library is dependency-free (std only) so the scanner itself can
// never drag nondeterminism into the build; tools/lint/km_lint_main.cpp
// wraps it in a CLI that the tier-1 CTest suite runs over src/ and
// tools/ on every build.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace km::lint {

struct Finding {
  std::string path;     ///< repo-relative path, '/'-separated
  std::size_t line = 0; ///< 1-based
  std::string rule;     ///< rule id, e.g. "wall-clock"
  std::string message;  ///< one-line rationale
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The rule catalogue, in reporting order.
std::span<const RuleInfo> rules() noexcept;

/// Scans `content` as the file at repo-relative `path` (the path decides
/// which path-scoped rules apply).  Findings appear in line order.
std::vector<Finding> scan_source(std::string_view path,
                                 std::string_view content);

/// Reads `file` from disk and scans it under the logical name `path`.
/// Returns nullopt when the file cannot be read.
std::optional<std::vector<Finding>> scan_file(const std::string& file,
                                              std::string_view path);

}  // namespace km::lint
