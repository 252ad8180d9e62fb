#!/usr/bin/env python3
"""End-to-end benchmark of the k-machine simulator.

Builds the simulator and the kmbench load generator from source, runs one
workload for --seconds, and prints the result object as the last line of
stdout.  perfbench/README.md (also printed by --help) documents the
workloads, the metrics and how to read the output.

  python3 perfbench/run.py --workload sweep_k64 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_k64", "serve_mix")
# Set-up is measured this many times per run (separate processes, each
# from launch to its first timed scenario) and reported as the median.
SETUP_SAMPLES = 5
# Every invocation of the load generator ends well inside the 180 s a run
# may take.
KMBENCH_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds kmbench and km_serve; returns the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources (CMakeLists.txt, src/) under {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "kmbench"
    # Build output goes to stderr: stdout ends with the result object.
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
         "--target", "kmbench", "km_serve"],
        stdout=sys.stderr, check=True)
    (target / "run").mkdir(exist_ok=True)
    return build_dir


def kmbench(build_dir, args):
    """Runs kmbench from the repository root; returns (exit code, stdout lines)."""
    run_dir = os.path.relpath(build_dir.parent / "run", ROOT)
    command = [str(build_dir / "kmbench"), *args,
               "--serve-bin", str(build_dir / "kmachine" / "tools" / "km_serve"),
               "--run-dir", run_dir]
    # The launch time, on the clock kmbench reads, starts set-up time.
    command += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=KMBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, []
    return done.returncode, done.stdout.splitlines()


def measure(build_dir, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (exit code, report lines, result or None)."""
    base = ["--workload", workload, "--seed", str(seed), *extra]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = kmbench(build_dir, [*base, "--setup-only"])
            if code != 0 or not lines:
                return code or 1, lines, None
            setups.append(json.loads(lines[-1])["setup_s"])
    code, lines = kmbench(build_dir, [*base, "--seconds", str(seconds),
                                      "--trace", "1" if trace else "0"])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return code or 1, lines, None
    if not trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        lines.insert(-1, "setup: samples_s=" +
                     ",".join(f"{s:.4f}" for s in setups))
    return code, lines[:-1], result


def self_test(build_dir):
    """Toy-size check of the benchmark itself: every workload runs, every
    metric BENCHMARK.json names appears with its unit, and the determinism
    gate trips on a tampered expectation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, _, result = measure(build_dir, workload, 1, 1, trace,
                                      ["--toy"])
            got = {} if result is None else {
                name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: run failed")
            elif got != expected[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics "
                                f"{sorted(got.items())} != "
                                f"{sorted(expected[trace].items())}")
        code, _, result = measure(build_dir, workload, 1, 1, False,
                                  ["--toy", "--tamper"])
        if code == 0 or not result or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: determinism gate did not trip")
        print(f"self-test: {workload} done", flush=True)
    for p in problems:
        print(f"self-test: FAIL {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    readme = HERE / "README.md"
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=readme.read_text() if readme.is_file() else None,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="toy-size check of the benchmark itself")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = build()
    if args.self_test:
        return self_test(build_dir)
    code, lines, result = measure(build_dir, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    if result is None:
        print(f"perfbench: {args.workload} produced no result", file=sys.stderr)
        return code or 1
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
