#!/usr/bin/env python3
"""Builds and runs the tpuperf benchmark.

    python3 perfbench/run.py --workload train|serve|autotune --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the library and the
benchmark into .bench_build/perfbench (CMake, Release, the repository's own
flags); later runs reuse that build. Build output goes to standard error.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

With --trace 1 the script first runs the same workload and seed untraced,
then traced, and adds the tracing overhead of every timing metric to the
per-layer metrics as trace.overhead_pct.<metric>: how much worse, in per
cent, the traced run measured it. The untraced run's report goes to
standard error.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(BUILD, "out")
# Every run, the build included, ends within this many seconds.
DEADLINE_S = 175

# End-to-end timing metrics and whether lower or higher is better.
TIMING = {
    "setup_s": "lower",
    "train_rank_steps_per_s": "higher",
    "train_mse_steps_per_s": "higher",
    "predict_single_us": "lower",
    "predict_batch32_per_s": "higher",
    "serve_closed_loop_us": "lower",
    "serve_saturated_qps": "higher",
    "tune_tile_candidates_per_s": "higher",
    "tune_fusion_configs_per_s": "higher",
}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(args, trace, deadline):
    """Runs the benchmark binary; returns (exit code, stdout lines, result)."""
    timeout = max(1.0, deadline - time.monotonic())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", OUT, "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(f"perfbench: no result within {timeout:.0f} s\n")
        sys.stderr.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        return 4, [], None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, lines, result


def overhead(untraced, traced):
    """Per cent by which tracing made each timing metric worse."""
    out = {}
    for name, better in TIMING.items():
        base = untraced["metrics"][name]["value"]
        seen = traced[name]["value"]
        worse = seen - base if better == "lower" else base - seen
        out["trace.overhead_pct." + name] = {"value": 100.0 * worse / base,
                                             "unit": "%"}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve", "autotune"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 3
    # Timed after the build: the first run of a checkout may build for long.
    deadline = time.monotonic() + DEADLINE_S

    untraced = None
    if args.trace:
        code, lines, untraced = run_once(args, 0, deadline)
        sys.stderr.write("\n".join(lines) + "\n")
        if code != 0 or untraced is None:
            sys.stderr.write("perfbench: the untraced run failed\n")
            return code or 5

    code, lines, result = run_once(args, args.trace, deadline)
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stderr.write("perfbench: the run printed no result\n")
        return code or 5
    if untraced is not None:
        result["metrics"].update(overhead(untraced, traced_e2e(lines)))
        result["correct"] = result["correct"] and untraced["correct"]
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return code


def traced_e2e(lines):
    """The end-to-end metrics a traced run prints as 'e2e <name> <value>'."""
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "e2e":
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
