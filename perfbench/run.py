#!/usr/bin/env python3
"""Builds and runs the RXL simulator host-performance benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload fat_tree_clean --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test          # correctness-gate self-test
  python3 perfbench/run.py --pin-digests        # rewrite perfbench/digests.txt
  python3 perfbench/run.py --record-baseline    # rewrite perfbench/baseline.json

The simulator library and the benchmark are built from source (Release) into
.bench_build/perfbench under the repository root; build output goes to
stderr. The last line of stdout is the JSON result. With --trace 1 the
benchmark also writes its own spans as Chrome-trace JSON next to the build,
and this script checks that the file loads and that every span is closed and
parented before it reports the run as correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rxl_perfbench")
DIGESTS = os.path.join(HERE, "digests.txt")
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ("fat_tree_clean", "star_noisy", "incast_poisson")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. Exits non-zero on failure.

    The compiler's temporary files go under the build tree too, so the build
    writes nothing outside the checkout.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "rxl_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as error:
            sys.exit(f"perfbench: cannot run {step[0]}: {error}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def git_identity():
    """(describe, dirty) of the checkout, or ("unknown", False) outside git."""
    try:
        describe = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--tags"],
            capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", False
    if describe.returncode != 0 or status.returncode != 0:
        return "unknown", False
    return describe.stdout.strip(), bool(status.stdout.strip())


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns its stdout lines. Exits on failure."""
    try:
        done = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark timed out")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: benchmark exited with {done.returncode}")
    return done.stdout.splitlines()


def span_problems(path):
    """Why the Chrome-trace span file is unusable; empty when it is sound."""
    try:
        with open(path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        return [f"span file does not load: {error}"]
    problems = []
    roots = 0
    for index, event in enumerate(events):
        args = event.get("args", {})
        if event.get("ph") != "X" or event.get("dur", -1) < 0:
            problems.append(f"span {index} ({event.get('name')}) is not closed")
        if args.get("span") != index:
            problems.append(f"span {index} is out of order")
        parent = args.get("parent")
        if parent == -1:
            roots += 1
        elif not isinstance(parent, int) or not 0 <= parent < index:
            problems.append(f"span {index} has no parent span")
    if roots != 1:
        problems.append(f"{roots} root spans, expected 1")
    return problems


def measure(workload, seed, seconds, trace, extra=()):
    """One benchmark run. Returns (stdout lines, result dict)."""
    describe, dirty = git_identity()
    spans = os.path.join(BUILD, f"spans-{workload}-{seed}.json")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--digests", DIGESTS, "--git-describe", describe]
    if dirty:
        args.append("--git-dirty")
    if trace:
        args += ["--spans-out", spans]
    lines = run_binary(args + list(extra))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: benchmark printed no result")
    if trace:
        problems = span_problems(spans)
        for problem in problems:
            lines.insert(-1, f"FAILED span check: {problem}")
        if problems:
            result["correct"] = False
        else:
            lines.insert(-1, f"span check: {spans} loads, every span closed "
                             "and parented")
    return lines, result


def record_baseline(seed, seconds):
    baseline = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            lines, result = measure(workload, seed, seconds, trace,
                                    ["--require-release"])
            if not result["correct"]:
                sys.exit(f"perfbench: {workload} trace {trace} is not correct")
            manifest = next(line for line in lines if line.startswith("manifest "))
            baseline["manifest"] = json.loads(manifest[len("manifest "):])
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
        baseline["workloads"][workload] = entry
    with open(BASELINE, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {BASELINE}")


def pin_digests():
    """Pins a digest for every trial seed of every workload."""
    lines = ["# <workload> <trial seed> <fnv1a64 of collect_metrics(report).to_csv()>"]
    for workload in WORKLOADS:
        lines += run_binary(["--workload", workload, "--pin-digests"],
                            timeout=None)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {DIGESTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin-digests", action="store_true")
    parser.add_argument("--record-baseline", action="store_true")
    options = parser.parse_args()
    if options.seed < 0 or options.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if options.self_test:
        sys.stdout.write("\n".join(run_binary(["--self-test"])) + "\n")
    elif options.pin_digests:
        pin_digests()
    elif options.record_baseline:
        record_baseline(options.seed, options.seconds)
    elif options.workload is None:
        parser.error("--workload is required")
    else:
        lines, result = measure(options.workload, options.seed,
                                options.seconds, options.trace)
        print("\n".join(lines[:-1]))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
