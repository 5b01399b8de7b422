#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench_serve).

    python3 perfbench/run.py --workload hot|cold|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls the treelab library in from the checkout root) as
a Release build under .bench_build/; later calls reuse that build. The
benchmark's own output goes to stdout, ending in one JSON line with
`correct`, `attempted`, `failed` and `metrics`; build logs go to stderr.
The metric names are checked against BENCHMARK.json: --trace 0 must report
every `end_to_end` metric, --trace 1 every `per_layer` metric.

--smoke runs all three workloads at their seconds-long smoke size, traced
and untraced, through the same code and answer checks, and fails unless
every run is correct with no failed operation.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench_serve")
WORKLOADS = ("hot", "cold", "churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perfbench_serve; compiler temporaries
    stay inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", CMAKE_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", CMAKE_DIR, "--target", "perfbench_serve",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(workload, seed, seconds, trace, size):
    """Runs the binary; returns (stdout lines, parsed result) or raises."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size,
           "--dir", os.path.join(BUILD, "data-%s-%d" % (workload, os.getpid()))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("perfbench_serve exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result line: %s" % lines[-1])
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(result["metrics"]), sorted(want)))
    return lines, result


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, r = run_once(workload, 1, 2, trace, "smoke")
            good = r["correct"] and r["failed"] == 0 and r["attempted"] > 0
            ok = ok and good
            print("smoke %-5s trace %d: %s (attempted %d, failed %d)"
                  % (workload, trace, "ok" if good else "FAILED",
                     r["attempted"], r["failed"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if args.smoke:
            return smoke()
        lines, _ = run_once(args.workload, args.seed, args.seconds,
                            args.trace, "full")
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
