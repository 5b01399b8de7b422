#!/usr/bin/env python3
"""Overhead gates on the repository benchmark.

    python3 tools/overhead_gate.py OBS_ON_BINARY OBS_OFF_BINARY

OBS_ON_BINARY is perfbench/'s program as perfbench/run.py builds it;
OBS_OFF_BINARY is perfbench/ configured with -DTREELAB_OBS=OFF. The gate
makes PAIRS triples of RUN_SECONDS hot runs, one per side: obs on, obs
off, and obs on with an unrelated failpoint armed, which sends every
failpoint check on the socket path (net.read, net.write,
net.frame.corrupt) to the registry lookup. A triple shares one seed and
its order rotates, so no side always runs first on a drifting host.

It fails on a run that is not correct or has failed operations, an
obs-off binary that does not report "obs": false (unchecked when both
paths name one binary, an A/A run), a malformed-TREELAB_FAILPOINTS
warning from an armed run, a best per-triple on/off qps ratio below
OBS_BOUND, or best armed over best obs-on qps below FAILPOINT_BOUND.

Why these statistics: single 5 s on/off pairs on a 4-vCPU VM read ratios
of 0.77-1.22 with no real cost between them, so a bound on the median
ratio or on best-vs-best of a few pairs fails about one run in eight,
while the best per-pair ratio fails only when every pair loses. These
are coarse guards against across-the-board regressions, not measurements.
"""
import json
import os
import subprocess
import sys
import tempfile

PAIRS = 7
RUN_SECONDS = 5
OBS_BOUND = 0.98
FAILPOINT_BOUND = 0.7
ARMED_SPEC = "bench.unrelated.site=error"
SPEC_WARNING = "malformed TREELAB_FAILPOINTS"
RUN_TIMEOUT_S = 180


def run(binary, seed, armed, workdir):
    """One hot run; returns (result line, provenance, stderr)."""
    env = dict(os.environ, TREELAB_FAILPOINTS=ARMED_SPEC if armed else "")
    proc = subprocess.run(
        [binary, "--workload", "hot", "--seed", str(seed), "--seconds",
         str(RUN_SECONDS), "--trace", "0", "--dir", workdir],
        capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    prov = [json.loads(l.split(" ", 1)[1]) for l in lines
            if l.startswith("provenance ")]
    if proc.returncode != 0 or len(prov) != 1:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError("%s exited with %d" % (binary, proc.returncode))
    return json.loads(lines[-1]), prov[0], proc.stderr


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    on, off = sys.argv[1:]
    a_a = os.path.samefile(on, off)
    sides = [("on", on, False), ("off", off, False), ("armed", on, True)]
    qps = {name: [] for name, _, _ in sides}
    problems = []
    with tempfile.TemporaryDirectory() as workdir:
        for t in range(PAIRS):
            for name, binary, armed in sides[t % 3:] + sides[:t % 3]:
                result, prov, err = run(binary, t + 1, armed, workdir)
                qps[name].append(result["metrics"]["qps"]["value"])
                print("triple %d seed %d %-5s qps %9.0f (kernels %s, obs %s)"
                      % (t + 1, t + 1, name, qps[name][-1], prov["kernels"],
                         prov["obs"]), flush=True)
                if not result["correct"] or result["failed"] > 0:
                    problems.append("%s run %d: correct %s, failed %d" % (
                        name, t + 1, result["correct"], result["failed"]))
                if not prov["kernels"]:
                    problems.append("provenance records no kernel level")
                if name == "off" and not a_a and prov["obs"] is not False:
                    problems.append('%s does not report "obs": false' % off)
                if armed and SPEC_WARNING in err:
                    problems.append("armed run: " + err.strip())
    ratios = [a / b for a, b in zip(qps["on"], qps["off"])]
    best_fp = max(qps["armed"]) / max(qps["on"])
    print("obs on/off per triple: %s; best %.3f (bound >= %.2f)%s"
          % (" ".join("%.3f" % r for r in ratios), max(ratios), OBS_BOUND,
             " [A/A run]" if a_a else ""))
    print("failpoint armed/disarmed, best over best: %.3f (bound >= %.2f)"
          % (best_fp, FAILPOINT_BOUND))
    if max(ratios) < OBS_BOUND:
        problems.append("metrics overhead too high")
    if best_fp < FAILPOINT_BOUND:
        problems.append("armed failpoint cost too high")
    for p in problems:
        print("FAIL: " + p)
    print("overhead gate: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        sys.stderr.write("overhead_gate: %s\n" % e)
        sys.exit(1)
