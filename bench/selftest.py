"""Determinism test of the benchmark.

Runs one round of a workload twice with the same seed and once with
another seed, each in a fresh process, and checks that

  * the same code and seed write byte-identical artifacts (the promise in
    the holoflow.cli docstring), and
  * a different seed gives different inputs (and so different artifacts).

Usage, from the root of a checkout::

    python3 bench/selftest.py [workload ...]     (default: verdicts)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_round(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run.py failed:\n" + proc.stderr[-2000:])
    path = os.path.join(ROOT, ".bench_out", "results",
                        "%s-seed%d-trace0.json" % (workload, seed))
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(workload: str, seed: int = 7):
    first = one_round(workload, seed)
    again = one_round(workload, seed)
    other = one_round(workload, seed + 1)
    problems = []
    if first["artifact_digest"] != again["artifact_digest"]:
        problems.append("same seed, different artifacts")
    if first["input_digest"] != again["input_digest"]:
        problems.append("same seed, different inputs")
    if first["input_digest"] == other["input_digest"]:
        problems.append("seeds %d and %d give the same inputs"
                        % (seed, seed + 1))
    if first["artifact_digest"] == other["artifact_digest"]:
        problems.append("seeds %d and %d give the same artifacts"
                        % (seed, seed + 1))
    status = "ok" if not problems else "FAILED: " + "; ".join(problems)
    print("%-13s digest %s  %s" % (workload, first["artifact_digest"][:16],
                                   status))
    return not problems


def main() -> int:
    workloads = sys.argv[1:] or ["verdicts"]
    results = [check(w) for w in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
