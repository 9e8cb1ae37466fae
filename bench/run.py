"""holoflow benchmark: seeded workloads, oracle-checked, one process.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload orbits --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The workload's tasks (CLI argv for ``holoflow.cli.main`` or library calls)
run in this process one after another, a closed loop with one client, with
BLAS/OpenMP threads pinned to 1. The whole task list is one round; rounds
repeat until ``--seconds`` have passed, and every round must write
byte-identical artifacts. Each task has a wall budget (SIGALRM); a task that
exceeds it counts as failed.

Times are wall times scaled to a fixed host speed: a short pure-Python
reference computation runs before every task, and each time is multiplied
by REF_NOMINAL_S / (median of the recent reference times), so that the
speed drift of a shared host cancels. Raw times are kept in the result file.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every task
untraced and then traced and reports the per-layer metrics of tracing.py
plus the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full result file,
with machine context and artifact digests, goes to
``.bench_out/results/``; artifacts go to ``.bench_out/<workload>/``.

``correct`` is true when no task failed except the registered known defects
(workloads.DEFECTS, scored as failed) and every round, traced or not, wrote
the same artifacts.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in probes.
THREAD_PIN = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from time import perf_counter  # noqa: E402


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
WORKLOADS = ("orbits", "coefficients", "verdicts")

# Wall budget per task, by workload: far above the slowest task that passes
# (in orbits a half-plane portrait, under 0.7 s on a 2-CPU Xeon; elsewhere
# the known-wrong evolve at N = 256, about 2 s) and far below the known
# hangs (90 s and more), whose budget each orbits run spends once.
BUDGET_S = {"orbits": 3.0, "coefficients": 6.0, "verdicts": 6.0}
SETUP_PROBES = 7

# Shared hosts drift in speed by tens of percent over seconds to minutes.
# A fixed pure-Python reference computation (complex scalar steps and
# number formatting, as in the integrator and the CSV/SVG writers) runs
# before every task, and every time is scaled by REF_NOMINAL_S / (median of the last
# REF_WINDOW reference times): times are reported at a fixed host speed.
# Raw wall times stay in the result file.
REF_NOMINAL_S = 0.5e-3
REF_WINDOW = 15

_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
          "import holoflow, holoflow.cli, holoflow.portrait; "
          "sys.stdout.write(repr(time.time()))")

END_TO_END = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("passed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

# Oracle errors repeat exactly for one seed but move with the inputs of
# each seed, so they are reported (and listed among the per-layer metrics
# of a traced run) without a regression bound.
ORACLE_METRICS = [
    ("oracle_err_p50", "rel"),
    ("oracle_err_p90", "rel"),
]


def reference_probe() -> float:
    """Seconds taken by the fixed reference computation."""
    t0 = perf_counter()
    u, h = 0.3 + 0.2j, 0.01
    for _ in range(800):
        k1 = 0.5j - u * u
        k2 = 0.5j - (u + h * k1) ** 2
        u += 0.5 * h * (k1 + k2)
    ",".join("%.2f,%.2f" % (k * u.real, k * u.imag) for k in range(300))
    return perf_counter() - t0


class HostSpeed:
    """Slowdown of the host against REF_NOMINAL_S, from recent probes."""

    def __init__(self):
        self.recent = collections.deque(maxlen=REF_WINDOW)
        for _ in range(REF_WINDOW):
            self.probe()

    def probe(self):
        self.recent.append(reference_probe())

    def slowdown(self) -> float:
        return statistics.median(self.recent) / REF_NOMINAL_S


class TaskTimeout(BaseException):
    """Raised by SIGALRM when a task exceeds its wall budget. It derives
    from BaseException so no handler in the program swallows it."""


def _alarm(signum, frame):
    raise TaskTimeout()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (inf entries sort last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _serialize(value) -> bytes:
    """Deterministic bytes of a library result."""
    if hasattr(value, "points") and hasattr(value, "times"):
        return (value.times.tobytes() + value.points.tobytes()
                + repr(value.status).encode())
    if hasattr(value, "entries"):
        return value.entries.tobytes()
    if hasattr(value, "coeffs"):
        inner = value.coeffs
        return repr(getattr(value, "t", "")).encode() + getattr(
            inner, "coeffs", inner).tobytes()
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(_serialize(v) for v in value) + b")"
    return repr(value).encode()


class Runner:
    def __init__(self, workload: str, seed: int):
        import jsonschema
        import workloads as wl

        self.wl = wl
        self.cli = importlib.import_module("holoflow.cli")
        with open(os.path.join(SRC, "holoflow", "schemas", "report-v1.json"),
                  encoding="utf-8") as handle:
            self.schema = jsonschema.Draft7Validator(json.load(handle))
        self.budget_s = BUDGET_S[workload]
        self.out = os.path.join(OUT, workload)
        os.makedirs(self.out, exist_ok=True)
        for name in os.listdir(self.out):
            os.remove(os.path.join(self.out, name))
        self.tasks = wl.build(workload, seed, self.out,
                              importlib.import_module("holoflow"))

    def execute(self, task):
        """Run one task under its wall budget; returns (outcome, seconds)."""
        for path in task.outputs:
            if os.path.exists(path):
                os.remove(path)
        if task.call is not None:
            module, name, args = task.call
            fn = getattr(importlib.import_module("holoflow." + module), name)
        out, err = io.StringIO(), io.StringIO()
        outcome = self.wl.Outcome("ok")
        signal.setitimer(signal.ITIMER_REAL, self.budget_s)
        t0 = perf_counter()
        try:
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    if task.argv is not None:
                        outcome.code = self.cli.main(list(task.argv))
                    else:
                        outcome.value = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = perf_counter() - t0
        except TaskTimeout:
            outcome.status = "timeout"
        except Exception as exc:  # a would-be traceback: the task crashed
            outcome.status = "crash"
            outcome.error = "%s: %s" % (type(exc).__name__, exc)
        outcome.stdout = out.getvalue()
        for path in task.outputs:
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    outcome.files[path] = handle.read()
        return outcome, elapsed

    def judge(self, task, outcome):
        """(passed, reason, oracle error or None) against the oracle."""
        if outcome.status == "timeout":
            return False, "exceeded the %g s budget" % self.budget_s, None
        if outcome.status == "crash":
            return False, "crashed: " + outcome.error, None
        try:
            ok, reason, err = task.check(outcome)
        except Exception as exc:
            return False, "unexpected output (%s: %s)" % (
                type(exc).__name__, exc), None
        if ok and task.report is not None:
            doc = json.loads(outcome.files[task.report])
            problems = sorted(e.message for e in self.schema.iter_errors(doc))
            if problems:
                return False, "schema: " + problems[0], err
        return ok, reason, err

    @staticmethod
    def digest_update(h, index, task, outcome):
        h.update(("%d %s %s %r\n" % (index, task.kind, outcome.status,
                                     outcome.code)).encode())
        h.update(outcome.stdout.encode())
        h.update(outcome.error.encode())
        for path in task.outputs:
            h.update(path.encode())
            h.update(outcome.files.get(path, b"<missing>"))
        if task.call is not None and outcome.status == "ok":
            h.update(_serialize(outcome.value))

    def record(self, index, task, outcome, elapsed, slowdown):
        ok, reason, err = self.judge(task, outcome)
        if task.numeric:
            err = 1.0 if not ok or err is None else float(err)
        return {"index": index, "kind": task.kind, "passed": ok,
                "reason": reason, "seconds": elapsed / slowdown,
                "raw_seconds": elapsed, "numeric": task.numeric,
                "err": err, "defect": task.defect,
                "timeout": outcome.status == "timeout"}


def setup_probe(speed: HostSpeed) -> tuple[float, float]:
    """(scaled, raw) time from spawning a fresh interpreter until holoflow
    (with its CLI and portrait modules) is imported and a first task could
    run. Probes are spread over the run (one before each round) and the
    median of the scaled times is setup_s."""
    for _ in range(3):
        speed.probe()
    slowdown = speed.slowdown()
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT,
                          env=dict(os.environ, **THREAD_PIN),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: " + proc.stderr[-500:])
    raw = float(proc.stdout) - t0
    return raw / slowdown, raw


def context(workload: str, seed: int) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pin": THREAD_PIN,
        "src_lines": src_lines,
        "task_budget_s": BUDGET_S[workload],
    }


def summarize(recs) -> dict:
    """One task over all rounds: passed if it passed in every round, with
    the median of its round latencies."""
    failures = [r for r in recs if not r["passed"]]
    row = dict(failures[0] if failures else recs[0])
    row["passed"] = not failures
    for key in ("seconds", "raw_seconds"):
        row[key] = (statistics.median(r[key] for r in recs)
                    if not failures else math.inf)
    return row


def oracle_errors(records) -> dict:
    """Median and p90 of the oracle error over tasks with a numeric oracle
    (a failed task counts as 1)."""
    errs = [r["err"] for r in records if r["numeric"]]
    return {"oracle_err_p50": percentile(errs, 0.5) if errs else 0.0,
            "oracle_err_p90": percentile(errs, 0.9) if errs else 0.0}


def end_to_end(records, setup_s) -> dict:
    """The gated metrics over per-task rows (see summarize)."""
    latencies = [r["seconds"] for r in records]
    passed = [r for r in records if r["passed"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup_s,
        "tasks_per_s": (len(passed) / sum(r["seconds"] for r in passed)
                        if passed else 0.0),
        "task_p50_ms": 1e3 * percentile(latencies, 0.5),
        "task_p90_ms": 1e3 * percentile(latencies, 0.9),
        "passed_frac": len(passed) / len(records),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "holoflow", "__init__.py")):
        sys.stderr.write("no holoflow sources under %s\n" % SRC)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import holoflow

    if not os.path.abspath(holoflow.__file__).startswith(SRC + os.sep):
        sys.stderr.write("holoflow imported from %s, not from %s\n"
                         % (holoflow.__file__, SRC))
        return 2
    import tracing

    setup_samples = []
    speed = HostSpeed()
    runner = Runner(args.workload, args.seed)
    tasks = runner.tasks
    wl = runner.wl
    signal.signal(signal.SIGALRM, _alarm)

    runs = [[] for _ in tasks]   # the records of every round, per task
    stuck = {}                   # index -> first-round failure (outcome, record)
    digests = []
    tracer = tracing.Tracer() if args.trace else None
    untraced_s = traced_s = 0.0
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < args.seconds:
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(speed))
        h = hashlib.sha256()
        h_traced = hashlib.sha256()
        for index, task in enumerate(tasks):
            if index in stuck:
                # A task that failed in the first round is not run again:
                # it counts as failed (latency +inf) in every round anyway,
                # and a hang would only burn its budget once more.
                outcome, rec = stuck[index]
                runner.digest_update(h, index, task, outcome)
                runner.digest_update(h_traced, index, task, outcome)
                runs[index].append(rec)
                continue
            speed.probe()
            slowdown = speed.slowdown()
            outcome, elapsed = runner.execute(task)
            runner.digest_update(h, index, task, outcome)
            rec = runner.record(index, task, outcome, elapsed, slowdown)
            if tracer is not None:
                tracer.install()
                try:
                    t_out, t_elapsed = runner.execute(task)
                finally:
                    tracer.remove()
                runner.digest_update(h_traced, index, task, t_out)
                t_rec = runner.record(index, task, t_out, t_elapsed,
                                      slowdown)
                # Layer totals cover the tasks that pass, which run in every
                # round and whose counts repeat exactly.
                keep = rec["passed"] and t_rec["passed"]
                tracer.end_task(keep)
                if keep:
                    untraced_s += elapsed
                    traced_s += t_elapsed
                rec = t_rec if rec["passed"] else rec
            if not rec["passed"] and rounds == 0:
                stuck[index] = (outcome, rec)
            runs[index].append(rec)
        digests.append(h.hexdigest())
        if tracer is not None:
            digests.append(h_traced.hexdigest())
        rounds += 1

    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(speed))
    setup_s = statistics.median(s for s, _ in setup_samples)
    per_task = [summarize(recs) for recs in runs]
    attempted = sum(len(recs) for recs in runs)
    failed = sum(1 for recs in runs for r in recs if not r["passed"])
    unexpected = [r for r in per_task if not r["passed"] and not r["defect"]]
    correct = not unexpected and len(set(digests)) == 1
    if tracer is None:
        metrics = end_to_end(per_task, setup_s)
    else:
        layer = tracer.layer_metrics(rounds)
        layer["trace.task_s"] = traced_s / rounds
        layer["trace.overhead_frac"] = (traced_s / untraced_s - 1.0
                                        if untraced_s else 0.0)
        layer.update(oracle_errors(per_task))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}

    inputs = hashlib.sha256("\n".join(
        wl.describe(t) for t in tasks).encode()).hexdigest()
    kinds = {}
    for r in per_task:
        k = kinds.setdefault(r["kind"], {"tasks": 0, "failed": 0,
                                         "seconds": []})
        k["tasks"] += 1
        k["failed"] += 0 if r["passed"] else 1
        if r["passed"]:
            k["seconds"].append(r["seconds"])
    for k in kinds.values():
        secs = k.pop("seconds") or [math.inf]
        k["median_ms"] = 1e3 * statistics.median(secs)
        k["total_s"] = sum(secs)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": rounds,
        "tasks_per_round": len(tasks),
        "context": context(args.workload, args.seed),
        "setup_samples_s": [{"scaled": s, "raw": raw}
                            for s, raw in setup_samples],
        "reference_probe_nominal_s": REF_NOMINAL_S,
        "metrics": metrics,
        "oracle_errors": oracle_errors(per_task),
        "input_digest": inputs,
        "artifact_digest": digests[0],
        "round_digests": digests,
        "kinds": kinds,
        "failures": [
            {"index": r["index"], "kind": r["kind"], "reason": r["reason"],
             "defect": r["defect"]}
            for r in per_task if not r["passed"]],
        "unexpected_failures": len(unexpected),
        "task_ms": [round(1e3 * t["seconds"], 3) for t in per_task],
        "task_raw_ms": [round(1e3 * t["raw_seconds"], 3) for t in per_task],
        "known_defects": wl.DEFECTS,
    }
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.csv")

    print("%s seed=%d rounds=%d tasks/round=%d correct=%s digest=%s"
          % (args.workload, args.seed, rounds, len(tasks), correct,
             digests[0][:16]))
    for item in result["failures"]:
        print("  failed #%d %s: %s%s" % (
            item["index"], item["kind"], item["reason"],
            " [known defect %s]" % item["defect"] if item["defect"] else ""))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if tracer is None:
        for name, unit in ORACLE_METRICS:
            print("  %-34s %14.6g %s (no bound)"
                  % (name, result["oracle_errors"][name], unit))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        return run_workload(args)
    worst = 0
    for workload in WORKLOADS:
        worst = max(worst, subprocess.call(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             repr(args.seconds), "--trace", str(args.trace)]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
