"""Per-layer spans and counts, recorded from outside the package.

Tracing wraps functions of the holoflow modules by replacing every module
attribute that refers to them, so calls between modules (for example
``semigroup._flow_series_path`` or ``counterexample.integrate``) pass
through the wrappers as well. Expression evaluation is wrapped on each node
class; only the outermost ``eval`` of a symbol is timed and counted, nested
node evaluations pass straight through.

Each wrapped call becomes a span (id, parent id, name, start, end). A
layer's self time is its span time minus the time of its child spans and of
the symbol evaluations made directly inside it. Nothing inside ``src/`` is
changed: :meth:`Tracer.install` patches attributes and :meth:`Tracer.remove`
puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

# Module functions that are wrapped. Private names are those one module
# calls in another.
_FUNCTIONS = {
    "geometry": ["parse_domain"],
    "grammar": ["parse_symbol"],
    "series": ["taylor", "series_compose", "_compose_arrays"],
    "semiflow": ["integrate", "backward_integrate", "escape_time",
                 "flow_point", "semigroup_residual", "flow_series",
                 "_flow_series_path", "trajectory_to_csv"],
    "semigroup": ["apply", "operator_matrix", "generator_action",
                  "generator_residual", "maximality_residual",
                  "transport_pde_residual", "strong_continuity_report",
                  "matrix_to_csv", "matrix_summary"],
    "classify": ["bp_classify", "bp_build", "herglotz_check"],
    "counterexample": ["run_counterexample", "build_counterexample"],
    "transfer": ["conjugation_residual", "transfer_symbol", "cayley",
                 "mobius_pair"],
    "portrait": ["render_portrait"],
    "jsonio": ["dump_line", "dumps"],
    "cli": ["main"],
}

_METHODS = {
    "spaces": {"CoefSpace": ["norm", "condition_e", "eval_norm"]},
}

# Span name -> layer group. Time and calls of a group count only its
# outermost spans, so series_compose calling _compose_arrays is one compose.
_GROUPS = {
    "semiflow.integrate": "semiflow.integrate",
    "semiflow.flow_series": "semiflow.flow_series",
    "semiflow._flow_series_path": "semiflow.flow_series",
    "semiflow.escape_time": "semiflow.escape_time",
    "series.taylor": "series.taylor",
    "series.series_compose": "series.compose",
    "series._compose_arrays": "series.compose",
    "semigroup.apply": "semigroup.apply",
    "semigroup.operator_matrix": "semigroup.operator_matrix",
    "semigroup.generator_residual": "semigroup.residuals",
    "semigroup.maximality_residual": "semigroup.residuals",
    "semigroup.transport_pde_residual": "semigroup.residuals",
    "semigroup.strong_continuity_report": "semigroup.residuals",
    "classify.bp_classify": "classify.bp_classify",
    "counterexample.run_counterexample": "counterexample.run",
    "portrait.render_portrait": "portrait.render",
    "transfer.conjugation_residual": "transfer.conjugation_residual",
    "spaces.CoefSpace.norm": "spaces.norm",
    "spaces.CoefSpace.condition_e": "spaces.condition_e",
    "grammar.parse_symbol": "grammar.parse_symbol",
    "cli.main": "cli.main",
    "jsonio.dump_line": "jsonio.dump_line",
}

# The per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("expr.eval.calls", "count"),
    ("expr.eval.s", "s"),
    ("semiflow.integrate.calls", "count"),
    ("semiflow.integrate.s", "s"),
    ("semiflow.integrate.points", "count"),
    ("semiflow.integrate.escaped", "count"),
    ("semiflow.integrate.errors", "count"),
    ("semiflow.rhs_per_integrate", "count"),
    ("semiflow.flow_series.calls", "count"),
    ("semiflow.flow_series.s", "s"),
    ("semiflow.flow_series.probe_s", "s"),
    ("series.taylor.calls", "count"),
    ("series.taylor.s", "s"),
    ("series.compose.calls", "count"),
    ("series.compose.s", "s"),
    ("semigroup.apply.s", "s"),
    ("semigroup.operator_matrix.s", "s"),
    ("semigroup.residuals.s", "s"),
    ("classify.bp_classify.s", "s"),
    ("classify.escape_hunt.s", "s"),
    ("classify.verdict.Global", "count"),
    ("classify.verdict.NotGlobal", "count"),
    ("classify.verdict.Inconclusive", "count"),
    ("counterexample.run.s", "s"),
    ("counterexample.integrate.calls", "count"),
    ("portrait.render.s", "s"),
    ("portrait.self_s", "s"),
    ("portrait.seeds", "count"),
    ("portrait.seeds_failed", "count"),
    ("transfer.conjugation_residual.s", "s"),
    ("spaces.norm.calls", "count"),
    ("spaces.condition_e.s", "s"),
    ("grammar.parse_symbol.s", "s"),
    ("cli.main.self_s", "s"),
    ("jsonio.dump_line.s", "s"),
    ("trace.task_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("oracle_err_p50", "rel"),
    ("oracle_err_p90", "rel"),
]


class _Frame:
    __slots__ = ("span_id", "parent", "name", "group", "outer", "t0",
                 "child_s", "evals0")

    def __init__(self, span_id, parent, name, group, outer, t0, evals0):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.group = group
        self.outer = outer
        self.t0 = t0
        self.child_s = 0.0
        self.evals0 = evals0


class Tracer:
    """Collects spans and layer totals for the tasks it is told to keep."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []
        self._next_id = 0
        self.begin_task()

    # -- per-task bookkeeping -------------------------------------------------

    def begin_task(self):
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._task_spans: list[tuple] = []
        self._task: dict[str, float] = defaultdict(float)
        self._in_eval = False
        self._evals = 0

    def end_task(self, keep: bool):
        """Fold the task's spans and counts into the totals, or drop them."""
        self._task["expr.eval.calls"] += self._evals
        if keep:
            self.spans.extend(self._task_spans)
            for key, value in self._task.items():
                self.totals[key] += value
        self.begin_task()

    # -- span recording -------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        group = _GROUPS.get(name)
        outer = group is not None and self._depth[group] == 0
        if group is not None:
            self._depth[group] += 1
        parent = self._stack[-1].span_id if self._stack else -1
        self._next_id += 1
        frame = _Frame(self._next_id, parent, name, group, outer,
                       perf_counter(), self._evals)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, result, error: bool):
        t1 = perf_counter()
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        dt = t1 - frame.t0
        if self._stack:
            self._stack[-1].child_s += dt
        self._task_spans.append((frame.span_id, frame.parent, frame.name,
                                 frame.t0, t1))
        group = frame.group
        if group is None:
            return
        self._depth[group] -= 1
        if not frame.outer:
            return
        acc = self._task
        acc[group + ".s"] += dt
        acc[group + ".calls"] += 1
        if group == "semiflow.integrate":
            acc["semiflow.integrate.rhs"] += self._evals - frame.evals0
            if error:
                acc["semiflow.integrate.errors"] += 1
            else:
                acc["semiflow.integrate.points"] += len(result.points)
                acc["semiflow.integrate.escaped"] += int(result.escaped)
            if self._depth["counterexample.run"]:
                acc["counterexample.integrate.calls"] += 1
        elif group == "semiflow.escape_time":
            if self._depth["semiflow.flow_series"]:
                acc["semiflow.flow_series.probe_s"] += dt
            if self._depth["classify.bp_classify"]:
                acc["classify.escape_hunt.s"] += dt
        elif group == "classify.bp_classify" and not error:
            acc["classify.verdict." + result.status] += 1
        elif group == "portrait.render":
            acc["portrait.self_s"] += dt - frame.child_s
            if not error:
                counts = result[1]
                acc["portrait.seeds"] += counts["seeds"]
                acc["portrait.seeds_failed"] += counts["failed"]
        elif group == "cli.main":
            acc["cli.main.self_s"] += dt - frame.child_s

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, None, True)
                raise
            tracer._close(frame, result, False)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _eval_wrapper(self, fn):
        tracer = self

        def wrapper(node, z):
            if tracer._in_eval:
                return fn(node, z)
            tracer._in_eval = True
            t0 = perf_counter()
            try:
                return fn(node, z)
            finally:
                dt = perf_counter() - t0
                tracer._in_eval = False
                tracer._evals += 1
                tracer._task["expr.eval.s"] += dt
                if tracer._stack:
                    tracer._stack[-1].child_s += dt

        return functools.update_wrapper(wrapper, fn)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the traced functions wherever holoflow modules refer to them."""
        package = importlib.import_module("holoflow")
        modules = [package] + [
            importlib.import_module("holoflow." + name)
            for name in ("expr", "geometry", "grammar", "series", "semiflow",
                         "semigroup", "spaces", "classify", "counterexample",
                         "transfer", "portrait", "jsonio", "cli")
        ]
        replace = {}
        for short, names in _FUNCTIONS.items():
            module = importlib.import_module("holoflow." + short)
            for name in names:
                fn = getattr(module, name)
                replace[id(fn)] = (fn, self._span_wrapper(short + "." + name,
                                                          fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        expr = importlib.import_module("holoflow.expr")
        for _, cls in inspect.getmembers(expr, inspect.isclass):
            if (issubclass(cls, expr.HoloExpr) and cls is not expr.HoloExpr
                    and "eval" in vars(cls)):
                original = vars(cls)["eval"]
                self._patches.append((cls, "eval", original))
                setattr(cls, "eval", self._eval_wrapper(original))
        for short, classes in _METHODS.items():
            module = importlib.import_module("holoflow." + short)
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for name in methods:
                    original = vars(cls)[name]
                    self._patches.append((cls, name, original))
                    setattr(cls, name, self._span_wrapper(
                        "%s.%s.%s" % (short, cls_name, name), original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer totals (counts repeat exactly for one seed)."""
        t = self.totals
        per = {name: t.get(name, 0.0) / rounds for name, _ in LAYER_METRICS}
        calls = t.get("semiflow.integrate.calls", 0.0)
        per["semiflow.rhs_per_integrate"] = (
            t.get("semiflow.integrate.rhs", 0.0) / calls if calls else 0.0)
        return per

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, t0, t1 in self.spans:
                handle.write("%d,%d,%s,%.9f,%.9f\n"
                             % (span_id, parent, name, t0, t1))
