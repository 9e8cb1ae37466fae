"""Seeded task lists for the three workloads, each task with its oracle.

Every workload is a fixed mix of task slots (kind, size class); the seed
fills in the parameters (see Draw), so that two seeds give different inputs
with the same mix and about the same cost. A task is a CLI argv passed
to ``holoflow.cli.main`` or a call into the public library. Its oracle is
the expected exit code and verdict plus, where the mathematics gives one, a
closed-form value with a tolerance (see oracles.py).

Workloads (why each one exists is recorded in BENCHMARK.json as well):

    orbits        pointwise trajectories: flow, portrait, integrate,
                  backward_integrate, semigroup_residual. Time goes to
                  semiflow.integrate and expression evaluation.
    coefficients  the semigroup path: evolve, generator-check, flow_series,
                  operator_matrix and the residual checks. Time goes to the
                  coefficient ODE of flow_series and series composition.
    verdicts      many millisecond decisions: classify, check-e,
                  transfer-check, counterexample and parse errors. Per-call
                  costs dominate.

Known defects stay in the mix as a small fixed share of tasks. Their oracle
is the mathematically correct answer, so they are scored as failed; the
``defect`` field names the defect so that a run can tell them apart from
new failures.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oracles as orc

# Oracle tolerances, as errors relative to max(|expected|, 1).
TOL_POINT = 1e-5        # flow end points, tol 1e-9 over horizons up to 16
TOL_ESCAPE = 1e-4       # escape times (the wall rule stops within 1e-6)
TOL_RESIDUAL = 1e-6     # semigroup, conjugation and transport residuals
TOL_COEFFS = 1e-6       # Taylor coefficients and operator matrices
TOL_DIFF_QUOTIENT = 1e-2  # generator residuals divide the ODE error by h

SOLVER_TOL = 1e-9


@dataclass
class Outcome:
    status: str                  # "ok", "crash" or "timeout"
    code: Optional[int] = None   # CLI exit code
    stdout: str = ""
    value: object = None         # library return value
    error: str = ""
    files: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


@dataclass
class Task:
    kind: str
    check: Callable[[Outcome], tuple]   # -> (ok, reason, error or None)
    argv: Optional[list] = None
    call: Optional[tuple] = None         # (module, function, args)
    outputs: tuple = ()
    report: Optional[str] = None         # JSON report checked by the schema
    numeric: bool = False
    defect: Optional[str] = None


DEFECTS = {
    "tanh-boundary-freeze": "flow of 1-z^2 from 0 freezes at 1-|u| = 1e-9 "
                            "and runs into the step limit (ROADMAP dir. 3)",
    "tanh-portrait-hang": "portrait of 1-z^2 runs seeds into the step limit "
                          "(ROADMAP dir. 3)",
    "dilation-false-escape": "flow of 2*z on the right half-plane reports "
                             "Escaped at R_MAX; e^{2t} is global (ROADMAP "
                             "dir. 3)",
    "generator-check-inf-slope": "generator-check with a constant seed "
                                 "raises on slope = inf (ROADMAP dir. 4)",
    "extraction-radius-cap": "taylor() caps its sampling radius at 0.9, so "
                             "degree-256 coefficients carry noise near "
                             "1e-16/0.9^256 = 6e-5, not the ~1e-12 series.py "
                             "promises (ROADMAP dir. 2)",
}


# -- text forms and parameter draws ---------------------------------------------


def rnd(x: float, digits: int = 4) -> float:
    return float("%.*g" % (digits, x))


def ctext(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return "(%r)" % c.real
    sign = "+" if c.imag >= 0 else "-"
    return "(%r%s%ri)" % (c.real, sign, abs(c.imag))


def cpair(c: complex) -> str:
    c = complex(c)
    return "%r,%r" % (c.real, c.imag)


def cplx(re: float, im: float) -> complex:
    return complex(rnd(re), rnd(im))


def polar(r: float, theta: float) -> complex:
    z = r * cmath.exp(1j * theta)
    return cplx(z.real, z.imag)


class Draw:
    """Seeded parameter draws.

    Parameters that set the cost of a task (rates, horizons, radii) come
    from ``levels``: n values spread evenly over a range in a fixed order,
    each jittered within a tenth of its step, so a slot costs about the
    same under every seed. Directions (angles, seed functions) are drawn
    freely, so two seeds still give different inputs.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def levels(self, n: int, lo: float, hi: float) -> list[float]:
        step = (hi - lo) / n
        return [rnd(lo + (k + 0.5 + 0.1 * (self.rng.random() - 0.5)) * step)
                for k in range(n)]

    def points(self, n: int, r_lo: float, r_hi: float,
               th_lo: float = 0.0, th_hi: float = 2 * math.pi) -> list:
        return [polar(r, self.rng.uniform(th_lo, th_hi))
                for r in self.levels(n, r_lo, r_hi)]

    def uniform(self, lo: float, hi: float) -> float:
        return rnd(self.rng.uniform(lo, hi))


# -- shared checks ----------------------------------------------------------------


def _within(err: float, tol: float, what: str):
    if err <= tol:
        return True, "", err
    return False, "%s error %.3g > %.3g" % (what, err, tol), err


def _code(o: Outcome, expected: int):
    if o.code != expected:
        return "exit %r, expected %d" % (o.code, expected)
    return None


def _status_check(kind: str, final, t_escape, expect):
    """expect = ("Completed", point) or ("Escaped", time)."""
    want, value = expect
    if kind != want:
        return False, "status %s, expected %s" % (kind, want), 1.0
    if want == "Completed":
        return _within(orc.rel_err(final, value), TOL_POINT, "end point")
    return _within(orc.rel_err(t_escape, value), TOL_ESCAPE, "escape time")


def _csv_final(text: str):
    rows = [r for r in text.splitlines() if r and not r.startswith("#")]
    t, re, im = rows[-1].split(",")
    return complex(float(re), float(im))


def flow_cli(out: str, n: int, symbol: str, domain: str, z0: complex,
             horizon: Optional[float], expect, defect=None) -> Task:
    path = os.path.join(out, "t%03d-flow.csv" % n)
    argv = ["flow", "--symbol", symbol, "--domain", domain,
            "--z0", cpair(z0), "--out", path]
    if horizon is not None:
        argv += ["--horizon", repr(horizon)]

    def check(o: Outcome):
        bad = _code(o, 0 if expect[0] == "Completed" else 3)
        if bad:
            return False, bad, 1.0
        s = o.summary
        final = complex(*s["final"])
        if _csv_final(o.files[path].decode()) != final:
            return False, "CSV end point differs from the summary", 1.0
        return _status_check(s["status"], final, s["t_escape"], expect)

    return Task("flow", check, argv=argv, outputs=(path,), numeric=True,
                defect=defect)


def trajectory_lib(fn: str, G, domain, z0, horizon, expect) -> Task:
    def check(o: Outcome):
        traj = o.value
        st = traj.status
        return _status_check(st.kind, traj.final_point, st.t_escape, expect)

    return Task(fn, check, call=("semiflow", fn,
                                 (G, domain, z0, horizon, SOLVER_TOL)),
                numeric=True)


# -- orbits -----------------------------------------------------------------------


def _disc_grid_size(density: int) -> int:
    return (8 * density) * (4 * density)


def _half_plane_depths(density: int) -> tuple[list[float], int]:
    n = 16 * density
    return [j * 8.0 / n for j in range(1, n + 1)], n + 1


def portrait_cli(out: str, n: int, symbol: str, domain: str, density: int,
                 horizon: Optional[float], seeds: int, escaped: int,
                 defect=None) -> Task:
    path = os.path.join(out, "t%03d-portrait.svg" % n)
    argv = ["portrait", "--symbol", symbol, "--domain", domain,
            "--density", str(density), "--out", path]
    if horizon is not None:
        argv += ["--horizon", repr(horizon)]
    want = {"seeds": seeds, "completed": seeds - escaped,
            "escaped": escaped, "failed": 0}

    def check(o: Outcome):
        bad = _code(o, 0)
        if bad:
            return False, bad, None
        s = o.summary
        got = {k: s.get(k) for k in want}
        if got != want:
            return False, "seed counts %r, expected %r" % (got, want), None
        svg = o.files[path].decode()
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            return False, "SVG is not closed", None
        lines = svg.count("<polyline")
        dashed = svg.count('stroke-dasharray="6,4"')
        if lines != seeds or dashed != escaped:
            return False, "SVG has %d lines (%d dashed)" % (lines, dashed), \
                None
        return True, "", None

    return Task("portrait", check, argv=argv, outputs=(path,), defect=defect)


def build_orbits(rng: random.Random, out: str, hf) -> list[Task]:
    d = Draw(rng)
    tasks: list[Task] = []

    def n() -> int:
        return len(tasks)

    # Linear flows z e^{ct} on the unit and radius-2 discs, Re c <= 0;
    # three of them pure rotations.
    decay = d.levels(20, 0.0, 1.2)
    decay[:3] = [0.0, 0.0, 0.0]
    for a, w, z0, T in zip(decay, d.levels(20, -2, 2),
                           d.points(20, 0.1, 0.9), d.levels(20, 4, 16)):
        c = complex(-a, w)
        tasks.append(flow_cli(out, n(), ctext(c) + "*z", "unitdisc", z0, T,
                              ("Completed", orc.linear_flow(c, z0, T))))
    for a, w, z0, T in zip(d.levels(4, 0.1, 1.0), d.levels(4, -1, 1),
                           d.points(4, 0.2, 1.8), d.levels(4, 3, 10)):
        c = complex(-a, w)
        tasks.append(flow_cli(out, n(), ctext(c) + "*z", "disc:0,0,2", z0, T,
                              ("Completed", orc.linear_flow(c, z0, T))))
    # The tanh flow c(1 - z^2), kept to c T <= 6.5 (1 - |u| stays > 1e-6).
    for c, z0, cT in zip(d.levels(20, 0.3, 1.2), d.points(20, 0.0, 0.6),
                         d.levels(20, 2.0, 6.5)):
        T = rnd(cT / c)
        tasks.append(flow_cli(out, n(), "%r*(1-z^2)" % c, "unitdisc", z0, T,
                              ("Completed", orc.tanh_flow(c, z0, T))))
    # z^2 leaves the unit and the radius-2 disc at a known time.
    for z0, extra in zip(d.points(8, 0.4, 0.8, -0.3, 0.3),
                         d.levels(8, 1, 3)):
        t_star = orc.square_exit_time_disc(z0, 1.0)
        tasks.append(flow_cli(out, n(), "z^2", "unitdisc", z0,
                              rnd(t_star + extra), ("Escaped", t_star)))
    for z0, extra in zip(d.points(3, 0.6, 1.6, -0.25, 0.25),
                         d.levels(3, 1, 3)):
        t_star = orc.square_exit_time_disc(z0, 2.0)
        tasks.append(flow_cli(out, n(), "z^2", "disc:0,0,2", z0,
                              rnd(t_star + extra), ("Escaped", t_star)))
    # a z with Re a > 0 leaves the unit disc at ln(1/|z0|)/Re a.
    for a, w, z0, extra in zip(d.levels(4, 0.3, 1.5), d.levels(4, -1, 1),
                               d.points(4, 0.2, 0.8), d.levels(4, 1, 3)):
        c = complex(a, w)
        t_star = orc.linear_exit_time(c, z0, 1.0)
        tasks.append(flow_cli(out, n(), ctext(c) + "*z", "unitdisc", z0,
                              rnd(t_star + extra), ("Escaped", t_star)))
    # Translations on both half-planes: inward (global) and outward.
    for k, (u, v, x, y, T) in enumerate(zip(
            d.levels(16, 0.0, 1.0), d.levels(16, -1, 1),
            d.levels(16, 0.2, 3), d.levels(16, -3, 3), d.levels(16, 2, 8))):
        right = k % 2 == 0
        inward = k < 8
        speed = u if inward else -(0.3 + 1.2 * u)
        c = complex(speed, v) if right else complex(v, speed)
        z0 = complex(x, y) if right else complex(y, x)
        domain = "halfplane:right" if right else "halfplane:upper"
        if inward:
            expect = ("Completed", orc.translation_flow(c, z0, T))
        else:
            dist = z0.real if right else z0.imag
            t_star = dist / -speed
            T = rnd(t_star + 1 + T / 4)
            expect = ("Escaped", t_star)
        tasks.append(flow_cli(out, n(), ctext(c), domain, z0, T, expect))
    # Dilations a z (a > 0) on both half-planes stay global.
    for k, (a, x, y, T) in enumerate(zip(
            d.levels(8, 0.3, 1.2), d.levels(8, 0.2, 3), d.levels(8, -3, 3),
            d.levels(8, 2, 8))):
        right = k % 2 == 0
        z0 = complex(x, y) if right else complex(y, x)
        T = rnd(min(T, 10.0 / a))
        tasks.append(flow_cli(out, n(), "%r*z" % a,
                              "halfplane:right" if right else
                              "halfplane:upper", z0, T,
                              ("Completed", orc.linear_flow(a, z0, T))))
    # z^2 on the right half-plane: to infinity from real seeds, through
    # the imaginary axis from the others, both at t = Re z0 / |z0|^2.
    for k, (x, y, extra) in enumerate(zip(d.levels(4, 0.5, 2),
                                          d.levels(4, 0.3, 1),
                                          d.levels(4, 0.5, 2))):
        z0 = complex(x, 0.0 if k < 2 else (y if k == 2 else -y))
        t_star = orc.square_exit_time_right(z0)
        tasks.append(flow_cli(out, n(), "z^2", "halfplane:right", z0,
                              rnd(t_star + extra), ("Escaped", t_star)))

    # Library calls: integrate, backward_integrate, semigroup_residual.
    disc = hf.parse_domain("unitdisc")
    right = hf.parse_domain("halfplane:right")
    for k, (p, z0, T) in enumerate(zip(d.levels(20, 0.0, 1.0),
                                       d.points(20, 0.1, 0.7),
                                       d.levels(20, 2, 10))):
        if k < 6:
            c = complex(-1.2 * p, 2 * p - 1)
            G, dom = hf.parse_symbol(ctext(c) + "*z"), disc
            expect = ("Completed", orc.linear_flow(c, z0, T))
        elif k < 12:
            c = rnd(0.3 + 0.6 * p)
            T = rnd(min(T, 6.0 / c))
            G, dom = hf.parse_symbol("%r*(1-z^2)" % c), disc
            expect = ("Completed", orc.tanh_flow(c, z0, T))
        elif k < 16:
            c = complex(p, 2 * p - 1)
            z0 = complex(abs(z0.real) + 0.2, z0.imag)
            G, dom = hf.parse_symbol(ctext(c)), right
            expect = ("Completed", orc.translation_flow(c, z0, T))
        else:
            z0 = polar(0.4 + 0.4 * p, 0.6 * p - 0.3)
            t_star = orc.square_exit_time_disc(z0, 1.0)
            T = rnd(t_star + 1)
            G, dom = hf.parse_symbol("z^2"), disc
            expect = ("Escaped", t_star)
        tasks.append(trajectory_lib("integrate", G, dom, z0, T, expect))
    for k, (p, z0, T) in enumerate(zip(d.levels(8, 0.0, 1.0),
                                       d.points(8, 0.2, 0.7),
                                       d.levels(8, 2, 6))):
        if k < 3:   # expanding forward, contracting backward
            c = complex(0.3 + p, 1 - 2 * p)
            expect = ("Completed", orc.linear_flow(-c, z0, T))
            G = hf.parse_symbol(ctext(c) + "*z")
        elif k < 6:  # contracting forward, leaves the disc backward
            c = complex(-0.4 - p, 1 - 2 * p)
            T = rnd(orc.linear_exit_time(-c, z0, 1.0) + 1)
            expect = ("Escaped", -orc.linear_exit_time(-c, z0, 1.0))
            G = hf.parse_symbol(ctext(c) + "*z")
        else:
            c = rnd(0.3 + 0.6 * p)
            T = rnd(min(T, 6.0 / c))
            expect = ("Completed", orc.tanh_flow(-c, z0, T))
            G = hf.parse_symbol("%r*(1-z^2)" % c)
        tasks.append(trajectory_lib("backward_integrate", G, disc, z0, T,
                                    expect))
    for k, (p, z0, t, s) in enumerate(zip(d.levels(8, 0.0, 1.0),
                                          d.points(8, 0.1, 0.7),
                                          d.levels(8, 0.5, 3),
                                          d.levels(8, 0.5, 3))):
        if k < 3:
            c = complex(-p, 1 - 2 * p)
            G, dom = hf.parse_symbol(ctext(c) + "*z"), disc
            end = orc.linear_flow(c, z0, t + s)
        elif k < 6:
            c = rnd(0.3 + 0.5 * p)
            G, dom = hf.parse_symbol("%r*(1-z^2)" % c), disc
            end = orc.tanh_flow(c, z0, t + s)
        else:
            c = complex(p, 1 - 2 * p)
            z0 = complex(abs(z0.real) + 0.2, z0.imag)
            G, dom = hf.parse_symbol(ctext(c)), right
            end = orc.translation_flow(c, z0, t + s)
        scale = max(abs(end), 1.0)
        tasks.append(Task(
            "semigroup_residual",
            lambda o, scale=scale: _within(o.value / scale, TOL_RESIDUAL,
                                           "semigroup residual"),
            call=("semiflow", "semigroup_residual",
                  (G, dom, z0, t, s, SOLVER_TOL)),
            numeric=True))

    # Portraits at density 2-4 on discs and half-planes. The p90 rank of
    # the workload falls in the middle of a block of nine portraits of one
    # cost (a unit rotation, whose sense the seed picks); the other
    # portraits cost clearly more, so the p90 latency is the median of
    # like tasks and does not move with the seed. Seed counts by outcome
    # follow from the closed forms.
    def spin(lo, hi):
        return d.uniform(lo, hi) * d.rng.choice((-1, 1))

    disc2 = _disc_grid_size(2)
    for _ in range(9):
        c = complex(0.0, d.rng.choice((-1.0, 1.0)))
        tasks.append(portrait_cli(out, n(), ctext(c) + "*z", "unitdisc", 2,
                                  1.5, disc2, 0))
    c = complex(-d.uniform(0.2, 0.3), spin(0.9, 1.1))
    tasks.append(portrait_cli(out, n(), ctext(c) + "*z", "unitdisc", 2, 6.0,
                              disc2, 0))
    c = complex(0.0, spin(0.9, 1.1))
    tasks.append(portrait_cli(out, n(), ctext(c) + "*z", "unitdisc", 3, 3.0,
                              _disc_grid_size(3), 0))
    c = complex(-d.uniform(0.4, 0.5), spin(0.4, 0.6))
    tasks.append(portrait_cli(out, n(), ctext(c) + "*z", "unitdisc", 4, 1.5,
                              _disc_grid_size(4), 0))
    c = complex(d.uniform(1.0, 1.2), d.uniform(-0.5, 0.5))
    tasks.append(portrait_cli(out, n(), ctext(c) + "*z", "unitdisc", 2, 4.0,
                              disc2, disc2))
    c = complex(-d.uniform(0.3, 0.4), spin(0.4, 0.6))
    tasks.append(portrait_cli(out, n(), ctext(c) + "*z", "disc:0,0,2", 2,
                              6.0, disc2, 0))
    depths, row = _half_plane_depths(2)
    c = complex(d.uniform(0.4, 0.6), d.uniform(-0.5, 0.5))
    tasks.append(portrait_cli(out, n(), ctext(c), "halfplane:right", 2, 3.0,
                              len(depths) * row, 0))
    c = complex(d.uniform(-0.5, 0.5), -d.uniform(0.9, 1.1))
    T = 1.0
    while min(abs(x + c.imag * T) for x in depths) < 0.01:
        T = rnd(T + 0.013)
    escaped = row * sum(1 for x in depths if x < -c.imag * T)
    tasks.append(portrait_cli(out, n(), ctext(c), "halfplane:upper", 2, T,
                              len(depths) * row, escaped))

    # Known defects, scored against the correct answer.
    tasks.append(flow_cli(out, n(), "1-z^2", "unitdisc", 0j, 12.0,
                          ("Completed", math.tanh(12.0)),
                          defect="tanh-boundary-freeze"))
    tasks.append(portrait_cli(out, n(), "1-z^2", "unitdisc", 2, None,
                              _disc_grid_size(2), 0,
                              defect="tanh-portrait-hang"))
    tasks.append(flow_cli(out, n(), "2*z", "halfplane:right", 1 + 0j, None,
                          ("Completed", math.exp(20.0)),
                          defect="dilation-false-escape"))
    return tasks


# -- coefficients ---------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """A symbol with closed-form flow coefficients: c z or c (1 - z^2)."""

    family: str
    c: complex
    label: Optional[str] = None

    @property
    def text(self) -> str:
        if self.label is not None:
            return self.label
        if self.family == "linear":
            return ctext(self.c) + "*z"
        return "%r*(1-z^2)" % self.c.real

    def taylor(self, degree: int) -> np.ndarray:
        g = np.zeros(degree + 1, dtype=np.complex128)
        if self.family == "linear":
            g[1] = self.c
        else:
            g[0] = self.c
            g[2] = -self.c
        return g

    def eval(self, z: complex) -> complex:
        if self.family == "linear":
            return self.c * z
        return self.c * (1 - z * z)

    def flow(self, t: float, degree: int) -> np.ndarray:
        if self.family == "linear":
            return orc.linear_flow_coeffs(self.c, t, degree)
        return orc.tanh_flow_coeffs(self.c.real, t, degree)


@dataclass(frozen=True)
class Seed:
    """A series seed f: a Moebius map or a polynomial."""

    text: str
    mobius: Optional[tuple] = None
    poly: Optional[tuple] = None

    def coeffs(self, degree: int) -> np.ndarray:
        if self.mobius is not None:
            return orc.mobius_coeffs(*self.mobius, degree)
        return orc.poly_coeffs(self.poly, degree)


SPACES = ["h2", "bergman", "dirichlet", "hpbeta:p=3,beta=pow:0.25",
          "hpbeta:p=1.5,beta=geom:1.05"]


def _symbols(d: Draw, count: int) -> list[Symbol]:
    """Cycling through decays -a + i w, rotations i w and tanh flows
    c(1 - z^2), with rates in narrow ranges (the ODE cost follows them)."""
    out = []
    for k, (p, q) in enumerate(zip(d.levels(count, 0, 1),
                                   d.levels(count, -1, 1))):
        w = rnd(0.5 + abs(q)) * (1 if q >= 0 else -1)
        if k % 3 == 2:
            out.append(Symbol("tanh", complex(rnd(0.4 + 0.4 * p))))
        elif k % 3 == 1:
            out.append(Symbol("linear", complex(0.0, w)))
        else:
            out.append(Symbol("linear", cplx(-0.3 - 0.7 * p, w)))
    return out


def _seeds(d: Draw, count: int) -> list[Seed]:
    out = []
    for k, (rho, psi) in enumerate(zip(d.levels(count, 0.2, 0.6),
                                       d.levels(count, 0, 2 * math.pi))):
        if k % 2 == 0:
            gamma = polar(rho, psi)
            alpha = cplx(d.uniform(-1, 1), d.uniform(-1, 1))
            beta = cplx(d.uniform(-1, 1), d.uniform(-1, 1))
            if abs(alpha - beta * gamma) < 0.1:
                alpha += 0.5
            out.append(Seed("mobius(%s,%s,%s,1)"
                            % (ctext(alpha), ctext(beta), ctext(gamma)),
                            mobius=(alpha, beta, gamma, 1.0)))
        else:
            deg = 2 + k % 5
            coeffs = tuple(cplx(d.uniform(-1, 1) / (j + 1),
                                d.uniform(-1, 1) / (j + 1))
                           for j in range(deg + 1))
            out.append(Seed("poly(%s)" % ",".join(ctext(c) for c in coeffs),
                            poly=coeffs))
    return out


def _times(d: Draw, count: int) -> list[float]:
    return d.levels(count, 0.8, 1.2)


def _evolved(G: Symbol, f: Seed, t: float, degree: int) -> np.ndarray:
    return orc.compose_with_flow(f.coeffs(degree), G.flow(t, degree))


def _parse_matrix_csv(text: str) -> np.ndarray:
    rows = [r for r in text.splitlines() if r and not r.startswith("#")]
    vals = np.array([[float(x) for x in row.split(",")] for row in rows])
    return vals[:, 0::2] + 1j * vals[:, 1::2]


def evolve_cli(out, n, G: Symbol, f: Seed, t, degree, space,
               with_matrix: bool, defect=None) -> Task:
    report = os.path.join(out, "t%03d-evolve.json" % n)
    argv = ["evolve", "--symbol", G.text, "--f", f.text, "--t", repr(t),
            "--N", str(degree), "--out", report]
    if space is not None:
        argv += ["--space", space]
    outputs = [report]
    matrix_path = None
    if with_matrix:
        matrix_path = os.path.join(out, "t%03d-matrix.csv" % n)
        argv += ["--matrix-out", matrix_path]
        outputs.append(matrix_path)

    def check(o: Outcome):
        bad = _code(o, 0)
        if bad:
            return False, bad, 1.0
        doc = json.loads(o.files[report])
        want = _evolved(G, f, t, degree)
        got = np.array([complex(*c) for c in doc["coeffs"]])
        err = orc.rel_err(got, want)
        if space is not None:
            err = max(err, orc.rel_err(doc["norm"],
                                       orc.space_norm(space, want)))
        if matrix_path is not None:
            exact = orc.operator_matrix(G.flow(t, degree))
            err = max(err, orc.rel_err(
                _parse_matrix_csv(o.files[matrix_path].decode()), exact))
            summary = doc["matrix"]
            radius = float(np.max(np.abs(np.diag(exact))))
            err = max(err, orc.rel_err(summary["spectral_radius_estimate"],
                                       radius))
            if summary["residuals"]["apply_consistency"] > 1e-9:
                return False, "matrix and composition disagree", 1.0
        return _within(err, TOL_COEFFS, "coefficient")

    return Task("evolve", check, argv=argv, outputs=tuple(outputs),
                report=report, numeric=True, defect=defect)


def generator_check_cli(out, n, G: Symbol, f: Seed, h, degree, space,
                        defect=None) -> Task:
    report = os.path.join(out, "t%03d-generator.json" % n)
    argv = ["generator-check", "--symbol=" + G.text, "--f=" + f.text,
            "--space", space, "--h", repr(h), "--N", str(degree),
            "--out", report]

    def expected(step):
        fc = f.coeffs(degree)
        quotient = (_evolved(G, f, step, degree) - fc) / step
        action = orc.times(G.taylor(degree), orc.deriv(fc))
        return orc.space_norm(space, quotient - action)

    def check(o: Outcome):
        bad = _code(o, 0)
        if bad:
            return False, bad, 1.0
        doc = json.loads(o.files[report])
        err = 0.0
        for item in doc["residuals"]:
            want = expected(item["h"])
            if want == 0.0:   # f constant: T(h) f = f exactly
                err = max(err, abs(item["residual"]))
                continue
            err = max(err, abs(item["residual"] - want) / want)
            if not 0.8 <= doc["slope"] <= 1.2:
                return False, "slope %r is not 1" % doc["slope"], 1.0
        return _within(err, TOL_DIFF_QUOTIENT, "generator residual")

    return Task("generator-check", check, argv=argv, outputs=(report,),
                report=report, numeric=True, defect=defect)


def build_coefficients(rng: random.Random, out: str, hf) -> list[Task]:
    d = Draw(rng)
    tasks: list[Task] = []

    def n() -> int:
        return len(tasks)

    def stage(count):
        symbols = _symbols(d, count)
        return symbols, _seeds(d, count), _times(d, count)

    def lib(kind, call, check):
        tasks.append(Task(kind, check, call=call, numeric=True))

    degrees = [16] * 5 + [32] * 12 + [48] * 7 + [64] * 9 + [96, 128]
    symbols, seeds, ts = stage(len(degrees))
    for k, (G, f, t, N) in enumerate(zip(symbols, seeds, ts, degrees)):
        space = SPACES[k % 6 - 1] if k % 6 else None
        tasks.append(evolve_cli(out, n(), G, f, t, N, space, False))
    # Known defect at N = 256. A rotation leaves the extraction noise of
    # a Moebius seed with |f| near 1 undamped, so it shows on every seed.
    alpha, beta, gamma = (polar(d.uniform(lo, hi), d.uniform(0, 2 * math.pi))
                          for lo, hi in ((0.8, 1.0), (0.8, 1.0), (0.4, 0.6)))
    f = Seed("mobius(%s,%s,%s,1)" % (ctext(alpha), ctext(beta), ctext(gamma)),
             mobius=(alpha, beta, gamma, 1.0))
    G = Symbol("linear", complex(0.0, d.uniform(0.5, 2.0)))
    tasks.append(evolve_cli(out, n(), G, f, d.uniform(0.8, 1.2), 256, None,
                            False, defect="extraction-radius-cap"))

    degrees = [16, 32, 32, 48, 48, 64, 64, 64]
    symbols, seeds, ts = stage(len(degrees))
    for k, (G, f, t, N) in enumerate(zip(symbols, seeds, ts, degrees)):
        tasks.append(evolve_cli(out, n(), G, f, t, N,
                                SPACES[k % len(SPACES)], True))

    degrees = [32] * 5 + [64] * 5
    symbols, seeds, _ = stage(len(degrees))
    for k, (G, f, h, N) in enumerate(zip(symbols, seeds,
                                         d.levels(10, 1e-3, 4e-3), degrees)):
        tasks.append(generator_check_cli(out, n(), G, f, h, N,
                                         SPACES[k % len(SPACES)]))

    degrees = [16] * 3 + [32] * 6 + [48] * 4 + [64] * 6 + [96]
    symbols, _, ts = stage(len(degrees))
    for G, t, N in zip(symbols, ts, degrees):
        sym = hf.parse_symbol(G.text)
        want = G.flow(t, N)
        lib("flow_series", ("semiflow", "flow_series",
                            (sym, t, N, SOLVER_TOL)),
            lambda o, want=want: _within(
                orc.rel_err(o.value.coeffs.coeffs, want), TOL_COEFFS,
                "flow coefficient"))

    degrees = [16, 32, 32, 48, 64, 64, 64, 128]
    symbols, _, ts = stage(len(degrees))
    for G, t, N in zip(symbols, ts, degrees):
        want = orc.operator_matrix(G.flow(t, N))
        lib("operator_matrix", ("semigroup", "operator_matrix",
                                (hf.parse_symbol(G.text), t, N, SOLVER_TOL)),
            lambda o, want=want: _within(orc.rel_err(o.value.entries, want),
                                         TOL_COEFFS, "matrix entry"))

    def series(f: Seed, N):
        return hf.SeriesFn(f.coeffs(N))

    degrees = [32] * 4 + [64] * 4
    symbols, seeds, ts = stage(len(degrees))
    for k, (G, f, t, N) in enumerate(zip(symbols, seeds, ts, degrees)):
        q = 8 if k % 2 else 16
        space = SPACES[k % len(SPACES)]
        fc = f.coeffs(N)
        g = orc.times(G.taylor(N), orc.deriv(fc))
        nodes = [t * j / q for j in range(q + 1)]
        weights = [1 if j in (0, q) else (4 if j % 2 else 2)
                   for j in range(q + 1)]
        integral = sum(wt * orc.compose_with_flow(g, G.flow(s, N))
                       for wt, s in zip(weights, nodes)) * (t / q / 3.0)
        end = orc.compose_with_flow(fc, G.flow(t, N))
        want = orc.space_norm(space, integral / t - (end - fc) / t)
        lib("maximality_residual",
            ("semigroup", "maximality_residual",
             (hf.parse_symbol(G.text), series(f, N), hf.parse_space(space),
              t, q, SOLVER_TOL)),
            lambda o, want=want: _within(orc.rel_err(o.value, want),
                                         TOL_RESIDUAL, "maximality residual"))

    degrees = [32] * 3 + [64] * 3
    symbols, seeds, ts = stage(len(degrees))
    for k, (G, f, t, N) in enumerate(zip(symbols, seeds, ts, degrees)):
        space = SPACES[k % len(SPACES)]
        t_list = [0.0, rnd(t / 4), rnd(t / 2), t]
        fc = f.coeffs(N)
        want = [orc.space_norm(space, orc.compose_with_flow(fc, G.flow(s, N))
                               - fc) for s in t_list]
        lib("strong_continuity_report",
            ("semigroup", "strong_continuity_report",
             (hf.parse_symbol(G.text), series(f, N), hf.parse_space(space),
              t_list)),
            lambda o, want=want: _within(
                orc.rel_err([dev for _, dev in o.value], want), TOL_COEFFS,
                "deviation"))

    degrees = [32] * 3 + [64] * 3
    symbols, seeds, ts = stage(len(degrees))
    for G, f, t, N, z in zip(symbols, seeds, ts, degrees,
                             d.points(6, 0.0, 0.5)):
        h = 1e-3
        fc = f.coeffs(N)

        def u(s, w, G=G, fc=fc, N=N):
            return orc.polyval(orc.compose_with_flow(fc, G.flow(s, N)), w)

        d_t = (u(t + h, z) - u(t - h, z)) / (2 * h)
        d_z = (u(t, z + h) - u(t, z - h)) / (2 * h)
        want = abs(d_t - G.eval(z) * d_z)
        lib("transport_pde_residual",
            ("semigroup", "transport_pde_residual",
             (hf.parse_symbol(G.text), series(f, N), z, t, h, h)),
            lambda o, want=want: _within(orc.rel_err(o.value, want),
                                         TOL_RESIDUAL, "transport residual"))

    # Known defect: a constant seed gives zero residuals and slope = inf.
    tasks.append(generator_check_cli(
        out, n(), Symbol("linear", complex(-1.0), "-z"), Seed("1", poly=(1.0,)),
        1e-3, 64, "h2", defect="generator-check-inf-slope"))
    return tasks


# -- verdicts -------------------------------------------------------------------


def _bp_text(b: complex, F: str) -> str:
    return "poly(%s,-1)*poly(1,-%s)*%s" % (ctext(b), ctext(b.conjugate()), F)


def classify_cli(out, n, symbol, expect, oracle) -> Task:
    report = os.path.join(out, "t%03d-classify.json" % n)
    argv = ["classify", "--symbol", symbol, "--out", report]

    def check(o: Outcome):
        bad = _code(o, 0)
        if bad:
            return False, bad, 1.0
        doc = json.loads(o.files[report])
        if doc["status"] != expect:
            return False, "verdict %s, expected %s" % (doc["status"],
                                                       expect), 1.0
        if expect == "Global":
            return _within(orc.rel_err(complex(*doc["b"]), oracle),
                           TOL_ESCAPE, "Denjoy-Wolff point")
        z0 = complex(*doc["witness"]["z0"])
        return _within(orc.rel_err(doc["witness"]["t_escape"], oracle(z0)),
                       TOL_ESCAPE, "witness escape time")

    return Task("classify", check, argv=argv, outputs=(report,),
                report=report, numeric=True)


def build_verdicts(rng: random.Random, out: str, hf) -> list[Task]:
    d = Draw(rng)
    tasks: list[Task] = []

    def n() -> int:
        return len(tasks)

    def herglotz(k: int, kappa: complex) -> str:
        if k % 3 == 0:
            return ctext(cplx(0.5 + abs(kappa), kappa.imag))
        if k % 3 == 1:
            return "poly(1,%s)" % ctext(kappa)
        return "mobius(%s,1,%s,1)" % (ctext(kappa), ctext(-kappa))

    # Global: Berkson-Porta symbols, the oracle is b.
    for k, (b, kappa) in enumerate(zip(d.points(30, 0.0, 0.9),
                                       d.points(30, 0.0, 0.8))):
        tasks.append(classify_cli(out, n(), _bp_text(b, herglotz(k, kappa)),
                                  "Global", b))
    for k, (th, kappa) in enumerate(zip(d.levels(15, 0, 2 * math.pi),
                                        d.points(15, 0.0, 0.8))):
        b = complex(math.cos(th), math.sin(th))
        tasks.append(classify_cli(out, n(), _bp_text(b, herglotz(k, kappa)),
                                  "Global", b))
    # NotGlobal: translations and expanding linear symbols escape.
    for c in d.points(10, 0.3, 2.0):
        tasks.append(classify_cli(
            out, n(), ctext(c), "NotGlobal",
            lambda z0, c=c: orc.translation_exit_time_disc(c, z0)))
    for a, w in zip(d.levels(10, 0.3, 1.5), d.levels(10, -1, 1)):
        c = complex(a, w)
        tasks.append(classify_cli(
            out, n(), ctext(c) + "*z", "NotGlobal",
            lambda z0, c=c: orc.linear_exit_time(c, z0, 1.0)))

    # check-e: the verdict follows from the weight rule.
    def check_e(space, expect_code, status):
        report = os.path.join(out, "t%03d-check-e.json" % n())

        def check(o: Outcome):
            bad = _code(o, expect_code)
            if bad:
                return False, bad, None
            if expect_code == 1:
                if "error" not in o.summary or report in o.files:
                    return False, "parse error not reported", None
                return True, "", None
            doc = json.loads(o.files[report])
            if doc["status"] != status:
                return False, "verdict %s, expected %s" % (doc["status"],
                                                           status), None
            return True, "", None

        tasks.append(Task("check-e", check,
                          argv=["check-e", "--space", space,
                                "--out", report],
                          outputs=(report,),
                          report=report if expect_code == 0 else None))

    for k in range(10):
        check_e(["h2", "bergman", "dirichlet"][k % 3], 0, "Satisfied")
    for k, (p, s, r) in enumerate(zip(d.levels(30, 1.0, 4.0),
                                      d.levels(30, -1.0, 1.5),
                                      d.levels(30, 1.0, 2.0))):
        p = 1.0 if k % 5 == 0 else rnd(p, 3)
        rule = ("const", "pow", "geom")[k % 3]
        if rule == "pow":
            q = p / (p - 1.0) if p > 1 else 0.0
            if abs(s * q - 1.0) < 1e-3:
                s = rnd(s + 0.01)
            value, beta = s, "pow:%r" % s
        elif rule == "geom":
            value = 1.0 if k % 4 == 0 else r
            beta = "geom:%r" % value
        else:
            value, beta = 0.0, "const"
        check_e("hpbeta:p=%r,beta=%s" % (p, beta), 0,
                orc.condition_e(p, rule, value))
    for r in d.levels(2, 0.2, 0.9):
        check_e("hpbeta:p=2,beta=geom:%r" % r, 1, None)
    for p in d.levels(2, 0.1, 0.9):
        check_e("hpbeta:p=%r,beta=const" % p, 1, None)
    check_e("lp:p=2", 1, None)

    # transfer-check: the conjugation residual is 0.
    for k, (p, z0, t, th) in enumerate(zip(
            d.levels(20, 0, 1), d.points(20, 0.0, 0.7), d.levels(20, 0.5, 2),
            d.levels(20, 0, 2 * math.pi))):
        if k % 3 == 0:
            symbol = ctext(complex(rnd(3 * p - 1.5)))
        elif k % 3 == 1:
            symbol = ctext(cplx(2 * p - 1, p))
        else:
            symbol = "%r*z" % rnd(0.2 + 0.6 * p)
        report = os.path.join(out, "t%03d-transfer.json" % n())
        argv = ["transfer-check", "--symbol", symbol, "--z0", cpair(z0),
                "--t", repr(t), "--out", report]
        if k % 2:
            # i (1 + e z) / (1 - e z) with |e| < 1 maps the disc into the
            # upper half-plane.
            e = cplx(0.999 * math.cos(th), 0.999 * math.sin(th))
            argv += ["--map", "mobius:%s,(0.0+1.0i),%s,1"
                     % (ctext(1j * e), ctext(-e))]

        def check(o: Outcome, report=report):
            bad = _code(o, 0)
            if bad:
                return False, bad, 1.0
            doc = json.loads(o.files[report])
            return _within(doc["residual"], TOL_RESIDUAL,
                           "conjugation residual")

        tasks.append(Task("transfer-check", check, argv=argv,
                          outputs=(report,), report=report, numeric=True))

    # counterexample with F = 1: a Riccati flow with a closed-form exit.
    # These are the slowest tasks; with 32 of them the p90 rank falls in
    # the middle of the block, not in its seed-dependent lower tail.
    for b, z0 in zip(d.points(32, 1.15, 1.6), d.points(32, 0.0, 0.5)):
        report = os.path.join(out, "t%03d-cx.json" % n())
        traj = os.path.join(out, "t%03d-cx.csv" % n())
        horizon = 40.0
        while abs(orc.riccati_flow(b, z0, horizon) - b) > 2e-4:
            horizon += 10.0   # keep dw_distance well below dw-tol = 1e-3
        t_exit = orc.riccati_first_exit(b, z0, horizon)
        dw = abs(orc.riccati_flow(b, z0, horizon) - b)
        conclusive = t_exit is not None

        def check(o: Outcome, report=report, t_exit=t_exit, dw=dw,
                  conclusive=conclusive):
            bad = _code(o, 0 if conclusive else 4)
            if bad:
                return False, bad, 1.0
            doc = json.loads(o.files[report])
            if t_exit is None:
                return doc["t_exit"] is None, "exit time", 0.0
            err = max(orc.rel_err(doc["t_exit"], t_exit),
                      abs(doc["dw_distance"] - dw))
            return _within(err, TOL_ESCAPE, "exit time")

        tasks.append(Task(
            "counterexample", check,
            argv=["counterexample", "--b", cpair(b), "--z0", cpair(z0),
                  "--T", repr(horizon), "--out", report,
                  "--trajectory-out", traj],
            outputs=(report, traj), report=report, numeric=True))

    # Malformed symbols end in exit 1 with an error line.
    for text in ["z^", "exp(", "1+*z", "mobius(1,2,3)", "poly()"]:
        report = os.path.join(out, "t%03d-classify.json" % n())

        def check(o: Outcome, report=report):
            bad = _code(o, 1)
            if bad:
                return False, bad, None
            if "error" not in o.summary or report in o.files:
                return False, "parse error not reported", None
            return True, "", None

        tasks.append(Task("parse-error", check,
                          argv=["classify", "--symbol", text,
                                "--out", report],
                          outputs=(report,)))
    return tasks


BUILDERS = {
    "orbits": build_orbits,
    "coefficients": build_coefficients,
    "verdicts": build_verdicts,
}


def build(workload: str, seed: int, out: str, hf) -> list[Task]:
    rng = random.Random("%s:%d" % (workload, seed))
    return BUILDERS[workload](rng, out, hf)


def describe(task: Task) -> str:
    """Deterministic text of a task's inputs (for the input digest)."""
    if task.argv is not None:
        return " ".join(task.argv)
    module, fn, args = task.call
    parts = []
    for a in args:
        if type(a).__name__ == "SeriesFn":
            parts.append("series" + repr([complex(c) for c in a.coeffs]))
        elif hasattr(a, "to_text"):
            parts.append(a.to_text())
        else:
            parts.append(str(a))
    return "%s.%s(%s)" % (module, fn, ", ".join(parts))
