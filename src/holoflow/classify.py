"""Globality classification for flow generators on the unit disc.

A generator of a global semiflow of the disc factors as

    G(z) = (b - z)(1 - conj(b) z) F(z),   |b| <= 1,  Re F >= 0 on the disc

(the Berkson-Porta form; b is the Denjoy-Wolff point). bp_classify looks
for b among the Newton roots of G (_newton_roots) or, with none, among the
minima of |G| on the unit circle (_boundary_minima), and samples Re F of
each candidate on the deterministic interior grid in one evaluation
(_re_sheet). A negative sample is a conclusive failure certificate for
that candidate, a clean sheet is evidence only, and a sheet with a NaN
sample (an overflowed evaluation) never passes. When no candidate passes,
an orbit that leaves through the wall certifies NotGlobal; otherwise the
verdict is Inconclusive.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, PoleError, ToleranceError
from .expr import HoloExpr, Poly, Product, Ratio
from .geometry import Domain, _grid
from .semiflow import (_COMPLETED, _EVAL_ERRORS, _check_run, _eval_lanes,
                       _final_state)

GLOBAL = "Global"
NOT_GLOBAL = "NotGlobal"
INCONCLUSIVE = "Inconclusive"

_NEWTON_SEEDS = 32
_NEWTON_ITERATIONS = 50
_NEWTON_TOL = 1e-12
_ROOT_MERGE_DISTANCE = 1e-7
# A Newton step below _DOUBLE_STEP that is within _DOUBLE_DRIFT of half the
# lane's last step is doubled.
_DOUBLE_STEP = 0.05
_DOUBLE_DRIFT = 0.1
_SINGULAR_PROBE_RADIUS = 1e-4
_BOUNDARY_SAMPLES = 256
_MAX_BOUNDARY_CANDIDATES = 8
_ESCAPE_SEEDS = 8
# A candidate passes when its least Re F sample is at least -TOL_HERGLOTZ.
TOL_HERGLOTZ = 1e-9


@dataclass(frozen=True)
class HerglotzReport:
    min_re: float
    argmin: complex


@dataclass(frozen=True)
class EscapeWitness:
    z0: complex
    t_escape: float


@dataclass(frozen=True)
class BPVerdict:
    status: str
    b: Optional[complex] = None
    min_re_F: Optional[float] = None
    witness: Optional[EscapeWitness] = None


def bp_build(b: complex, F: HoloExpr) -> HoloExpr:
    """The generator (b - z)(1 - conj(b) z) F(z); requires |b| <= 1."""
    b = complex(b)
    if abs(b) > 1.0:
        raise BadParameter("distinguished point must satisfy |b| <= 1")
    return Product(_bp_factor(b), F)


def _bp_factor(b: complex) -> HoloExpr:
    return Product(Poly((b, -1.0)), Poly((1.0, -b.conjugate())))


def herglotz_check(F: HoloExpr, density: int) -> HerglotzReport:
    """Minimum of Re F over the deterministic disc grid and its location.

    A negative minimum is conclusive; a nonnegative one is sampled
    evidence, not a positivity proof. A pole at a grid point propagates
    as PoleError.
    """
    return _herglotz_on(F, _classification_seeds(density)[1])


def _herglotz_on(F: HoloExpr, grid) -> HerglotzReport:
    """The least Re F over the grid; any evaluation error propagates."""
    return _lowest(_re_sheet(F, grid, probe_singularities=False), grid)


def _re_sheet(F: HoloExpr, grid, probe_singularities: bool) -> np.ndarray:
    """Re F on every grid point, in one evaluation of the grid.

    With probe_singularities, a grid point where F raises PoleError takes
    the circle average of _eval_with_probe; any other error propagates,
    from the first failing grid point.
    """
    with np.errstate(all="ignore"):
        v, errors = _eval_lanes(F.eval, np.array(grid, dtype=complex))
    for i in sorted(errors):
        if not (probe_singularities and isinstance(errors[i], PoleError)):
            raise errors[i]
        v[i] = _eval_with_probe(F, grid[i])
    return v.real


def _lowest(re: np.ndarray, grid) -> HerglotzReport:
    """The least sample and its first grid point; NaN samples never count."""
    i = int(np.argmin(np.where(np.isnan(re), math.inf, re)))
    low = float(re[i])
    if not low < math.inf:  # no sample below inf
        return HerglotzReport(math.inf, grid[0])
    return HerglotzReport(low, grid[i])


def _eval_with_probe(F: HoloExpr, z: complex) -> complex:
    """Evaluate F, falling back to a small circle average at a pole hit."""
    try:
        return F.eval(z)
    except PoleError:
        total = 0j
        for k in range(8):
            total += F.eval(z + _SINGULAR_PROBE_RADIUS
                            * cmath.exp(2j * math.pi * k / 8))
        return total / 8


def _newton_roots(G: HoloExpr, seeds, tol_b: float):
    """Converged Newton roots of G inside |z| <= 1 + tol_b, deduplicated
    and ordered by (|b|, arg b in [0, 2 pi)).

    The seeds run as lanes of one array: each iteration evaluates G and G'
    once on the lanes still running. A lane leaves the run when its
    evaluation raises (a failure), when |G'| < 1e-300, when z leaves
    |z| <= 10 or turns non-finite, or when its step falls below
    _NEWTON_TOL (converged). ToleranceError when every seed fails.

    A boundary b is a double root, since (b - z)(1 - conj(b) z) =
    conj(b)(z - b)^2 when |b| = 1, and there Newton converges only
    linearly, each step half the last. A lane whose step is below
    _DOUBLE_STEP and within _DOUBLE_DRIFT of half its last step takes
    twice the step, which converges quadratically at a double root (Traub,
    Iterative Methods for the Solution of Equations, 1964); the bound on
    the step keeps seeds far from a pair of simple roots, where steps also
    halve, from jumping to the middle of the pair (CHANGES.md, PR 10).
    """
    Gp = G.derivative()
    z = np.array(seeds, dtype=complex)
    ids = np.arange(len(z))
    last = np.full(len(z), math.nan, complex)  # each lane's last step
    converged = []  # (seed index, root)
    failures = 0
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_ITERATIONS):
            if not len(z):
                break
            g, g_errors = _eval_lanes(G.eval, z)
            gp, gp_errors = _eval_lanes(Gp.eval, z)
            # a lane that raised is NaN in g or gp, so it stops below
            failures += len(g_errors.keys() | gp_errors.keys())
            step = g / gp
            # near a double root each step is half the last; twice the
            # step converges quadratically there (Traub 1964)
            double = ((np.abs(step) < _DOUBLE_STEP)
                      & (np.abs(step / last - 0.5) < _DOUBLE_DRIFT))
            last = step
            step = np.where(double, 2.0 * step, step)
            z = z - step
            running = (np.abs(gp) >= 1e-300) & (np.abs(z) <= 10.0)
            done = running & (np.abs(step) < _NEWTON_TOL)
            if done.any():
                converged += zip(ids[done].tolist(), z[done].tolist())
                running &= ~done
            if not running.all():
                ids, z, last = ids[running], z[running], last[running]
    if failures == len(seeds):
        raise ToleranceError("Newton failed from every seed")
    roots = [r for _, r in sorted(converged)]
    if roots:
        with np.errstate(all="ignore"):
            g, errors = _eval_lanes(G.eval, np.array(roots))
        ok = (np.abs(g) <= 1e-6) & (np.abs(roots) <= 1.0 + tol_b)
        roots = [r for i, r in enumerate(roots) if ok[i] and i not in errors]
    roots.sort(key=_candidate_key)
    merged: list[complex] = []
    for r in roots:
        if all(abs(r - m) > _ROOT_MERGE_DISTANCE for m in merged):
            merged.append(r)
    return merged


def _candidate_key(b: complex):
    arg = math.atan2(b.imag, b.real)
    if arg < 0:
        arg += 2 * math.pi
    return (abs(b), arg)


@functools.lru_cache(maxsize=16)
def _classification_seeds(density: int):
    """(Newton seeds, Herglotz grid) of a grid density, as tuples; the
    seeds are _NEWTON_SEEDS / 2 strided grid points and as many points of
    the unit circle."""
    grid = _grid(Domain.unit_disc(), density)
    n_grid = _NEWTON_SEEDS // 2
    stride = [grid[round(i * (len(grid) - 1) / (n_grid - 1))]
              for i in range(n_grid)]
    boundary = [cmath.exp(2j * math.pi * k / n_grid) for k in range(n_grid)]
    return tuple(stride + boundary), grid


_BOUNDARY_POINTS = tuple(cmath.exp(2j * math.pi * k / _BOUNDARY_SAMPLES)
                         for k in range(_BOUNDARY_SAMPLES))


def _boundary_minima(G: HoloExpr):
    """Boundary points where |G| is smallest, spaced apart, ordered by
    (|G|, angle); points where G raises are skipped, NaN values go last."""
    with np.errstate(all="ignore"):
        v, errors = _eval_lanes(G.eval, np.array(_BOUNDARY_POINTS))
    mag = np.abs(v)
    kept: list[int] = []
    min_spacing = _BOUNDARY_SAMPLES // 32
    for k in np.argsort(mag, kind="stable").tolist():
        if k in errors or any(
                min(abs(k - kj), _BOUNDARY_SAMPLES - abs(k - kj))
                < min_spacing for kj in kept):
            continue
        kept.append(k)
        if len(kept) == _MAX_BOUNDARY_CANDIDATES:
            break
    return [_BOUNDARY_POINTS[k] for k in kept]


def bp_classify(G: HoloExpr, density: int = 2, tol_b: float = 1e-8,
                escape_t_max: float = 20.0,
                escape_tol: float = 1e-9) -> BPVerdict:
    """Decide whether G generates a global semiflow of the unit disc.

    Returns Global with the located Denjoy-Wolff point when a candidate
    factorization passes the sampled positivity check (least Re F sample
    at least -TOL_HERGLOTZ, none NaN), NotGlobal with an
    escape witness when no candidate passes and some interior seed exits
    in finite time through the wall (outward normal speed above
    sqrt(escape_tol) at the exit point), and Inconclusive otherwise. The
    seeds are _ESCAPE_SEEDS strided grid points, run one by one in order
    (the first usually decides). An orbit that creeps towards a boundary
    fixed point (the tanh flow of 1 - z^2 reaches 1 - |u| = DELTA_WALL
    near t = 10.7) ends as an escape of the integrator with a normal speed
    near 0, and is no witness. The escape horizon and tolerance are
    checked before any work, by the rule of every run (BadParameter).
    """
    _check_run(escape_tol, escape_t_max)
    seeds, grid = _classification_seeds(density)
    candidates = _newton_roots(G, seeds, tol_b)
    if not candidates:
        candidates = _boundary_minima(G)
    best_min_re: Optional[float] = None
    for b in candidates:
        F = Ratio(G, _bp_factor(b))
        try:
            sheet = _re_sheet(F, grid, probe_singularities=True)
        except _EVAL_ERRORS:
            continue
        low = _lowest(sheet, grid).min_re
        if not math.isfinite(low):  # an overflowed sheet
            continue
        if best_min_re is None or low > best_min_re:
            best_min_re = low
        if low >= -TOL_HERGLOTZ and not np.isnan(sheet).any():
            return BPVerdict(GLOBAL, b=b, min_re_F=low)
    disc = Domain.unit_disc()
    n = len(grid)
    hunt = [grid[round(i * (n - 1) / (_ESCAPE_SEEDS - 1))]
            for i in range(_ESCAPE_SEEDS)]
    for z0 in hunt:
        try:
            kind, t, p = _final_state(G, disc, z0, escape_t_max, escape_tol)
            if kind == _COMPLETED:
                continue
            outward = (p.conjugate() * G.eval(p)).real / abs(p)
        except _EVAL_ERRORS:
            continue
        if outward > math.sqrt(escape_tol):
            return BPVerdict(NOT_GLOBAL, min_re_F=best_min_re,
                             witness=EscapeWitness(z0, float(t)))
    return BPVerdict(INCONCLUSIVE, min_re_F=best_min_re)
