"""Globality classification for flow generators on the unit disc.

A generator of a global semiflow of the disc factors as

    G(z) = (b - z)(1 - conj(b) z) F(z),   |b| <= 1,  Re F >= 0 on the disc

(the Berkson-Porta form; b is the Denjoy-Wolff point). The classifier
searches for b by damped-free Newton iteration on G from 32 fixed seeds
(16 strided grid points, 16 boundary points), keeps converged roots inside
the closed disc, and for each candidate forms the cofactor
F = G / ((b - z)(1 - conj(b) z)) and samples Re F on the deterministic
interior grid. Removable-singularity samples (the grid point sits on a
zero of the factor) are replaced by the average of F over a circle of
radius 1e-4 around the point.

Epistemics: a negative sample is a conclusive failure certificate for that
candidate, a clean sample sheet is evidence only. When no candidate
passes, a finite exit time found by the integrator from one of 8 interior
seeds certifies NotGlobal; otherwise the verdict is Inconclusive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import BadParameter, HoloflowError, PoleError, ToleranceError
from .expr import HoloExpr, Poly, Product, Ratio
from .geometry import Domain
from .semiflow import _check_tol, escape_time

GLOBAL = "Global"
NOT_GLOBAL = "NotGlobal"
INCONCLUSIVE = "Inconclusive"

_NEWTON_SEEDS = 32
_NEWTON_ITERATIONS = 50
_NEWTON_TOL = 1e-12
_ROOT_MERGE_DISTANCE = 1e-7
_SINGULAR_PROBE_RADIUS = 1e-4
_BOUNDARY_SAMPLES = 256
_MAX_BOUNDARY_CANDIDATES = 8
_ESCAPE_SEEDS = 8

DEFAULT_TOL_HERGLOTZ = 1e-9


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
    grid = Domain.unit_disc().sample_grid(density)
    return _herglotz_on(F, grid, probe_singularities=False)


def _herglotz_on(F: HoloExpr, grid, probe_singularities: bool) -> HerglotzReport:
    best = math.inf
    arg = grid[0]
    for p in grid:
        if probe_singularities:
            v = _eval_with_probe(F, p)
        else:
            v = F.eval(p)
        if v.real < best:
            best = v.real
            arg = p
    return HerglotzReport(best, arg)


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
    and ordered by (|b|, arg b in [0, 2 pi))."""
    Gp = G.derivative()
    roots = []
    failures = 0
    for seed in seeds:
        z = complex(seed)
        ok = False
        try:
            for _ in range(_NEWTON_ITERATIONS):
                g = G.eval(z)
                gp = Gp.eval(z)
                if abs(gp) < 1e-300:
                    break
                step = g / gp
                z -= step
                if abs(z) > 10.0 or not (
                    math.isfinite(z.real) and math.isfinite(z.imag)
                ):
                    break
                if abs(step) < _NEWTON_TOL:
                    ok = True
                    break
        except (HoloflowError, OverflowError, ZeroDivisionError):
            failures += 1
            continue
        if not ok:
            continue
        try:
            if abs(G.eval(z)) > 1e-6:
                continue
        except HoloflowError:
            continue
        if abs(z) <= 1.0 + tol_b:
            roots.append(z)
    if failures == len(seeds):
        raise ToleranceError("Newton failed from every seed")
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


def _classification_seeds(density: int):
    grid = Domain.unit_disc().sample_grid(density)
    n_grid = _NEWTON_SEEDS // 2
    stride = [grid[round(i * (len(grid) - 1) / (n_grid - 1))]
              for i in range(n_grid)]
    boundary = [cmath.exp(2j * math.pi * k / n_grid) for k in range(n_grid)]
    return stride + boundary, grid


def _boundary_minima(G: HoloExpr):
    """Boundary points where |G| is smallest, spaced apart, ordered by
    (|G|, angle)."""
    values = []
    for k in range(_BOUNDARY_SAMPLES):
        w = cmath.exp(2j * math.pi * k / _BOUNDARY_SAMPLES)
        try:
            values.append((abs(G.eval(w)), k, w))
        except HoloflowError:
            continue
    values.sort()
    kept: list[tuple] = []
    min_spacing = _BOUNDARY_SAMPLES // 32
    for mag, k, w in values:
        if any(min(abs(k - kj), _BOUNDARY_SAMPLES - abs(k - kj)) < min_spacing
               for _, kj, _w in kept):
            continue
        kept.append((mag, k, w))
        if len(kept) == _MAX_BOUNDARY_CANDIDATES:
            break
    return [w for _, _, w in kept]


def bp_classify(G: HoloExpr, density: int = 2, tol_b: float = 1e-8,
                tol_herglotz: float = DEFAULT_TOL_HERGLOTZ,
                escape_t_max: float = 20.0,
                escape_tol: float = 1e-9) -> BPVerdict:
    """Decide whether G generates a global semiflow of the unit disc.

    Returns Global with the located Denjoy-Wolff point when a candidate
    factorization passes the sampled positivity check, NotGlobal with an
    escape witness when no candidate passes and some interior seed exits
    in finite time, and Inconclusive otherwise. The escape horizon and
    tolerance are checked before any work (BadParameter).
    """
    if not 0 < escape_t_max < math.inf:
        raise BadParameter("escape_t_max must be positive and finite")
    _check_tol(escape_tol)
    seeds, grid = _classification_seeds(density)
    candidates = _newton_roots(G, seeds, tol_b)
    if not candidates:
        candidates = _boundary_minima(G)
    best_min_re: Optional[float] = None
    for b in candidates:
        F = Ratio(G, _bp_factor(b))
        try:
            report = _herglotz_on(F, grid, probe_singularities=True)
        except HoloflowError:
            continue
        if best_min_re is None or report.min_re > best_min_re:
            best_min_re = report.min_re
        if report.min_re >= -tol_herglotz:
            return BPVerdict(GLOBAL, b=b, min_re_F=report.min_re)
    disc = Domain.unit_disc()
    n = len(grid)
    hunt = [grid[round(i * (n - 1) / (_ESCAPE_SEEDS - 1))]
            for i in range(_ESCAPE_SEEDS)]
    for z0 in hunt:
        try:
            t_esc = escape_time(G, disc, z0, escape_t_max, escape_tol)
        except HoloflowError:
            continue
        if t_esc is not None:
            return BPVerdict(NOT_GLOBAL, min_re_F=best_min_re,
                             witness=EscapeWitness(z0, t_esc))
    return BPVerdict(INCONCLUSIVE, min_re_F=best_min_re)
