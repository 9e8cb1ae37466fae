"""Globality classification for flow generators on the unit disc.

A holomorphic G on the disc generates a global semiflow exactly when

    p(z) = (G(0) - conj(G(0)) z^2 - G(z)) / z   has   Re p >= 0 on the disc

(Aharonov, Elin, Reich & Shoikhet, Rend. Mat. Acc. Lincei 10, 1999). Re p
is harmonic, so its least value on |z| <= rho lies on |z| = rho, and
bp_classify samples it on a few rings (_ring_test) with no knowledge of the
Denjoy-Wolff point b. Only after a Global verdict is b located, for the
report, in the Berkson-Porta form

    G(z) = (b - z)(1 - conj(b) z) F(z),   |b| <= 1,  Re F >= 0 on the disc,

from the same ring samples (_interior_b, then Newton from _boundary_seeds):
the zero in the disc, or else the boundary zero where G'(b) is real and
<= 0, as every other boundary zero has G'(b) > 0 (Bracci, Contreras &
Diaz-Madrigal 2020). The least Re F on the deterministic interior grid
(_re_sheet) is reported as sampled evidence, like the ring certificate; it
decides nothing. When the rings show Re p < 0 somewhere, an orbit that
leaves through the wall certifies NotGlobal; otherwise the verdict is
Inconclusive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, ToleranceError
from .expr import HoloExpr, Poly, Product, Ratio
from .geometry import Domain, _grid
from .semiflow import (_COMPLETED, _EVAL_ERRORS, _check_run, _eval_lanes,
                       _final_state)

GLOBAL = "Global"
NOT_GLOBAL = "NotGlobal"
INCONCLUSIVE = "Inconclusive"

_NEWTON_ITERATIONS = 50
_NEWTON_TOL = 1e-12
_ROOT_MERGE_DISTANCE = 1e-7
# A Newton step below _DOUBLE_STEP that is within _DOUBLE_DRIFT of half the
# lane's last step is doubled.
_DOUBLE_STEP = 0.05
_DOUBLE_DRIFT = 0.1
# a zero within _DW_TOL of the circle is a boundary zero, and it is b when
# |Im G'(b)| <= _DW_TOL and Re G'(b) <= _DW_TOL
_DW_TOL = 1e-6
# Re p is sampled at _RING_SIZE points on each ring; the rings with
# rho < 1 must all be clean for a Global verdict, the circle may be void.
_RING_RADII = (0.5, 0.9, 0.99, 0.999, 1.0)
_RING_SIZE = 1024
# the rings whose winding number may locate an interior b, innermost first;
# a pole of F on the circle spoils the trapezoid rule on the 0.999 ring
_WINDING_RINGS = (1, 2, 3)
_WINDING_TOL = 1e-6
# an interior b is the moment of its ring polished by one Newton step no
# longer than _POLISH_STEP; a longer step hands the seed to _newton_roots
_POLISH_STEP = 1e-9
# boundary b is sought from the least minima of |G| on the 0.999 ring
_BOUNDARY_SEEDS = 4
_BOUNDARY_SEED_RING = 3
_ESCAPE_SEEDS = 8
# the radius of the last hunt seed, on the ray of the least Re p sample
_WORST_SEED_RADIUS = 1.0 - 1e-4
# Re p passes when its least ring sample is at least -TOL_HERGLOTZ.
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
    """The verdict; certificate is the least Re p over the clean rings
    and its point (None when no ring is clean). b is the Denjoy-Wolff
    point of a Global verdict, and min_re_F its least finite Re F sample
    (None when there is none): evidence, like certificate."""

    status: str
    b: Optional[complex] = None
    min_re_F: Optional[float] = None
    witness: Optional[EscapeWitness] = None
    certificate: Optional[HerglotzReport] = None


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
    return _herglotz_on(F, _grid(Domain.unit_disc(), density))


def _herglotz_on(F: HoloExpr, grid) -> HerglotzReport:
    """The least Re F over the grid; the error of the first grid point
    where F raises propagates."""
    re, errors = _re_sheet(F, grid)
    if errors:
        raise errors[min(errors)]
    return _lowest(re, grid)


def _re_sheet(F: HoloExpr, grid):
    """Re F on every grid point, in one evaluation of the grid, and the
    error of each grid point where F raises (its sample is NaN), keyed by
    grid index."""
    with np.errstate(all="ignore"):
        v, errors = _eval_lanes(F.eval, np.array(grid, dtype=complex))
    return v.real, errors


def _lowest(re: np.ndarray, grid) -> HerglotzReport:
    """The least sample and its first grid point; NaN samples never count."""
    i = int(np.argmin(np.where(np.isnan(re), math.inf, re)))
    low = float(re[i])
    if not low < math.inf:  # no sample below inf
        return HerglotzReport(math.inf, grid[0])
    return HerglotzReport(low, grid[i])


def _newton_roots(G: HoloExpr, Gp: HoloExpr, seeds, tol_b: float):
    """Converged Newton roots of G inside |z| <= 1 + tol_b, deduplicated
    and ordered by (|b|, arg b in [0, 2 pi)).

    The seeds run as lanes of one array: each iteration evaluates G and G'
    once on the lanes still running. A lane leaves the run when its
    evaluation raises (a failure), when |G'| < 1e-300, when z leaves
    |z| <= 10 or turns non-finite, or when its step falls below
    _NEWTON_TOL or G is exactly 0 (converged). ToleranceError when every
    seed fails.

    A boundary b is a double root, since (b - z)(1 - conj(b) z) =
    conj(b)(z - b)^2 when |b| = 1, and there Newton converges only
    linearly, each step half the last. A lane whose step is below
    _DOUBLE_STEP and within _DOUBLE_DRIFT of half its last step takes
    twice the step, which converges quadratically at a double root (Traub,
    Iterative Methods for the Solution of Equations, 1964); the bound on
    the step keeps seeds far from a pair of simple roots, where steps also
    halve, from jumping to the middle of the pair (CHANGES.md, PR 10).
    """
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
            # a lane on an exact zero has converged, even where G' = 0
            exact = g == 0
            step = np.where(exact, 0.0, g / gp)
            # near a double root each step is half the last; twice the
            # step converges quadratically there (Traub 1964)
            double = ((np.abs(step) < _DOUBLE_STEP)
                      & (np.abs(step / last - 0.5) < _DOUBLE_DRIFT))
            last = step
            step = np.where(double, 2.0 * step, step)
            z = z - step
            running = (exact | (np.abs(gp) >= 1e-300)) & (np.abs(z) <= 10.0)
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


@functools.cache
def _ring_points() -> np.ndarray:
    """The ring points, row k on |z| = _RING_RADII[k], read-only."""
    unit = np.exp(2j * np.pi * np.arange(_RING_SIZE) / _RING_SIZE)
    rings = np.outer(_RING_RADII, unit)
    rings.flags.writeable = False
    return rings


def _ring_test(G: HoloExpr):
    """G on the rings, and Re p there with each void ring a row of NaN.

    G is evaluated once on all ring points; when that raises, ring by
    ring, and a ring that raises is void. A ring with a non-finite sample
    of p is void, and so is every ring when G(0) raises.
    """
    rings = _ring_points()
    with np.errstate(all="ignore"):
        try:
            g = np.broadcast_to(G.eval(rings.ravel()), rings.size)
            g = g.reshape(rings.shape)
        except _EVAL_ERRORS:
            g = np.full(rings.shape, math.nan, complex)
            for k, ring in enumerate(rings):
                try:
                    g[k] = G.eval(ring)
                except _EVAL_ERRORS:
                    pass
        try:
            g0 = complex(G.eval(0j))
        except _EVAL_ERRORS:
            g0 = complex(math.nan)
        p = (g0 - g0.conjugate() * rings * rings - g) / rings
    re = p.real
    re[~np.isfinite(p).all(axis=1)] = math.nan
    return g, re


def _interior_b(G: HoloExpr, Gp: HoloExpr, g: np.ndarray,
                tol_b: float) -> list:
    """[b] for the zero of G inside the first ring of _WINDING_RINGS whose
    winding number mean(z G'/G) is within _WINDING_TOL of 1, else [].

    b starts at the moment mean(z^2 G'/G) of that ring and takes one
    scalar Newton step when that step is at most _POLISH_STEP; otherwise
    _newton_roots runs from it.
    """
    rings = _ring_points()
    for k in _WINDING_RINGS:
        with np.errstate(all="ignore"):
            try:
                q = rings[k] * Gp.eval(rings[k]) / g[k]
            except _EVAL_ERRORS:
                continue
            if not abs(q.mean() - 1.0) <= _WINDING_TOL:
                continue
            b0 = complex((rings[k] * q).mean())
        try:
            step = complex(G.eval(b0)) / complex(Gp.eval(b0))
        except _EVAL_ERRORS:
            step = complex(math.inf)
        if abs(step) <= _POLISH_STEP:
            return [b0 - step]
        return _newton_roots(G, Gp, [b0], tol_b)
    return []


def _boundary_seeds(g: np.ndarray) -> np.ndarray:
    """The _BOUNDARY_SEEDS least local minima of |G| on the 0.999 ring, in
    order of |G|, from the ring samples g of _ring_test; none when that
    ring is void. Seeds on the circle itself could sit at a double root,
    where G' = 0 stops the lane."""
    m = np.abs(g[_BOUNDARY_SEED_RING])
    low = np.flatnonzero((m <= np.roll(m, 1)) & (m <= np.roll(m, -1)))
    low = low[np.argsort(m[low], kind="stable")][:_BOUNDARY_SEEDS]
    return _ring_points()[_BOUNDARY_SEED_RING][low]


def _is_denjoy_wolff(Gp: HoloExpr, b: complex) -> bool:
    """Whether the zero b of G, with Gp = G', is its Denjoy-Wolff point:
    any zero inside |z| < 1 - _DW_TOL, where G'(b) need not be real (-i z
    has G'(0) = -i), and a boundary zero when G'(b) is real and <= 0,
    within _DW_TOL."""
    if abs(b) < 1.0 - _DW_TOL:
        return True
    try:
        d = complex(Gp.eval(b))
    except _EVAL_ERRORS:
        return False
    return abs(d.imag) <= _DW_TOL and d.real <= _DW_TOL


def bp_classify(G: HoloExpr, density: int = 2, tol_b: float = 1e-8,
                escape_t_max: float = 20.0,
                escape_tol: float = 1e-9) -> BPVerdict:
    """Decide whether G generates a global semiflow of the unit disc.

    Verdict: Re p (the module docstring) is sampled by one evaluation of G
    on the _RING_SIZE points of each ring |z| = rho of _RING_RADII. A ring
    is void when G raises on it or a sample of p is not finite, and every
    ring is when G(0) raises. Global needs every ring with rho < 1 clean
    (the circle may be void, as where G raises at a boundary point) and
    the least Re p sample of the clean rings at least -TOL_HERGLOTZ:
    sampled evidence, not a proof. That sample and its point are the
    certificate of every verdict (None with no clean ring).

    b: after a Global verdict, the first zero that _is_denjoy_wolff
    accepts (1 - z^2 keeps 1, G'(1) = -2, and refuses -1, G'(-1) = 2)
    among an interior zero by the winding of a ring (_interior_b), else
    the Newton roots seeded on the 0.999 ring, in the order of
    _newton_roots. min_re_F is the least finite Re F sample of that b
    over the grid, a raising grid point skipped: evidence only. With no
    b accepted the verdict is Inconclusive, and no escape hunt runs.

    Witness: otherwise _ESCAPE_SEEDS strided grid points run in order,
    then one seed at radius _WORST_SEED_RADIUS on the ray of the
    certificate. The first that exits through the wall moving outward
    faster than sqrt(escape_tol) at the exit point makes NotGlobal; with
    none the verdict is Inconclusive. An orbit creeping towards a boundary
    fixed point (the tanh flow of 1 - z^2 reaches 1 - |u| = DELTA_WALL
    near t = 10.7) meets the wall with a normal speed near 0 and is no
    witness. The escape horizon and tolerance are checked before any work,
    by the rule of every run (BadParameter).
    """
    _check_run(escape_tol, escape_t_max)
    g, re = _ring_test(G)
    clean = np.isfinite(re[:, 0])
    certificate = None
    if clean.any():
        low = _lowest(re.ravel(), _ring_points().ravel())
        certificate = HerglotzReport(low.min_re, complex(low.argmin))
    disc = Domain.unit_disc()
    grid = _grid(disc, density)
    if clean[:-1].all() and certificate.min_re >= -TOL_HERGLOTZ:
        Gp = G.derivative()
        try:
            candidates = (_interior_b(G, Gp, g, tol_b)
                          or _newton_roots(G, Gp, _boundary_seeds(g), tol_b))
        except ToleranceError:  # Newton failed from every seed
            candidates = []
        for b in candidates:
            if _is_denjoy_wolff(Gp, b):
                re_F, _ = _re_sheet(Ratio(G, _bp_factor(b)), grid)
                re_F = re_F[np.isfinite(re_F)]  # a raising point is NaN
                min_re_F = float(re_F.min()) if re_F.size else None
                return BPVerdict(GLOBAL, b=b, min_re_F=min_re_F,
                                 certificate=certificate)
        return BPVerdict(INCONCLUSIVE, certificate=certificate)
    n = len(grid)
    hunt = [grid[round(i * (n - 1) / (_ESCAPE_SEEDS - 1))]
            for i in range(_ESCAPE_SEEDS)]
    if certificate is not None:
        z = certificate.argmin
        hunt.append(_WORST_SEED_RADIUS * z / abs(z))
    for z0 in hunt:
        try:
            kind, t, p = _final_state(G, disc, z0, escape_t_max, escape_tol)
            if kind == _COMPLETED:
                continue
            outward = (p.conjugate() * G.eval(p)).real / abs(p)
        except _EVAL_ERRORS:
            continue
        if outward > math.sqrt(escape_tol):
            return BPVerdict(NOT_GLOBAL, witness=EscapeWitness(z0, float(t)),
                             certificate=certificate)
    return BPVerdict(INCONCLUSIVE, certificate=certificate)
