"""Flow integration for u' = G(u) on a planar domain.

One driver, _drive, does all the integration, with an embedded
Dormand-Prince 4(5) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
1980) in complex arithmetic. It steps one complex state, an array of lanes
that share one step sequence, or an array of independent lanes with their
own times and step sizes; its step-control rules are written once, for
Python scalars and elementwise for arrays. The step reads one tableau in
three forms, picked per run: _dp_step writes the sums out for one complex
state, and _dp_step_shared and _dp_step_lanes take them as matrix
products for shared and for independent lanes. An admission rule judges
each step endpoint: _wall_rule (the domain with a wall DELTA_WALL inside
its boundary) for trajectories, _inside_unit_disc for flow coefficients.
A step size that underflows near the boundary ends a run as an escape,
which is a solver-tolerance certificate, never a proof.

Every entry checks its inputs before it integrates (_check_run; at time 0
only _check_tol, and the start point of flow_point):

  * integrate records one trajectory, with cubic Hermite dense output
    (_merge_dense), and with exit_from also the escape time on a second
    domain from the same run; backward_integrate runs time backwards.
  * escape_time, flow_point and semigroup_residual run integrate's rule
    and record nothing (_final_state).
  * integrate_seeds runs many seeds as independent lanes (phase
    portraits), keeping the dense samples of the steps that bend from
    their chord, and hands back their points merged in one array
    (SeedOrbits).
  * _flow_series_path gives the flow map of the unit disc on a sample
    circle, as lanes of one run; flow_series takes its Taylor
    coefficients by one FFT (series.coeffs_from_samples).
  * trajectory_to_csv writes a trajectory as CSV text.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import _submodule
from .errors import (
    BadParameter,
    DomainError,
    EscapeError,
    HoloflowError,
    StiffnessError,
)
from .expr import HoloExpr, Neg, compiled
from .geometry import Domain
from .jsonio import csv_text

DELTA_WALL = 1e-9  # wall rejection distance
ESCAPE_DISTANCE = 1e-6  # escape, not stiffness, at a step underflow
H_MIN = 1e-12  # least step size
R_MAX = 1e8  # escape to infinity on an unbounded domain
# longest run or flow-series time (dense output keeps 16 points per unit
# time per lane)
MAX_HORIZON = 100.0

_MAX_STEPS = 5_000_000

# The Dormand-Prince tableau by rows: the stage weights a2 .. a6, the
# fifth-order weights b and the error weights e = b5 - b4 (e7 for the FSAL
# stage). The zero weights stay in the sums: they fix the signs of zero
# components.
_ROWS = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
     -1 / 40),
)
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_B1, _B2, _B3, _B4, _B5, _B6),
 (_E1, _E2, _E3, _E4, _E5, _E6, _E7)) = _ROWS
# The same rows as an 8 x 7 matrix: row i < 6 holds the weights of stage
# i + 1 in its first i entries (row 0 is empty), row 6 is b and row 7 e.
_TABLEAU = np.array([(0.0,) * 7] + [r + (0.0,) * (7 - len(r)) for r in _ROWS])
# its rows as _dp_step_lanes reads them: the weights of stages 2 .. 6, then
# b and e
_STAGES = tuple(_TABLEAU[i, :i] for i in range(1, 6))
_B, _E = _TABLEAU[6, :6], _TABLEAU[7]
# independent lanes are stepped in blocks of this many (zero lanes pad K):
# 16 float columns, two AVX-512 registers
_LANE_BLOCK = 8

COMPLETED = "Completed"
ESCAPED = "Escaped"


@dataclass(frozen=True)
class Status:
    kind: str
    horizon: Optional[float] = None
    t_escape: Optional[float] = None
    exit_point: Optional[complex] = None
    at_infinity: bool = False

    @classmethod
    def completed(cls, horizon: float) -> "Status":
        return cls(COMPLETED, horizon=horizon)

    @classmethod
    def escaped(cls, t_escape, exit_point, at_infinity=False) -> "Status":
        return cls(ESCAPED, t_escape=t_escape, exit_point=exit_point,
                   at_infinity=at_infinity)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    points: np.ndarray
    status: Status
    # the escape time on integrate's exit_from domain (None: no escape
    # before the horizon, or no exit_from)
    exit_time: Optional[float] = None

    def __post_init__(self):
        for name, dtype in (("times", float), ("points", complex)):
            a = np.array(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def final_point(self) -> complex:
        return complex(self.points[-1])

    @property
    def escaped(self) -> bool:
        return self.status.kind == ESCAPED


@dataclass(frozen=True, eq=False)
class SeedOrbits:
    """The points of integrate_seeds' run, kept merged.

    points holds every drawable seed's points, seed after seed, each in
    time order; counts gives each seed's number of points, 0 for a seed
    whose outcome is a HoloflowError; outcomes gives each seed's Status or
    error. As a sequence, entry i is outcomes[i] for an error, else
    (points of seed i, its Status): a view of points, not a copy.
    """

    points: np.ndarray
    counts: np.ndarray
    outcomes: list

    def __len__(self):
        return len(self.outcomes)

    def __getitem__(self, i):
        outcome = self.outcomes[i]
        if isinstance(outcome, HoloflowError):
            return outcome
        end = self._ends[i]
        return self.points[end - self.counts[i]:end], outcome

    @cached_property
    def _ends(self) -> np.ndarray:
        return np.cumsum(self.counts)


@dataclass(frozen=True)
class FlowSeries:
    """Taylor coefficients of z -> flow(t, z) about 0."""

    t: float
    coeffs: SeriesFn


def _dp_step(rhs, y, h, k1):
    """One embedded step of a Python complex y; returns (y5,
    error_estimate, k7). The sums are written out in the order of the
    tableau rows, one product per weight: on a Python complex that is the
    fastest form.
    """
    k2 = rhs(y + h * (0 + _A21 * k1))
    k3 = rhs(y + h * (0 + _A31 * k1 + _A32 * k2))
    k4 = rhs(y + h * (0 + _A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = rhs(y + h * (0 + _A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = rhs(y + h * (0 + _A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                      + _A65 * k5))
    y5 = (y + h * _B1 * k1 + h * _B2 * k2 + h * _B3 * k3 + h * _B4 * k4
          + h * _B5 * k5 + h * _B6 * k6)
    k7 = rhs(y5)
    err = (0 + _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5
           + _E6 * k6 + _E7 * k7)
    return y5, h * err, k7


def _dp_step_shared(rhs, y, h, k1):
    """_dp_step for a contiguous complex array of lanes with one scalar h.

    The stages are the rows of K. Viewed as float64, a complex row is its
    (re, im) pairs, and the tableau is real, so each stage sum is one
    matrix-vector product y + (h T[i, :i]).dot(K[:i]) on the float view,
    and the error is (h T[7]).dot(K): a few array operations a stage
    instead of one or more per weight (CHANGES.md, PR 15). ndarray.dot
    gives the bits of @ with less dispatch per call, as in _dp_step_lanes.
    The matrix form sums the products in another order, so a step differs
    from _dp_step by a few ulps of the magnitudes summed. err and k7 are
    arrays also where rhs gives one scalar.
    """
    K = np.empty((7, len(y)), complex)
    K[0] = k1
    Kf, yf, T = K.view(float), y.view(float), h * _TABLEAU
    for i in range(1, 6):
        K[i] = rhs((yf + T[i, :i].dot(Kf[:i])).view(complex))
    y5 = (yf + T[6, :6].dot(Kf[:6])).view(complex)
    K[6] = rhs(y5)
    return y5, T[7].dot(Kf).view(complex), K[6]


def _dp_step_lanes(rhs, y, h, k1):
    """_dp_step_shared for independent lanes, with one h per lane.

    Each lane's h scales its row sums: a stage is y + h (T[i, :i] @ K[:i])
    and the error h (T[7] @ K). K's lane axis is padded with zero lanes to
    a multiple of _LANE_BLOCK, so that every lane is a column of the
    matrix kernel's full blocks, whose sums do not depend on the column's
    place (a ragged tail of columns rounds otherwise): a lane's bits do not
    depend on the other lanes (CHANGES.md, PR 18). It stays apart from
    _dp_step_shared, since one function for both, branching on the form of
    h, made flow_series slower. The products go through ndarray.dot, which
    gives the bits of @ with less dispatch per call (CHANGES.md, PR 20).
    """
    n = len(y)
    K = np.zeros((7, -(-n // _LANE_BLOCK) * _LANE_BLOCK), complex)
    K[0, :n] = k1
    Kf, yf, hf, m = K.view(float), y.view(float), h.repeat(2), 2 * n
    for i, row in enumerate(_STAGES, 1):
        K[i, :n] = rhs((yf + hf * row.dot(Kf[:i])[:m]).view(complex))
    y5 = (yf + hf * _B.dot(Kf[:6])[:m]).view(complex)
    K[6, :n] = rhs(y5)
    return y5, (hf * _E.dot(Kf)[:m]).view(complex), K[6, :n]


def _hermite(theta, y0, f0, y1, f1, h):
    # Cubic Hermite on one accepted step, theta in [0, 1]. Each product is
    # real x complex, formed as (x + 0j) * w by numpy and by Python alike,
    # so an array pass writes the bytes of one scalar call per sample.
    a = theta - 1.0
    return ((1 + 2 * theta) * a * a * y0 + theta * theta * (3 - 2 * theta) * y1
            + h * theta * a * (a * f0 + theta * f1))


def _check_tol(tol: float):
    if not 1e-13 <= tol <= 1e-3:
        raise BadParameter("tol must lie in [1e-13, 1e-3]")


def _check_run(tol: float, horizon: float):
    _check_tol(tol)
    if not 0 < horizon <= MAX_HORIZON:
        raise BadParameter("time horizon must lie in (0, %g]" % MAX_HORIZON)


def _outside(z0) -> DomainError:
    return DomainError("initial point %r outside the domain" % (z0,))


def _check_start(domain: Domain, z0: complex):
    if not domain.contains(z0):
        raise _outside(z0)


# Verdicts of an admission rule on the endpoint of a proposed step.
_ACCEPT = 0  # go on to the error test
_REJECT = 1  # halve the step
_STOP = 2    # end the run at the endpoint

# How a run, or one independent lane of it, ended.
_COMPLETED, _ESCAPED, _STOPPED, _FAILED = range(4)

# Errors of a symbol evaluation that reject a step (or, on independent
# lanes, turn a lane's value into NaN).
_EVAL_ERRORS = (HoloflowError, OverflowError, ZeroDivisionError)

# Step control of one run (Python scalars, also when an array of lanes
# shares one step) and of independent lanes (one array entry per lane).
# count(m) is true when m holds anywhere (on lanes: the count of lanes,
# which numpy takes in a third of the time of ndarray.any).
_ONE = SimpleNamespace(where=lambda c, a, b: a if c else b, minimum=min,
                       maximum=max, count=bool)
_LANES = SimpleNamespace(where=np.where, minimum=np.fmin,
                         maximum=np.fmax, count=np.count_nonzero)


def _error_ratio(u, err, tol: float, per_lane: bool = False):
    """tol * (1 + |u|) / |err|; the step passes at >= 1.

    An exact zero error gives inf. For lanes that share one step it is the
    least over lanes; for independent lanes it is taken lane by lane.
    """
    if per_lane:
        return tol * (1.0 + abs(u)) / abs(err)
    if isinstance(u, np.ndarray):
        m = float((np.abs(err) / (1.0 + np.abs(u))).max())
        return tol / m if m else math.inf
    err_mag = abs(err)
    return tol * (1.0 + abs(u)) / err_mag if err_mag else math.inf


def _drive(rhs, u, stops, tol, admit, distance, accepted=None,
           lanes=False, start=None):
    """Integrate from time 0 through the positive, nondecreasing stop
    times, landing exactly on each.

    rhs evaluates the symbol by its flat form (expr.compiled) in every
    run, within _eval_lanes on independent lanes: the tree walk's values
    and errors bit for bit, at a fraction of its cost a call. u is a
    complex number, an array of lanes that share one step, or, with
    lanes=True, an array of independent lanes: each has its own time and
    step size, and leaves the run as soon as it ends (independent lanes
    take one stop time). The lanes start together and every step steps
    every lane still running, so they share one step count. admit(y)
    judges each step endpoint with _ACCEPT, _REJECT or _STOP (one verdict
    per independent lane) and returns it with the endpoint's gap to the
    wall (its signed distance minus DELTA_WALL), or with None under a rule
    without a wall; distance(u) decides escape against stiffness
    at step underflow; accepted(ids, t, h, u, k, t_next, y, k_y) sees every
    accepted step, with slopes k and k_y (on independent lanes: arrays of
    the lanes that accepted it, ids giving their positions in the initial
    u). The hook may keep those arrays: _drive rebinds its state and never
    writes in place to an array it has passed to accepted. A step passes
    the error test of _error_ratio; a refused endpoint, or a failed
    evaluation, halves the step, except at a wall.

    Under a rule with a wall, the gaps drive the wall endgame, which
    locates the wall crossing as an event (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. II.6). The gap is interpolated linearly in time
    through its last two accurate values: the state and a step endpoint,
    or two endpoints refused at the wall. A step refused at the wall is
    retried with the length that reaches the predicted crossing, less
    H_MIN / 2, in place of half its own length; from then on, while the
    crossing stays ahead, the step after an accepted one is no longer than
    that. A predicted crossing less than H_MIN ahead, or a state whose gap
    is within rounding of 0 (2^-52 (1 + |u|)), is a step underflow; the
    latter ends orbits too slow to cross the wall in floating point, such
    as the tanh flow of 1 - z^2 near t = 10.7. The secant converges
    superlinearly where halving converges linearly (CHANGES.md, PR 10).
    Where it has no zero within a refused step, or none ahead of an
    accepted one, the step is halved as usual.

    Returns (states, ends): the state at every stop time reached, and how
    each lane ended as (kind, time, point, reason). The kind is _COMPLETED,
    _STOPPED (the admission rule said _STOP; at that endpoint), _ESCAPED
    (step underflow within ESCAPE_DISTANCE of the boundary; at the last
    accepted state) or _FAILED (step underflow farther away, or more than
    _MAX_STEPS steps). A run that is not split into independent lanes has
    one end, and raises StiffnessError instead of failing.

    A run starts at time 0 with a step of min(1e-3, stops[-1]). start =
    (t, h, k1) instead starts the run at time t with a step of h (cut to
    the stop time) and the slope k1 = rhs(u), or rhs(u) evaluated anew
    where k1 is None: flow_series starts its lanes so with a computed
    step (_start_step), integrate_seeds with the slopes it took at the
    seeds, and integrate resumes one complex state so for its exit times.
    The run starts outside the wall endgame, with the gap of u, as those
    exit times require.
    """
    xp = _LANES if lanes else _ONE
    step = (_dp_step_lanes if lanes else
            _dp_step_shared if isinstance(u, np.ndarray) else _dp_step)
    where, minimum, maximum, count = xp.where, xp.minimum, xp.maximum, xp.count
    if lanes:
        ids, t = np.arange(len(u)), np.zeros(len(u))
        aim, back = np.zeros(len(u), bool), np.zeros(len(u))
    else:
        ids, t, aim, back = 0, 0.0, False, 0.0
    steps = 0
    ends = [None] * (len(u) if lanes else 1)
    t, h, k1 = start or (t, t + min(1e-3, stops[-1]), None)
    # the last point of the wall secant, back ahead of the current time,
    # and its gap: the current state (back = 0) or an endpoint refused at
    # the wall; aim marks a run in the wall endgame
    _, gap = admit(u)
    walled = gap is not None

    def end(mask, kind, t, u, why=""):
        if not lanes:
            ends[0] = (kind, t, u, why and why.format(t))
            return
        for i, ti, ui in zip(ids[mask].tolist(), t[mask].tolist(),
                             u[mask].tolist()):
            ends[i] = (kind, ti, ui, why and why.format(ti))

    states = []
    if k1 is None:
        k1 = rhs(u)  # a pole at the starting point propagates to the caller
    for stop in stops:
        # an independent lane leaves the run at the stop time, so every
        # lane left is short of it
        while t.size if lanes else t < stop:
            steps += 1
            left = stop - t
            h = minimum(h, left)
            try:
                y5, err, k7 = step(rhs, u, h, k1)
                verdict, gap_y = admit(y5)
                # an endpoint that ends the run needs no error test (on
                # independent lanes every lane takes it)
                ratio = (_error_ratio(u, err, tol, lanes)
                         if lanes or verdict != _STOP else math.nan)
            except _EVAL_ERRORS:
                verdict, ratio, gap_y = _REJECT, math.nan, math.nan
            accept = verdict == _ACCEPT
            passed = accept & (ratio >= 1.0)
            # every lane passed, the common case: no masks
            full = count(passed) == passed.size if lanes else passed
            stopped = halt = False
            if full:
                t_next = where(h == left, stop, t + h)
                if accepted is not None:
                    accepted(ids, t, h, u, k1, t_next, y5, k7)
                t, u, k1 = t_next, y5, k7
                h_next = h * minimum(5.0, maximum(0.2, 0.9 * ratio ** 0.2))
            else:
                # a refused endpoint halves the step
                scale = where(accept, 0.9 * ratio ** 0.2, 0.5)
                h_next = h * where(passed, minimum(5.0, maximum(0.2, scale)),
                                   minimum(0.7, maximum(0.1, scale)))
                stopped = verdict == _STOP
                halt = count(stopped)
                if halt:
                    end(stopped, _STOPPED, t + h, y5)
                if lanes and count(passed):
                    t_next = where(h == left, stop, t + h)
                    if accepted is not None:
                        i = passed.nonzero()[0]
                        accepted(*(x[i] for x in (ids, t, h, u, k1, t_next,
                                                  y5, k7)))
                    t, u, k1 = (where(passed, a, b) for a, b in (
                        (t_next, t), (y5, u), (k7, k1)))
            # the wall endgame (see above), for lanes in it or refused at
            # the wall
            endgame = walled and count(
                aim if full else aim | (verdict == _REJECT))
            if endgame:
                # From the new state, the step endpoint is ahead by `ahead`
                # and the secant's zero by `reach`; a new state within
                # rounding of the wall has reached it.
                ahead = where(passed, 0.0, h)
                fall = gap - gap_y
                reach = ahead + gap_y * (h - back) / where(
                    fall != 0.0, fall, math.nan)
                reach = where(passed & (gap_y <= 2.0 ** -52 * (1.0 + abs(u))),
                              0.0, reach)
                sure = ((ratio >= 1.0) & (reach >= 0.0)
                        & (reach < where(passed, math.inf, ahead)))
                at_wall = sure & (verdict == _REJECT)
                aim = where(passed, aim & sure, aim | at_wall)
                # half of H_MIN short: a good prediction lands inside and
                # leaves less than H_MIN to go
                aimed = reach - 0.5 * H_MIN
                h_next = where(at_wall, aimed, where(
                    aim & passed, minimum(h_next, aimed), h_next))
                back = where(at_wall, h, where(passed, 0.0, back))
                gap = where(passed | at_wall, gap_y, gap)
            elif walled:
                gap = gap_y if full else where(passed, gap_y, gap)
            h = h_next
            # rare: a stop, an underflow (an accepted step underflows only
            # in the wall endgame), the step limit, or (independent lanes)
            # a lane that reached the stop time
            if (halt or steps >= _MAX_STEPS
                    or (endgame or not full) and count(h < H_MIN)
                    or lanes and count(t >= stop)):
                tiny = where(stopped, False, where(
                    passed, aim & (t < stop), True)) & (h < H_MIN)
                escaped = tiny & (distance(u) < ESCAPE_DISTANCE)
                ended = stopped | tiny
                over = where(ended, False,
                             (steps >= _MAX_STEPS) & (t < stops[-1]))
                for mask, kind, why in (
                        (escaped, _ESCAPED, ""),
                        (where(escaped, False, tiny), _FAILED,
                         "step size underflow at t={!r} away from the "
                         "boundary"),
                        (over, _FAILED, "step limit exceeded"),
                        (lanes and t >= stop, _COMPLETED, "")):
                    if count(mask):
                        end(mask, kind, t, u, why)
                        ended = ended | mask
                if not lanes:
                    if ended:
                        if ends[0][0] == _FAILED:
                            raise StiffnessError(ends[0][3])
                        return states, ends
                else:
                    keep = ~ended
                    ids, t, h, u, k1, aim, back, gap = (
                        x[keep] for x in (ids, t, h, u, k1, aim, back, gap))
        states.append(u)
    if not lanes:
        ends[0] = (_COMPLETED, t, u, "")
    return states, ends


def _wall_rule(domain: Domain, xp):
    """Admission of trajectories, on one point or on independent lanes.

    An endpoint is refused when it is non-finite, outside the domain, or
    closer than DELTA_WALL to the boundary; on an unbounded domain an
    endpoint beyond R_MAX ends the run as an escape to infinity. On a disc
    the gap is signed_distance's, written out, and the verdict _REJECT -
    (gap >= 0) (_ACCEPT is 0): a gap of -inf or NaN refuses a non-finite
    endpoint; |y| of a huge Python complex raises OverflowError, a refusal.
    """
    where, distance = xp.where, domain.signed_distance
    center, radius = domain.center, domain.radius

    def admit_bounded(y):
        gap = radius - abs(y - center) - DELTA_WALL
        return _REJECT - (gap >= 0.0), gap

    def admit(y):
        r = abs(y)
        gap = distance(y) - DELTA_WALL
        v = where(r > R_MAX, _STOP, where(gap >= 0.0, _ACCEPT, _REJECT))
        return where(r < math.inf, v, _REJECT), gap

    return admit_bounded if domain.bounded else admit


def _dense_times(horizon: float) -> np.ndarray:
    """Interior times of the uniform dense output of a trajectory."""
    n_dense = max(64, math.ceil(16 * horizon))
    return horizon * np.arange(1, n_dense) / n_dense


def _dense_samples(dense: np.ndarray, t, h, uky):
    """(step, time, cubic Hermite value) arrays of the dense times in
    (t, t + h) of accepted steps, in order; uky holds u, k1, y, k_y."""
    lo = np.searchsorted(dense, t, "right")
    n = np.maximum(np.searchsorted(dense, t + h, "left") - lo, 0)
    rows = np.repeat(np.arange(len(n)), n)
    td = dense[np.arange(len(rows)) + np.repeat(lo - np.cumsum(n) + n, n)]
    hr = h[rows]
    return rows, td, _hermite((td - t[rows]) / hr, *uky[:, rows], hr)


def _merge_dense(dense: np.ndarray, held: list, times, points):
    """times and points with the dense samples of the held steps merged in;
    held lists t, h, u, k1, y, k_y of accepted steps in time order."""
    # one complex array holds the steps; t and h are exact as reals
    S = np.array(held, complex).reshape(-1, 6)
    _, td, pd = _dense_samples(dense, S[:, 0].real, S[:, 1].real, S[:, 2:].T)
    # two sorted runs of distinct times: a stable sort merges them
    times = np.concatenate((times, td))
    order = np.argsort(times, kind="stable")
    return times[order], np.concatenate((points, pd))[order]


def _status(kind: int, completed: Status, t: float, u: complex) -> Status:
    return completed if kind == _COMPLETED else Status.escaped(
        t, u, at_infinity=kind == _STOPPED)


def integrate(G: HoloExpr, domain: Domain, z0: complex, horizon: float,
              tol: float, exit_from: Optional[Domain] = None) -> Trajectory:
    """Integrate u' = G(u) from z0 until the horizon or a boundary escape.

    The trajectory holds z0, the step points and the cubic Hermite dense
    output at the times of _dense_times, in time order; its last point is
    an integration endpoint. Each dense time is sampled in the accepted
    step whose open interval holds it (none on a step time): the record
    hook keeps that step and finds the next dense time by bisect_right.
    The run steps a Python complex, since a one-lane array costs over ten
    times more per step, and evaluates G by its flat form (expr.compiled),
    kept on G, with the tree walk's bits: a Dormand-Prince step of the
    radius-2 counterexample takes about 4.7 us, against 7.7 us by the tree
    walk (best of 20, 2-CPU Xeon host).

    With exit_from, the trajectory's exit_time is escape_time(G, exit_from,
    z0, horizon, tol), bit for bit. Both wall rules judge every step
    endpoint, and the run keeps its last accepted step until the first
    endpoint that either rule refuses. Up to there a run on exit_from
    would take the same steps: an accepted step passes both rules, and a
    step refused by the error test, or by an evaluation error, changes no
    wall endgame state. After the run, _drive resumes on exit_from from
    the start of that kept step (its time, state, slope and step size),
    and the steps it takes from there are escape_time's: for the radius-2
    counterexample a few steps in place of a second run (CHANGES.md,
    PR 17).
    """
    _check_run(tol, horizon)  # before the dense times are computed
    _check_start(domain, z0)
    if exit_from is not None:
        _check_start(exit_from, z0)
    dense = _dense_times(horizon)
    ts, ys, held = [0.0], [complex(z0)], []  # held: steps ending past nxt
    marks = dense.tolist() + [math.inf]  # the dense times, then a sentinel
    nxt = marks[0]  # no dense time lies between the time and nxt
    rule = _wall_rule(domain, _ONE)
    exit_rule = exit_from and _wall_rule(exit_from, _ONE)
    # where the run on exit_from resumes, as (u, (t, h, k1)) for _drive:
    # the last accepted step before the first endpoint refused by either
    # rule, until which the two runs step alike (z0 and None before any)
    resume = [complex(z0), None]

    def admit(y):
        nonlocal exit_rule
        verdict = rule(y)
        if exit_rule and (verdict[0] != _ACCEPT or exit_rule(y)[0] != _ACCEPT):
            exit_rule = None
        return verdict

    def record(_ids, t, h, u, k1, t_next, y, k_y):
        nonlocal nxt
        if exit_rule:
            resume[:] = u, (t, h, k1)
        if t + h > nxt:
            held.extend((t, h, u, k1, y, k_y))
            nxt = marks[bisect_right(marks, t_next)]
        if t_next != t:  # else the step adds no point
            ts.append(t_next)
            ys.append(y)

    _, [(kind, t, u, _)] = _drive(compiled(G), complex(z0), [horizon], tol,
                                  admit if exit_rule else rule,
                                  domain.signed_distance, record)
    exit_time = None
    if exit_from is not None:
        end, t_exit, _ = _final_state(G, exit_from, resume[0], horizon, tol,
                                      start=resume[1])
        exit_time = None if end == _COMPLETED else float(t_exit)
    times, points = np.array(ts, float), np.array(ys, complex)
    del ts[:], ys[:]
    if held:
        times, points = _merge_dense(dense, held, times, points)
    if kind == _STOPPED:
        times, points = np.append(times, t), np.append(points, u)
    return Trajectory(times, points,
                      _status(kind, Status.completed(horizon), t, u),
                      exit_time)


def _eval_lanes(f, z: np.ndarray):
    """f on every lane, and the error of each lane whose scalar evaluation
    raises (its value is NaN), keyed by lane."""
    try:
        v = f(z)
        return (v if isinstance(v, np.ndarray)
                else np.full(len(z), v, complex)), {}
    except _EVAL_ERRORS:
        pass
    out = np.empty(len(z), complex)
    errors = {}
    for i, x in enumerate(z.tolist()):
        try:
            out[i] = f(x)
        except _EVAL_ERRORS as exc:
            out[i] = math.nan
            errors[i] = exc
    return out, errors


_SAMPLE_BLOCK = 4096  # lane samples a pass, bounding the temporaries
# lane-steps of accepted steps held for one sampling pass (a block holds
# at least one step). A lane-step holds 96 bytes, so a block and its
# joined copy take about 200 KB, which bounds the peak memory of a large
# portrait (CHANGES.md, PR 20).
_STEP_BLOCK = _SAMPLE_BLOCK // 4

# max of theta (1 - theta)^2 over [0, 1], at theta = 1/3
_CHORD_BOUND = 4 / 27


def integrate_seeds(G: HoloExpr, domain: Domain, seeds, horizon: float,
                    tol: float, chord_tol: float) -> SeedOrbits:
    """The trajectory points of many seeds, integrated as independent lanes.

    One entry per seed: (points, status) with a subsequence of the points
    integrate would record (the seed, the adaptive step points and the
    uniform dense samples, in time order), or the HoloflowError that
    stopped that seed: DomainError, an evaluation error at the seed, or
    StiffnessError; one domain.contains checks all seeds. The entries are
    views of one merged array (SeedOrbits), the points of every seed that
    did not fail, seed after seed, as the run sorts them. The matrix form
    of the step rounds otherwise than integrate's, so a borderline step
    decision can move a step point: end points agree to about 1e-15 and
    escape times to about 1e-10 relative, and a lane that underflows next
    to a pole stops within H_MIN of integrate's time. An evaluation that
    raises on some lane is redone lane by lane in scalar form
    (_eval_lanes, only after the evaluation on all lanes raised), and the
    raising lanes turn NaN, so only they are refused and halved. An
    entry's bits do not depend on the other seeds (_dp_step_lanes), but
    where such a redo rounds otherwise. G is
    evaluated at the seeds once: where no seed raised, those values are
    the lanes' first slopes.
    The dense samples of a step from u to y = u + d of length h are dropped
    when its cubic Hermite curve p stays within chord_tol of the chord:
    p(theta) - (u + theta d) =
    theta (1-theta)^2 (h k1 - d) - theta^2 (1-theta) (h k_y - d), so the
    distance is at most (4/27) (|h k1 - d| + |h k_y - d|), and the samples
    go where that is below chord_tol (chord_tol = 0 keeps them all). The
    others come from _dense_samples, by integrate's Hermite formula. The
    run only holds its accepted steps; one pass over about _STEP_BLOCK
    lane-steps takes the chord test, dense samples (in passes of about
    _SAMPLE_BLOCK) and endpoints of them all, so a step of few lanes makes
    no pass of its own. Points are complex128 with a 1- or 2-byte lane
    index, and one stable sort by lane merges them; an escape to infinity
    adds its endpoint after the run, so it sorts to its lane's end, and the
    points of a lane that failed are dropped. Completed lanes share one
    Status.
    """
    _check_run(tol, horizon)
    dense = _dense_times(horizon)
    z = np.array(seeds, dtype=complex)
    f = compiled(G)
    with np.errstate(all="ignore"):
        slopes, errors = _eval_lanes(f, z)
        outside = np.flatnonzero(~domain.contains(z))
    # where a seed raised, its lane by lane redo may round otherwise than
    # rhs on the live lanes, so _drive takes their first slope anew
    raised = bool(errors)
    for i in outside.tolist():
        errors[i] = _outside(seeds[i])
    live = [i for i in range(len(seeds)) if i not in errors]
    start = None if raised else (np.zeros(len(live)),
                                 np.full(len(live), min(1e-3, horizon)),
                                 slopes[live])
    lane_type = np.min_scalar_type(max(len(live) - 1, 0))
    # (lanes, points) arrays, in the order they were recorded
    merged = [(np.arange(len(live), dtype=lane_type), z[live])]
    held, size = [], 0  # accepted steps not yet sampled, their lane-steps

    def rhs(x):
        try:
            v = f(x)
        except _EVAL_ERRORS:
            return _eval_lanes(f, x)[0]
        return v if isinstance(v, np.ndarray) else np.full(len(x), v, complex)

    def record(*step):
        nonlocal size
        held.append(step)
        size += len(step[0])
        if size >= _STEP_BLOCK:
            sample()

    def sample():
        # as in integrate, each lane-step keeps the dense samples of a step
        # that bends by chord_tol (the bound of the docstring), then its
        # endpoint; rows are lane-steps in step order
        nonlocal size
        ids, t, h, u, k1, t_next, y, k_y = (
            np.concatenate(x) if len(held) > 1 else x[0] for x in zip(*held))
        held.clear()
        size = 0
        d = y - u
        bent = (~(_CHORD_BOUND * (abs(h * k1 - d) + abs(h * k_y - d))
                  < chord_tol)).nonzero()[0]
        moved = t_next != t
        if not len(bent):
            merged.append((ids[moved].astype(lane_type), y[moved]))
            return
        # a step holds at most h / dense[0] + 1 dense times
        width = _SAMPLE_BLOCK // int(h[bent].max() / dense[0] + 2) + 1
        rows, samples = [], []
        for b in np.split(bent, range(width, len(bent), width)):
            r, _, p = _dense_samples(
                dense, t[b], h[b], np.array((u[b], k1[b], y[b], k_y[b])))
            rows.append(b[r])
            samples.append(p)
        # a row's samples fill its slots up to its endpoint's, the last
        slots = np.bincount(np.concatenate(rows), minlength=len(t)) + moved
        last = np.zeros(slots.sum(), bool)
        last[np.cumsum(slots)[moved] - 1] = True
        points = np.empty(len(last), complex)
        points[last] = y[moved]
        points[~last] = np.concatenate(samples)
        merged.append((np.repeat(ids, slots).astype(lane_type), points))

    with np.errstate(all="ignore"):  # non-finite lanes are rejected
        _, ends = _drive(rhs, z[live], [horizon], tol,
                         _wall_rule(domain, _LANES), domain.signed_distance,
                         record, lanes=True, start=start)
        if held:
            sample()
    outcomes = [errors.get(i) for i in range(len(seeds))]
    completed = Status.completed(horizon)
    failed, stopped = [], []
    for lane, (i, (kind, t, u, why)) in enumerate(zip(live, ends)):
        if kind == _FAILED:
            outcomes[i] = StiffnessError(why)
            failed.append(lane)
            continue
        if kind == _STOPPED:
            stopped.append((lane, u))
        outcomes[i] = _status(kind, completed, t, u)
    if stopped:
        # recorded last, each endpoint sorts to the end of its lane
        ids, ys = zip(*stopped)
        merged.append((np.array(ids, lane_type), np.array(ys, complex)))
    lanes, points = map(np.concatenate, zip(*merged))
    del merged[:]
    if failed:
        keep = ~np.isin(lanes, failed)
        lanes, points = lanes[keep], points[keep]
    # a stable sort by lane keeps each lane's points in time order
    points = points[np.argsort(lanes, kind="stable")]
    counts = np.zeros(len(seeds), np.intp)
    counts[live] = np.bincount(lanes, minlength=len(live))
    return SeedOrbits(points, counts, outcomes)


def backward_integrate(G: HoloExpr, domain: Domain, z0: complex,
                       horizon: float, tol: float) -> Trajectory:
    """Integrate the time-reversed flow; times are reported as negatives."""
    traj = integrate(Neg(G), domain, z0, horizon, tol)
    status = traj.status
    if status.kind == ESCAPED:
        status = Status.escaped(-status.t_escape, status.exit_point,
                                status.at_infinity)
    return Trajectory(-traj.times, traj.points, status)


def _final_state(G: HoloExpr, domain: Domain, z0: complex, horizon: float,
                 tol: float, record=None, start=None):
    """How the run of integrate ends, as (kind, time, point); record, the
    accepted-step hook of _drive, sees every accepted step, and start
    resumes the run from z0 as in _drive."""
    _check_run(tol, horizon)
    _check_start(domain, z0)
    _, [(kind, t, u, _)] = _drive(
        compiled(G), complex(z0), [horizon], tol, _wall_rule(domain, _ONE),
        domain.signed_distance, record, start=start)
    return kind, t, u


def escape_time(G: HoloExpr, domain: Domain, z0: complex, t_max: float,
                tol: float) -> Optional[float]:
    """Escape time if the flow leaves before t_max, else None.

    None means no escape was detected before t_max, not that the flow is
    global.
    """
    kind, t, _ = _final_state(G, domain, z0, t_max, tol)
    return None if kind == _COMPLETED else float(t)


def flow_point(G: HoloExpr, domain: Domain, z0: complex, t: float,
               tol: float) -> complex:
    """Value of the flow at time t; raises EscapeError if it leaves first."""
    if t == 0.0:
        _check_tol(tol)
        _check_start(domain, z0)
        return complex(z0)
    kind, t_end, u = _final_state(G, domain, z0, t, tol)
    if kind != _COMPLETED:
        raise EscapeError(
            "flow from %r escaped at t=%r before t=%r" % (z0, t_end, t))
    return u


def semigroup_residual(G: HoloExpr, domain: Domain, z0: complex, t: float,
                       s: float, tol: float) -> float:
    """| flow(t+s, z0) - flow(t, flow(s, z0)) | from three integrations."""
    for x in (t, s, t + s):  # every time before the first run
        if x != 0.0:
            _check_run(tol, x)
    direct = flow_point(G, domain, z0, t + s, tol)
    mid = flow_point(G, domain, z0, s, tol)
    chained = flow_point(G, domain, mid, t, tol)
    return abs(direct - chained)


# -- truncated Taylor coefficients of the flow map ---------------------------

_INTERIOR_LANES = (0j, 0.25, 0.25j, -0.25, -0.25j)


def _inside_unit_disc(y: np.ndarray) -> tuple[int, None]:
    # a NaN lane makes the max NaN, which rejects; no wall, so no gap
    return (_ACCEPT if np.abs(y).max() < 1.0 else _REJECT), None


def _start_step(rhs, u: np.ndarray, tol: float):
    """(0, h, rhs(u)): the starting step of Hairer, Norsett & Wanner
    (Solving ODEs I, sec. II.4) for lanes that share one step, in the norm
    of _error_ratio, max |v| / (tol (1 + |u|)) over lanes; it costs one
    evaluation besides the first slope."""
    k1 = rhs(u)
    scale = tol * (1.0 + np.abs(u))

    def norm(v):
        return float(np.max(np.abs(v) / scale))

    d0, d1 = norm(u), norm(k1)
    h0 = 0.01 * d0 / d1 if min(d0, d1) > 1e-5 else 1e-6
    try:
        d2 = norm(rhs(u + h0 * k1) - k1) / h0
    except _EVAL_ERRORS:
        d2 = math.inf
    # an Euler probe that meets a pole tells nothing of the slope's change
    slope = max(d1, d2) if math.isfinite(d2) else d1
    h1 = ((0.01 / slope) ** 0.2 if slope > 1e-15
          else max(1e-6, 1e-3 * h0))
    h = min(100.0 * h0, h1)
    return 0.0, (h if 0.0 < h < math.inf else 1e-3), k1


def _run_times(times: list[float], tol: float) -> list[float]:
    """The positive times of a flow-series run, after its input checks:
    times nonnegative and nondecreasing, the tol, and the last positive
    time as a horizon (_check_run)."""
    if not all(0 <= x for x in times) or any(
            b < a for a, b in zip(times, times[1:])):
        raise BadParameter("times must be nonnegative and nondecreasing")
    positive = [x for x in times if x > 0.0]
    if positive:
        _check_run(tol, positive[-1])
    else:
        _check_tol(tol)
    return positive


def _flow_series_path(G: HoloExpr, times: list[float], degree: int,
                      tol: float) -> tuple[float, list]:
    """(r, states): the flow map at several times from one integration
    pass; states[i] holds phi(times[i], z) at the z of circle_points(degree,
    r), or is None at time 0, the identity, which each caller writes
    exactly (series.coeffs_from_samples, power_coeffs, compose_samples).

    times must be nondecreasing and nonnegative, and the last one a run
    horizon unless it is 0 (_run_times). The circle points and
    _INTERIOR_LANES are lanes of one step sequence, so the numerical flow
    map is holomorphic in z and its integration error has rapidly decaying
    coefficients, not noise amplified by 1 / r^k. At r =
    series.noise_floor_radius(degree), as |phi(t, z)| < 1, the roundoff
    noise of coefficient N is about 1e-16 / r^N = 1e-12 at every degree
    (Bornemann, FoCM 2011), without the 0.9 cap of series.taylor. The
    open-disc rule (_inside_unit_disc) has no wall, so lanes drawn towards
    a boundary attractor keep advancing; a lane that leaves the disc
    raises EscapeError (the flow e^t z of z at t = 1: its lanes at r = 0.5
    leave at ln 2). The lanes start with _start_step (CHANGES.md).
    """
    # series loads with the first flow series: trajectories never need it
    series = _submodule("series")
    if degree < 1:
        raise BadParameter("flow series need degree >= 1")
    r = series.noise_floor_radius(degree)
    positive = _run_times(times, tol)
    idle = [None] * (len(times) - len(positive))
    if not positive:
        return r, idle
    circle = series.circle_points(degree, r)
    lanes = np.concatenate([circle, _INTERIOR_LANES])
    rhs = compiled(G)
    with np.errstate(all="ignore"):  # non-finite lanes are rejected
        states, [(_, t, u, _)] = _drive(
            rhs, lanes, positive, tol, _inside_unit_disc,
            lambda u: 1.0 - float(np.max(np.abs(u))),
            start=_start_step(rhs, lanes, tol))
    if len(states) < len(positive):
        lane = int(np.argmax(np.abs(u)))
        raise EscapeError("flow from %r leaves the unit disc at t=%r < %r"
                          % (complex(lanes[lane]), t, positive[-1]))
    m = len(circle)
    return r, idle + [u[:m] for u in states]


def flow_series(G: HoloExpr, t: float, degree: int, tol: float) -> FlowSeries:
    """Taylor coefficients of the time-t flow map about 0."""
    series = _submodule("series")
    r, [u] = _flow_series_path(G, [t], degree, tol)
    return FlowSeries(t, series.SeriesFn.identity(degree) if u is None
                      else series.coeffs_from_samples(u, degree, r))


# -- CSV export ---------------------------------------------------------------


def _status_text(status: Status) -> str:
    if status.kind == COMPLETED:
        return "Completed horizon=%.17g" % status.horizon
    p = status.exit_point
    return "Escaped t_escape=%.17g exit=%.17g,%.17g at_infinity=%d" % (
        status.t_escape, p.real, p.imag, int(status.at_infinity))


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: header, one row t,re,im per sample, trailing status
    comment. Each float is "%.17g", as jsonio.csv_text writes it."""
    rows = np.column_stack((traj.times, traj.points.real, traj.points.imag))
    return csv_text("t,re,im\n", rows,
                    "# status=%s\n" % _status_text(traj.status))
