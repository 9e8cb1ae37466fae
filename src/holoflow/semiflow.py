"""Flow integration for u' = G(u) on a planar domain.

One driver, _drive, does all the integration: an embedded Dormand-Prince
4(5) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980) in complex
arithmetic, in three uses: one complex state; an array of lanes that
share one step sequence; and an array of independent lanes, each with its
own time, step size and step count. A step passes when
tol * (1 + |u|) / |err| >= 1 (least over shared lanes, lane by lane for
independent ones); a step whose endpoint the caller's admission rule
refuses, or whose evaluation fails, is halved, except at a wall (below).
When the step size underflows H_MIN within ESCAPE_DISTANCE of the boundary
the run ends in an escape at the current time; underflow farther away, or
more than _MAX_STEPS steps, raises StiffnessError (an independent lane
fails alone instead). An escape is a solver-tolerance certificate, never a
proof. The step-control rules are written once, as expressions that hold
for Python scalars and elementwise for arrays.

Fixed constants:

    DELTA_WALL      = 1e-9   wall rejection distance
    ESCAPE_DISTANCE = 1e-6   escape vs stiffness threshold at underflow
    H_MIN           = 1e-12  minimal step size
    R_MAX           = 1e8    escape-to-infinity cap on unbounded domains
    MAX_HORIZON     = 100    longest run or flow-series time (BadParameter)

Every entry that integrates checks its inputs first by one rule,
_check_run: tol in [1e-13, 1e-3] and 0 < horizon <= MAX_HORIZON. At time 0
(no run) only the tol, and the start point of flow_point, are checked.

Trajectories (integrate): the wall rule with dense output, on Python
scalars (a one-lane array costs over ten times more per step). An
endpoint is refused when it is non-finite, outside the domain, or closer
than DELTA_WALL to the boundary; on an unbounded domain an endpoint beyond
R_MAX ends the run as an escape to infinity. Recorded trajectories carry
the adaptive step points plus dense output at max(64, ceil(16 * horizon))
uniform times filled in by cubic Hermite interpolation (the final point
is always an exact integration endpoint). escape_time and flow_point run
the same rule but record nothing: they keep only how the run ends.

Wall endgame: the wall crossing is located as an event (Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.6). The gap d(u(t)) - DELTA_WALL, with d
the signed distance that the wall rule computes anyway, is interpolated
linearly in time through its last two accurate values: the state and a
step endpoint, or two endpoints refused at the wall. A step refused at
the wall is retried with the length that reaches the predicted crossing,
less H_MIN / 2, instead of half its own length. From then on, while the
crossing stays ahead, the step after an accepted one is no longer than
that. The run escapes once the predicted crossing is less than H_MIN
ahead, or once the gap of a state is within rounding of 0
(2^-52 (1 + |u|)); the latter ends orbits too slow to cross the wall in
floating point, such as the tanh flow of 1 - z^2 near t = 10.7. The
secant converges superlinearly; halving converges linearly, and the step
grown after each acceptance overshoots again. Over 73 escaping orbits in
the unit disc and the right half-plane, 2 to 6 steps follow the first
wall refusal, where halving takes 76 to 106. The open-disc rule of
flow_series has no wall and keeps halving.

Many trajectories (integrate_seeds): the same wall rule and dense output
on independent lanes, one per seed, for phase portraits. A lane leaves the
run when it completes, escapes or fails, so the others keep stepping on a
smaller array. An evaluation that raises on some lane is redone lane by
lane in scalar form, and the raising lanes turn NaN, so only those lanes
are refused and halved; a seed whose own evaluation raises fails alone.
Each accepted step appends the dense samples and the endpoint of the lanes
that accepted it, and only those points are kept. Lanes do the arithmetic
of the scalar path except that numpy's complex product may round the last
bit differently from Python's, so a borderline step decision can move a
step point: end points agree to about 1e-15 and escape times to about
1e-10 relative.

Flow coefficients (flow_series): the open-disc rule with shared lanes.
The degree-N Taylor coefficients of the flow map z -> phi(t, z) on the
unit disc come from sampling it on a circle and applying the FFT, as
series.taylor does for an expression:

  * Lanes. The M = max(4N, 64) points of |z| = r and five interior points
    (0, +-0.25, +-0.25i) form one complex array, and every lane is
    integrated at once through all requested times. Each recorded state
    of the circle lanes is turned into coefficients by one FFT.
  * Shared step. With one step sequence the numerical flow map is itself
    holomorphic in z, so its integration error has rapidly decaying
    coefficients instead of noise amplified by 1 / r^k.
  * Open-disc rule. An endpoint is refused only when some lane reaches
    |u| >= 1 or turns non-finite; there is no DELTA_WALL here, so lanes
    drawn towards a boundary attractor (the tanh flow of 1 - z^2) keep
    advancing. Escape is judged by 1 - max |u| over lanes, and raises
    EscapeError (the flow of that lane leaves the disc).
  * Radius. r = series.noise_floor_radius(N) = max(0.5, (1e-4)^(1/N)).
    Since |phi(t, z)| < 1, the roundoff noise of coefficient N is about
    1e-16 / r^N = 1e-12 at every degree (Bornemann, FoCM 2011), without
    the 0.9 cap of series.taylor.

Time 0 gives the exact identity series. Checking all M circle lanes for
escape is stricter than checking the interior points alone: the flow of
z, e^t z, is refused at t = 1 because the lanes at r = 0.5 leave at ln 2.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (
    BadParameter,
    DomainError,
    EscapeError,
    HoloflowError,
    StiffnessError,
)
from .expr import HoloExpr, Neg
from .geometry import Domain
from .series import (SeriesFn, circle_points, coeffs_from_samples,
                     noise_floor_radius)

DELTA_WALL = 1e-9
ESCAPE_DISTANCE = 1e-6
H_MIN = 1e-12
R_MAX = 1e8
MAX_HORIZON = 100.0  # dense output keeps 16 points per unit time per lane

_MAX_STEPS = 5_000_000

# Dormand-Prince coefficients: stage weights _Aij, fifth-order weights _Bi
# and error weights _Ei = b5_i - b4_i (_E7 for the FSAL stage). The zero
# weights stay in the sums: they fix the signs of zero components.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B2, _B3, _B4, _B5, _B6 = (35 / 384, 0.0, 500 / 1113, 125 / 192,
                                -2187 / 6784, 11 / 84)
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, 0.0, -71 / 16695,
                                     71 / 1920, -17253 / 339200, 22 / 525,
                                     -1 / 40)

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

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        p = np.array(self.points, dtype=np.complex128)
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", p)

    @property
    def final_point(self) -> complex:
        return complex(self.points[-1])

    @property
    def escaped(self) -> bool:
        return self.status.kind == ESCAPED


@dataclass(frozen=True)
class FlowSeries:
    """Taylor coefficients of z -> flow(t, z) about 0."""

    t: float
    coeffs: SeriesFn


def _dp_step(rhs, y, h, k1):
    """One embedded step; returns (y5, error_estimate, k7).

    The sums are written out, in the order of the tableau rows, for speed
    on Python scalars; they hold elementwise on arrays.
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


def _hermite(theta, y0, f0, y1, f1, h):
    # Cubic Hermite on one accepted step, theta in [0, 1].
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


def _check_start(domain: Domain, z0: complex):
    if not domain.contains(z0):
        raise DomainError("initial point %r outside the domain" % (z0,))


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
# advance(m, new, old) takes the new values where m holds.
_ONE = SimpleNamespace(where=lambda c, a, b: a if c else b, minimum=min,
                       maximum=max, any=bool,
                       advance=lambda m, new, old: new if m else old)
_LANES = SimpleNamespace(where=np.where, minimum=np.fmin,
                         maximum=np.fmax, any=np.any,
                         advance=lambda m, new, old: [
                             np.where(m, a, b) for a, b in zip(new, old)])


def _error_ratio(u, err, tol: float, per_lane: bool = False):
    """tol * (1 + |u|) / |err|; the step passes at >= 1.

    An exact zero error gives inf. For lanes that share one step it is the
    least over lanes, and err may be a scalar (a symbol that does not
    depend on z), which broadcasts against u. For independent lanes it is
    taken lane by lane.
    """
    if per_lane:
        return tol * (1.0 + abs(u)) / abs(err)
    if isinstance(u, np.ndarray):
        m = float(np.max(np.abs(err) / (1.0 + np.abs(u))))
        return tol / m if m else math.inf
    err_mag = abs(err)
    return tol * (1.0 + abs(u)) / err_mag if err_mag else math.inf


def _drive(rhs, u, stops, tol, admit, boundary_distance, accepted=None,
           lanes=False):
    """Integrate from time 0 through the positive, nondecreasing stop
    times, landing exactly on each.

    u is a complex number, an array of lanes that share one step, or, with
    lanes=True, an array of independent lanes: each has its own time,
    step size and step count, and leaves the run as soon as it ends
    (independent lanes take one stop time). admit(y) judges each step
    endpoint with _ACCEPT, _REJECT or _STOP (one verdict per independent
    lane) and returns it with the endpoint's gap to the wall (its signed
    distance minus DELTA_WALL), or with None under a rule without a wall;
    boundary_distance(u) decides escape against stiffness at step
    underflow; accepted(m, ids, t, h, u, k, t_next, y, k_y) sees every
    accepted step, with slopes k and k_y (on independent lanes: arrays of
    the running lanes, m marking those that accepted and ids giving
    their positions in the initial u).

    Under a rule with a wall, the gaps drive the wall endgame of the
    module docstring: a predicted crossing less than H_MIN ahead is a step
    underflow. Where the secant has no zero within a refused step, or
    none ahead of an accepted one, the usual rule applies.

    Returns (states, ends): the state at every stop time reached, and how
    each lane ended as (kind, time, point, reason). The kind is _COMPLETED,
    _STOPPED (the admission rule said _STOP; at that endpoint), _ESCAPED
    (step underflow within ESCAPE_DISTANCE of the boundary; at the last
    accepted state) or _FAILED (step underflow farther away, or more than
    _MAX_STEPS steps). A run that is not split into independent lanes has
    one end, and raises StiffnessError instead of failing.
    """
    xp = _LANES if lanes else _ONE
    where, minimum, maximum, any_ = xp.where, xp.minimum, xp.maximum, xp.any
    if lanes:
        ids, t, steps = np.arange(len(u)), np.zeros(len(u)), np.zeros(
            len(u), np.intp)
        aim, back = np.zeros(len(u), bool), np.zeros(len(u))
    else:
        ids, t, steps, aim, back = 0, 0.0, 0, False, 0.0
    ends = [None] * (len(u) if lanes else 1)
    h = t + min(1e-3, stops[-1])
    # the last point of the wall secant, back ahead of the current time,
    # and its gap: the current state (back = 0) or an endpoint refused at
    # the wall; aim marks a run in the wall endgame
    _, gap = admit(u)
    walled = gap is not None

    def end(mask, kind, t, u, why=""):
        if not lanes:
            ends[0] = (kind, t, u, why.format(t))
            return
        for i, ti, ui in zip(ids[mask].tolist(), t[mask].tolist(),
                             u[mask].tolist()):
            ends[i] = (kind, ti, ui, why.format(ti))

    states = []
    k1 = rhs(u)  # a pole at the starting point propagates to the caller
    for stop in stops:
        while any_(t < stop):
            steps = steps + 1
            h = minimum(h, stop - t)
            try:
                y5, err, k7 = _dp_step(rhs, u, h, k1)
                verdict, gap_y = admit(y5)
                ratio = (_error_ratio(u, err, tol, lanes)
                         if any_(verdict != _STOP) else math.nan)
            except _EVAL_ERRORS:
                verdict, ratio, gap_y = _REJECT, math.nan, math.nan
            passed = (verdict == _ACCEPT) & (ratio >= 1.0)
            stopped = verdict == _STOP
            if any_(stopped):
                end(stopped, _STOPPED, t + h, y5)
            if any_(passed):
                t_next = where(h == stop - t, stop, t + h)
                if accepted is not None:
                    accepted(passed, ids, t, h, u, k1, t_next, y5, k7)
                t, u, k1 = xp.advance(passed, (t_next, y5, k7), (t, u, k1))
            # a refused endpoint halves the step
            scale = where(verdict == _ACCEPT, 0.9 * ratio ** 0.2, 0.5)
            h_next = h * where(passed, minimum(5.0, maximum(0.2, scale)),
                               minimum(0.7, maximum(0.1, scale)))
            if walled and any_(aim | (verdict == _REJECT)):
                # the wall endgame (see above). From the new state, the
                # step endpoint is ahead by `ahead` and the secant's zero
                # by `reach`; a new state within rounding of the wall has
                # reached it.
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
                gap = where(passed, gap_y, gap)
            h = h_next
            # rare: a stop, an underflow, the step limit, or (independent
            # lanes) a lane that reached the stop time
            ending = stopped | (h < H_MIN) | (steps >= _MAX_STEPS)
            if any_((ending | (t >= stop)) if lanes else ending):
                # an accepted step underflows only at the wall
                tiny = where(stopped, False, where(
                    passed, aim & (t < stop), True)) & (h < H_MIN)
                escaped = tiny & (boundary_distance(u) < ESCAPE_DISTANCE)
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
                    if any_(mask):
                        end(mask, kind, t, u, why)
                        ended = ended | mask
                if not lanes:
                    if ended:
                        if ends[0][0] == _FAILED:
                            raise StiffnessError(ends[0][3])
                        return states, ends
                else:
                    keep = ~ended
                    ids, t, h, steps, u, k1, aim, back, gap = (
                        x[keep] for x in (ids, t, h, steps, u, k1, aim, back,
                                          gap))
        states.append(u)
    if not lanes:
        ends[0] = (_COMPLETED, t, u, "")
    return states, ends


def _wall_rule(domain: Domain, xp):
    """Admission of trajectories, on one point or on independent lanes.

    An endpoint is refused when it is non-finite, outside the domain, or
    closer than DELTA_WALL to the boundary; on an unbounded domain an
    endpoint beyond R_MAX ends the run as an escape to infinity. (|y| of
    a huge Python complex raises OverflowError, which also refuses it.)
    """
    where, distance, bounded = xp.where, domain.signed_distance, domain.bounded

    def admit(y):
        r = abs(y)
        gap = distance(y) - DELTA_WALL
        v = where(gap >= 0.0, _ACCEPT, _REJECT)
        if not bounded:
            v = where(r > R_MAX, _STOP, v)
        return where(r < math.inf, v, _REJECT), gap

    return admit


def _dense_times(horizon: float) -> list[float]:
    """Interior times of the uniform dense output of a trajectory."""
    n_dense = max(64, math.ceil(16 * horizon))
    return [horizon * k / n_dense for k in range(1, n_dense)]


def _status(kind: int, horizon: float, t: float, u: complex) -> Status:
    if kind == _COMPLETED:
        return Status.completed(horizon)
    return Status.escaped(t, u, at_infinity=kind == _STOPPED)


def integrate(G: HoloExpr, domain: Domain, z0: complex, horizon: float,
              tol: float) -> Trajectory:
    """Integrate u' = G(u) from z0 until the horizon or a boundary escape."""
    _check_run(tol, horizon)  # before the dense times are computed
    dense = _dense_times(horizon)
    times = [0.0]
    points = [complex(z0)]

    def record(_passed, _ids, t, h, u, k1, t_next, y, k_y):
        # uniform dense output in (t, t + h), then the step endpoint
        for td in dense[bisect_right(dense, t):bisect_left(dense, t + h)]:
            times.append(td)
            points.append(_hermite((td - t) / h, u, k1, y, k_y, h))
        if times[-1] != t_next:
            times.append(t_next)
            points.append(y)

    kind, t, u = _final_state(G, domain, z0, horizon, tol, record)
    if kind == _STOPPED:
        times.append(t)
        points.append(u)
    return Trajectory(np.array(times), np.array(points),
                      _status(kind, horizon, t, u))


def _eval_lanes(f, z: np.ndarray):
    """f on every lane, and the error of each lane whose scalar evaluation
    raises (its value is NaN), keyed by lane."""
    try:
        v = f(z)
        return (v if np.ndim(v) else np.full(len(z), v, complex)), {}
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


# Dense samples are interpolated at most this many at a time (bounding the
# temporaries of long steps); recorded points are merged into one array
# every _MERGE_BATCHES records.
_SAMPLE_BLOCK = 4096
_MERGE_BATCHES = 256


def integrate_seeds(G: HoloExpr, domain: Domain, seeds, horizon: float,
                    tol: float) -> list:
    """The trajectory points of many seeds, integrated as independent lanes.

    One entry per seed: (points, status) with the points integrate would
    record (the seed, the adaptive step points and the uniform dense
    samples, in time order; equal up to rounding, since numpy and Python
    complex products may differ in the last bit), or the HoloflowError
    that stopped that seed: DomainError, an evaluation error at the seed,
    or StiffnessError. The points of all lanes are kept as complex128 (16
    bytes each) with a 1- or 2-byte lane index, and nothing else.
    """
    _check_run(tol, horizon)
    dense = np.array(_dense_times(horizon))
    z = np.array(seeds, dtype=complex)
    with np.errstate(all="ignore"):
        _, errors = _eval_lanes(G.eval, z)
    for i, z0 in enumerate(seeds):
        try:
            _check_start(domain, z0)
        except DomainError as exc:
            errors[i] = exc
    live = [i for i in range(len(seeds)) if i not in errors]
    lane_type = np.min_scalar_type(max(len(live) - 1, 0))
    merged = []  # (lanes, points) arrays, in the order they were recorded
    batch = [(np.arange(len(live), dtype=lane_type), z[live])]

    def keep(ids, points):
        batch.append((ids.astype(lane_type), points))
        if len(batch) == _MERGE_BATCHES:
            merged.append(tuple(map(np.concatenate, zip(*batch))))
            batch.clear()

    def record(m, *step):
        # as in integrate, lane by lane: dense samples in (t, t + h), then
        # the endpoint unless the step left the time unchanged
        ids, t, h, u, k1, t_next, y, k_y = (x[m] for x in step)
        lo = np.searchsorted(dense, t, "right")
        n = np.maximum(np.searchsorted(dense, t + h, "left") - lo, 0)
        width = max(1, _SAMPLE_BLOCK // max(1, int(n.max())))
        for s in range(0, len(ids), width) if n.any() else ():
            nb = n[s:s + width]
            rep = s + np.repeat(np.arange(len(nb)), nb)
            k = np.arange(len(rep)) - np.repeat(np.cumsum(nb) - nb, nb)
            hr, tr = h[rep], t[rep]
            keep(ids[rep], _hermite((dense[lo[rep] + k] - tr) / hr, u[rep],
                                    k1[rep], y[rep], k_y[rep], hr))
        last = (n > 0) | (t_next != t)
        keep(ids[last], y[last])

    with np.errstate(all="ignore"):  # non-finite lanes are rejected
        _, ends = _drive(lambda x: _eval_lanes(G.eval, x)[0], z[live],
                         [horizon], tol, _wall_rule(domain, _LANES),
                         domain.signed_distance, record, lanes=True)
    # a stable sort by lane keeps each lane's points in time order
    lanes, points = map(np.concatenate, zip(*merged, *batch))
    merged.clear()
    batch.clear()
    points = points[np.argsort(lanes, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(
        lanes, minlength=len(live)))))
    out = [errors.get(i) for i in range(len(seeds))]
    for row, (i, (kind, t, u, why)) in enumerate(zip(live, ends)):
        if kind == _FAILED:
            out[i] = StiffnessError(why)
            continue
        lane = points[bounds[row]:bounds[row + 1]]
        if kind == _STOPPED:
            lane = np.append(lane, u)
        out[i] = (lane, _status(kind, horizon, t, u))
    return out


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
                 tol: float, record=None):
    """How the run of integrate ends, as (kind, time, point); record, the
    accepted-step hook of _drive, sees every accepted step."""
    _check_run(tol, horizon)
    _check_start(domain, z0)
    _, [(kind, t, u, _)] = _drive(
        G.eval, complex(z0), [horizon], tol, _wall_rule(domain, _ONE),
        domain.signed_distance, record)
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
    direct = flow_point(G, domain, z0, t + s, tol)
    mid = flow_point(G, domain, z0, s, tol)
    chained = flow_point(G, domain, mid, t, tol)
    return abs(direct - chained)


# -- truncated Taylor coefficients of the flow map ---------------------------

_INTERIOR_LANES = (0j, 0.25, 0.25j, -0.25, -0.25j)


def _inside_unit_disc(y: np.ndarray) -> tuple[int, None]:
    # NaN rejects; no wall, so no gap
    return (_ACCEPT if np.all(np.abs(y) < 1.0) else _REJECT), None


def _flow_series_path(G: HoloExpr, times: list[float], degree: int,
                      tol: float) -> list[SeriesFn]:
    """Flow coefficient series at several times in one integration pass.

    times must be nondecreasing and nonnegative, and the last one a run
    horizon unless it is 0; time 0 gives the exact identity series. See
    the module docstring for the method.
    """
    if degree < 1:
        raise BadParameter("flow series need degree >= 1")
    if not times:
        return []
    if not all(0 <= x for x in times) or any(
            b < a for a, b in zip(times, times[1:])):
        raise BadParameter("times must be nonnegative and nondecreasing")
    identity = SeriesFn.identity(degree)
    positive = [x for x in times if x > 0.0]
    if not positive:
        _check_tol(tol)
        return [identity] * len(times)
    _check_run(tol, positive[-1])
    r = noise_floor_radius(degree)
    circle = circle_points(degree, r)
    lanes = np.concatenate([circle, _INTERIOR_LANES])
    with np.errstate(all="ignore"):  # non-finite lanes are rejected
        states, [(_, t, u, _)] = _drive(
            G.eval, lanes, positive, tol, _inside_unit_disc,
            lambda u: 1.0 - float(np.max(np.abs(u))))
    if len(states) < len(positive):
        lane = int(np.argmax(np.abs(u)))
        raise EscapeError("flow from %r leaves the unit disc at t=%r < %r"
                          % (complex(lanes[lane]), t, positive[-1]))
    m = len(circle)
    flows = [coeffs_from_samples(u[:m], degree, r) for u in states]
    return [identity] * (len(times) - len(positive)) + flows


def flow_series(G: HoloExpr, t: float, degree: int, tol: float) -> FlowSeries:
    """Taylor coefficients of the time-t flow map about 0."""
    return FlowSeries(t, _flow_series_path(G, [t], degree, tol)[0])


# -- CSV export ---------------------------------------------------------------


def _status_text(status: Status) -> str:
    if status.kind == COMPLETED:
        return "Completed horizon=%.17g" % status.horizon
    p = status.exit_point
    return "Escaped t_escape=%.17g exit=%.17g,%.17g at_infinity=%d" % (
        status.t_escape, p.real, p.imag, int(status.at_infinity))


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: header, one row per sample, trailing status comment."""
    lines = ["t,re,im"]
    for t, p in zip(traj.times.tolist(), traj.points.tolist()):
        lines.append("%.17g,%.17g,%.17g" % (t, p.real, p.imag))
    lines.append("# status=%s" % _status_text(traj.status))
    return "\n".join(lines) + "\n"
