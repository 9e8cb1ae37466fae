"""Flow integration for u' = G(u) on a planar domain.

One driver, _drive, does all the integration: an embedded Dormand-Prince
4(5) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980) in complex
arithmetic, on one complex state or on an array of lanes that share one
step sequence. A step passes when tol * (1 + |u|) / |err| >= 1 (least over
lanes); a step whose endpoint the caller's admission rule refuses, or
whose evaluation fails, is halved. When the step size underflows H_MIN
within ESCAPE_DISTANCE of the boundary the run ends in an escape at the
current time (the reject/halve cascade bisects the last accepted step, so
the crossing is bracketed to within H_MIN); underflow farther away, or
more than _MAX_STEPS steps, raises StiffnessError. An escape is a
solver-tolerance certificate, never a proof.

Fixed constants:

    DELTA_WALL      = 1e-9   wall rejection distance
    ESCAPE_DISTANCE = 1e-6   escape vs stiffness threshold at underflow
    H_MIN           = 1e-12  minimal step size
    R_MAX           = 1e8    escape-to-infinity cap on unbounded domains

Trajectories (integrate): the wall rule with dense output, on Python
scalars (a one-lane array costs over ten times more per step). An
endpoint is refused when it is non-finite, outside the domain, or closer
than DELTA_WALL to the boundary; on an unbounded domain an endpoint beyond
R_MAX ends the run as an escape to infinity. Recorded trajectories carry
the adaptive step points plus dense output at max(64, ceil(16 * horizon))
uniform times filled in by cubic Hermite interpolation (the final point
is always an exact integration endpoint).

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
  * Radius. r = max(0.5, (1e-4)^(1/N)). Since |phi(t, z)| < 1, the
    roundoff noise of coefficient N is about 1e-16 / r^N = 1e-12 at
    every degree (Bornemann, FoCM 2011), without the 0.9 cap of
    series.coeff_extraction_radius.

Time 0 gives the exact identity series. Checking all M circle lanes for
escape is stricter than checking the interior points alone: the flow of
z, e^t z, is refused at t = 1 because the lanes at r = 0.5 leave at ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .series import SeriesFn, circle_points, coeffs_from_samples

DELTA_WALL = 1e-9
ESCAPE_DISTANCE = 1e-6
H_MIN = 1e-12
R_MAX = 1e8

_MAX_STEPS = 5_000_000

# Dormand-Prince coefficients.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# b5 - b4, including the FSAL stage.
_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

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
    """One embedded step; returns (y5, error_estimate, k7)."""
    k = [k1]
    for row in _A[1:]:
        acc = 0
        for a, ki in zip(row, k):
            acc = acc + a * ki
        k.append(rhs(y + h * acc))
    y5 = y
    for b, ki in zip(_B5, k):
        y5 = y5 + h * b * ki
    k7 = rhs(y5)
    k.append(k7)
    err = 0
    for e, ki in zip(_E, k):
        err = err + e * ki
    return y5, h * err, k7


def _hermite(theta, y0, f0, y1, f1, h):
    # Cubic Hermite on one accepted step, theta in [0, 1].
    a = theta - 1.0
    return ((1 + 2 * theta) * a * a * y0 + theta * theta * (3 - 2 * theta) * y1
            + h * theta * a * (a * f0 + theta * f1))


def _check_tol(tol: float):
    if not 1e-13 <= tol <= 1e-3:
        raise BadParameter("tol must lie in [1e-13, 1e-3]")


# Verdicts of an admission rule on the endpoint of a proposed step.
_ACCEPT = "accept"  # go on to the error test
_REJECT = "reject"  # halve the step
_STOP = "stop"      # end the run at the endpoint


def _error_ratio(u, err, tol: float) -> float:
    """tol * (1 + |u|) / |err|, least over lanes; the step passes at >= 1.

    An exact zero error gives inf. On lanes err may be a scalar (a symbol
    that does not depend on z), which broadcasts against u.
    """
    if isinstance(u, np.ndarray):
        m = float(np.max(np.abs(err) / (1.0 + np.abs(u))))
        return tol / m if m else math.inf
    err_mag = abs(err)
    return tol * (1.0 + abs(u)) / err_mag if err_mag else math.inf


def _drive(rhs, u, stops, tol, admit, boundary_distance, accepted=None):
    """Integrate from time 0 through the positive, nondecreasing stop
    times, landing exactly on each.

    u is a complex number or an array of lanes. admit(y) judges each step
    endpoint with _ACCEPT, _REJECT or _STOP; boundary_distance(u) decides
    escape against stiffness at step underflow; accepted(t, h, u, k,
    t_next, y, k_y) sees every accepted step, with slopes k and k_y.

    Returns (states, t, u, stopped): the state at every stop time reached,
    then where the run ended. It ends early on _STOP (stopped is True, u is
    that endpoint) or on an escape at underflow (u is the last accepted
    state).
    """
    states = []
    t = 0.0
    k1 = rhs(u)  # a pole at the starting point propagates to the caller
    h = min(1e-3, stops[-1])
    steps = 0
    for stop in stops:
        while t < stop:
            steps += 1
            if steps > _MAX_STEPS:
                raise StiffnessError("step limit exceeded")
            h = min(h, stop - t)
            try:
                y5, err, k7 = _dp_step(rhs, u, h, k1)
                verdict = admit(y5)
                if verdict is _ACCEPT:
                    ratio = _error_ratio(u, err, tol)
            except (HoloflowError, OverflowError, ZeroDivisionError):
                verdict = _REJECT
            if verdict is _STOP:
                return states, t + h, y5, True
            if verdict is _REJECT:
                h *= 0.5
            elif ratio >= 1.0:
                t_next = stop if h == stop - t else t + h
                if accepted is not None:
                    accepted(t, h, u, k1, t_next, y5, k7)
                t, u, k1 = t_next, y5, k7
                h *= min(5.0, max(0.2, 0.9 * ratio ** 0.2))
                continue
            else:
                h *= min(0.7, max(0.1, 0.9 * ratio ** 0.2))
            if h < H_MIN:
                if boundary_distance(u) < ESCAPE_DISTANCE:
                    return states, t, u, False
                raise StiffnessError(
                    "step size underflow at t=%r away from the boundary" % t)
        states.append(u)
    return states, t, u, False


def integrate(G: HoloExpr, domain: Domain, z0: complex, horizon: float,
              tol: float) -> Trajectory:
    """Integrate u' = G(u) from z0 until the horizon or a boundary escape."""
    _check_tol(tol)
    if not 0 < horizon < math.inf:
        raise BadParameter("horizon must be positive and finite")
    if not domain.contains(z0):
        raise DomainError("initial point %r outside the domain" % (z0,))

    n_dense = max(64, math.ceil(16 * horizon))
    dense_times = [horizon * k / n_dense for k in range(1, n_dense)]
    dense_i = 0
    times = [0.0]
    points = [complex(z0)]

    def admit(y: complex) -> str:
        if not (math.isfinite(y.real) and math.isfinite(y.imag)):
            return _REJECT
        if not domain.bounded and abs(y) > R_MAX:
            return _STOP
        if not domain.contains(y) or domain.boundary_distance(y) < DELTA_WALL:
            return _REJECT
        return _ACCEPT

    def record(t, h, u, k1, t_next, y, k_y):
        # uniform dense output across (t, t + h), then the step endpoint
        nonlocal dense_i
        while dense_i < len(dense_times) and dense_times[dense_i] < t + h:
            td = dense_times[dense_i]
            if td > t:
                times.append(td)
                points.append(_hermite((td - t) / h, u, k1, y, k_y, h))
            dense_i += 1
        if times[-1] != t_next:
            times.append(t_next)
            points.append(y)

    reached, t, u, stopped = _drive(G.eval, complex(z0), [horizon], tol,
                                    admit, domain.boundary_distance, record)
    if stopped:
        times.append(t)
        points.append(u)
    status = (Status.completed(horizon) if reached
              else Status.escaped(t, u, at_infinity=stopped))
    return Trajectory(np.array(times), np.array(points), status)


def backward_integrate(G: HoloExpr, domain: Domain, z0: complex,
                       horizon: float, tol: float) -> Trajectory:
    """Integrate the time-reversed flow; times are reported as negatives."""
    traj = integrate(Neg(G), domain, z0, horizon, tol)
    status = traj.status
    if status.kind == ESCAPED:
        status = Status.escaped(-status.t_escape, status.exit_point,
                                status.at_infinity)
    return Trajectory(-traj.times, traj.points, status)


def escape_time(G: HoloExpr, domain: Domain, z0: complex, t_max: float,
                tol: float) -> Optional[float]:
    """Escape time if the flow leaves before t_max, else None.

    None means no escape was detected before t_max, not that the flow is
    global.
    """
    traj = integrate(G, domain, z0, t_max, tol)
    if traj.escaped:
        return float(traj.status.t_escape)
    return None


def flow_point(G: HoloExpr, domain: Domain, z0: complex, t: float,
               tol: float) -> complex:
    """Value of the flow at time t; raises EscapeError if it leaves first."""
    if t == 0.0:
        if not domain.contains(z0):
            raise DomainError("initial point %r outside the domain" % (z0,))
        return complex(z0)
    traj = integrate(G, domain, z0, t, tol)
    if traj.escaped:
        raise EscapeError(
            "flow from %r escaped at t=%r before t=%r"
            % (z0, traj.status.t_escape, t)
        )
    return traj.final_point


def semigroup_residual(G: HoloExpr, domain: Domain, z0: complex, t: float,
                       s: float, tol: float) -> float:
    """| flow(t+s, z0) - flow(t, flow(s, z0)) | from three integrations."""
    if t < 0 or s < 0:
        raise BadParameter("t and s must be nonnegative")
    direct = flow_point(G, domain, z0, t + s, tol)
    mid = flow_point(G, domain, z0, s, tol)
    chained = flow_point(G, domain, mid, t, tol)
    return abs(direct - chained)


# -- truncated Taylor coefficients of the flow map ---------------------------

# 1 / r^N at the largest sampling radius: the top coefficient's roundoff
# noise stays near 1e-16 * 1e4 = 1e-12.
_FLOW_NOISE_GAIN = 1e-4
_INTERIOR_LANES = (0j, 0.25, 0.25j, -0.25, -0.25j)


def _inside_unit_disc(y: np.ndarray) -> str:
    return _ACCEPT if np.all(np.abs(y) < 1.0) else _REJECT  # NaN rejects


def _flow_series_path(G: HoloExpr, times: list[float], degree: int,
                      tol: float) -> list[SeriesFn]:
    """Flow coefficient series at several times in one integration pass.

    times must be finite, nondecreasing and nonnegative; time 0 gives the
    exact identity series. See the module docstring for the method.
    """
    _check_tol(tol)
    if degree < 1:
        raise BadParameter("flow series need degree >= 1")
    if not times:
        return []
    if not all(0 <= x < math.inf for x in times) or any(
        b < a for a, b in zip(times, times[1:])
    ):
        raise BadParameter(
            "times must be finite, nondecreasing and nonnegative")
    identity = SeriesFn.identity(degree)
    positive = [x for x in times if x > 0.0]
    if not positive:
        return [identity] * len(times)
    r = max(0.5, _FLOW_NOISE_GAIN ** (1.0 / degree))
    circle = circle_points(degree, r)
    lanes = np.concatenate([circle, _INTERIOR_LANES])
    with np.errstate(all="ignore"):  # non-finite lanes are rejected
        states, t, u, _ = _drive(
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
    if t < 0:
        raise BadParameter("t must be nonnegative")
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
