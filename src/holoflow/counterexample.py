"""A flow that is global on the radius-2 disc but leaves the unit disc.

For |b| in (1, 2) and F holomorphic with Re F >= 0 on the disc of radius
2, the symbol

    G(z) = F(z) * (conj(b) z / 4 - 1) * (z - b)

is the Berkson-Porta form for the radius-2 disc (its zeros are b and
4/conj(b), and the second lies outside), so the flow is global there and
every orbit converges to the Denjoy-Wolff point b. Orbits started inside
the unit disc therefore cross |z| = 1 at a finite time: composing with
this flow does not act by self-maps of the unit disc, even though the
flow never misbehaves on the larger disc. run_counterexample shows
exactly that geometry and reports the first crossing time, confinement to
the big disc, and the distance to b at the end of the run.

Restricted to the unit disc the symbol has no zero in the closed disc at
all, so the globality classifier can only reject it, via an escape
witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import _herglotz_on
from .errors import BadParameter, DomainError, EscapeError, HerglotzError
from .expr import Const, HoloExpr, Poly, Product
from .geometry import Domain, _grid
from .semiflow import Trajectory, integrate

BIG_RADIUS = 2.0
# Re F is sampled on the big disc's grid of this density.
HERGLOTZ_DENSITY = 2

DEFAULT_T_LONG = 20.0
DEFAULT_DW_TOL = 1e-3


@dataclass(frozen=True)
class CounterexampleReport:
    b: complex
    z0: complex
    dw_tol: float
    t_exit: Optional[float]
    dw_distance: float
    warning: Optional[str]
    trajectory: Trajectory

    @property
    def conclusive(self) -> bool:
        return self.t_exit is not None and self.dw_distance < self.dw_tol


def big_disc() -> Domain:
    return Domain.disc(0j, BIG_RADIUS)


def build_counterexample(b: complex, F: HoloExpr = Const(1.0)) -> HoloExpr:
    """The symbol F(z) (conj(b) z / 4 - 1)(z - b) on the radius-2 disc.

    Requires 1 < |b| < 2 and Re F >= 0 on the big disc's sampling grid of
    density HERGLOTZ_DENSITY (a negative sample raises HerglotzError).
    """
    b = complex(b)
    if not 1.0 < abs(b) < BIG_RADIUS:
        raise BadParameter("need 1 < |b| < 2, got |b| = %r" % abs(b))
    worst = _herglotz_on(F, _grid(big_disc(), HERGLOTZ_DENSITY))
    if worst.min_re < 0.0:
        raise HerglotzError("Re F = %r < 0 at z = %r on the radius-2 disc"
                            % (worst.min_re, worst.argmin))
    factor = Product(Poly((-1.0, b.conjugate() / (BIG_RADIUS ** 2))),
                     Poly((-b, 1.0)))
    return Product(F, factor)


def run_counterexample(b: complex, F: HoloExpr, z0: complex,
                       t_long: float = DEFAULT_T_LONG, tol: float = 1e-9,
                       dw_tol: float = DEFAULT_DW_TOL) -> CounterexampleReport:
    """Flow the counterexample symbol from a unit-disc seed.

    Integrates on the radius-2 disc through t_long and records the
    distance to b at the end. When a recorded sample of that trajectory
    reaches |z| >= 1, the first crossing time is the escape time of the
    flow from z0 on the unit disc, which the same run gives (its exit
    time on the unit disc; a few more steps, no second integration): it
    is escape_time's value bit for bit, with the same solver-tolerance
    certificate as every other escape time. If
    no sample crosses before t_long the report carries a warning instead
    of an exit time; if the flow leaves the radius-2 disc the run raises
    EscapeError, which indicates F is not Herglotz there.
    """
    if not 0 < dw_tol < math.inf:
        raise BadParameter("dw_tol must be positive and finite")
    b = complex(b)
    z0 = complex(z0)
    if abs(z0) >= 1.0:
        raise DomainError("seed must lie in the open unit disc")
    G = build_counterexample(b, F)
    domain = big_disc()
    traj = integrate(G, domain, z0, t_long, tol, exit_from=Domain.unit_disc())
    if traj.escaped:
        raise EscapeError(
            "flow left the radius-2 disc at t=%r; F fails the Herglotz "
            "condition there" % traj.status.t_escape)
    t_exit = None
    if np.any(np.abs(traj.points) >= 1.0):
        t_exit = traj.exit_time
    warning = None
    if t_exit is None:
        warning = ("no crossing of |z| = 1 before t=%g; the seed may "
                   "converge to b too slowly for this horizon" % t_long)
    dw_distance = abs(traj.final_point - b)
    if dw_distance >= dw_tol:
        note = ("final distance to b is %g >= %g; extend the horizon"
                % (dw_distance, dw_tol))
        warning = note if warning is None else warning + "; " + note
    return CounterexampleReport(
        b=b, z0=z0, dw_tol=dw_tol,
        t_exit=t_exit, dw_distance=dw_distance, warning=warning,
        trajectory=traj,
    )

