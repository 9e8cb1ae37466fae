"""Conformal transfer of symbols between the disc and a half-plane.

A Moebius map h from the source domain onto the target conjugates flows:
if H = (G o h) / h' on the source, then h(flow_H(t, z)) = flow_G(t, h(z)).
The built-in pair is the Cayley map h(z) = i (1 + z)/(1 - z) from the unit
disc onto the upper half-plane, with inverse (w - i)/(w + i). Only Moebius
pairs are supported; fixed points transfer (G(h(z*)) = 0 forces
H(z*) = 0), and transferring out and back recovers the original symbol on
probe grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter
from .expr import Compose, HoloExpr, Mobius, Ratio
from .geometry import Domain
from .semiflow import _eval_lanes, flow_point

_PAIR_PROBE_TOL = 1e-10


@dataclass(frozen=True)
class ConformalPair:
    h: Mobius
    h_inv: Mobius
    source: Domain
    target: Domain

    def __post_init__(self):
        # Probes run as lanes; the first failing probe in grid order is
        # reported, with the checks of each probe in the order below.
        z = np.array(self.source.sample_grid(1))
        with np.errstate(all="ignore"):
            w, w_errors = _eval_lanes(self.h.eval, z)
            back, back_errors = _eval_lanes(self.h_inv.eval, w)
        outside = ~(self.target.signed_distance(w) > 0)
        i = _first_fault(outside | (abs(back - z) > _PAIR_PROBE_TOL),
                         w_errors, back_errors)
        if i is not None:
            if i in w_errors:
                raise w_errors[i]
            if outside[i]:
                raise BadParameter(
                    "map sends source probe %r to %r outside the target"
                    % (z[i].item(), w[i].item()))
            if i in back_errors:
                raise back_errors[i]
            raise BadParameter(
                "inverse fails on source probe %r" % (z[i].item(),))
        w = np.array(self.target.sample_grid(1))
        with np.errstate(all="ignore"):
            z, z_errors = _eval_lanes(self.h_inv.eval, w)
            back, back_errors = _eval_lanes(self.h.eval, z)
        i = _first_fault(abs(back - w) > _PAIR_PROBE_TOL, z_errors,
                         back_errors)
        if i is not None:
            if i in z_errors:
                raise z_errors[i]
            if i in back_errors:
                raise back_errors[i]
            raise BadParameter(
                "inverse fails on target probe %r" % (w[i].item(),))


def _first_fault(bad: np.ndarray, *errors: dict) -> Optional[int]:
    """The first probe that is bad or raised, or None."""
    faults = np.flatnonzero(bad).tolist() + [i for e in errors for i in e]
    return min(faults) if faults else None


def cayley() -> ConformalPair:
    """Unit disc onto the upper half-plane, z -> i (1 + z)/(1 - z)."""
    return ConformalPair(
        h=Mobius(1j, 1j, -1.0, 1.0),
        h_inv=Mobius(1.0, -1j, 1.0, 1j),
        source=Domain.unit_disc(),
        target=Domain.half_plane("upper"),
    )


def mobius_pair(m: Mobius, source: Domain, target: Domain) -> ConformalPair:
    """A user-supplied Moebius map with its exact inverse; probe-checked."""
    return ConformalPair(m, m.inverse(), source, target)


def transfer_symbol(G: HoloExpr, pair: ConformalPair) -> HoloExpr:
    """Pull a symbol on the target back to the source: (G o h) / h'."""
    return Ratio(Compose(G, pair.h), pair.h.derivative())


def conjugation_residual(G: HoloExpr, pair: ConformalPair, z0: complex,
                         t: float, tol: float) -> float:
    """|h(flow_H(t, z0)) - flow_G(t, h(z0))| from two integrations."""
    if t == 0.0:
        return 0.0
    H = transfer_symbol(G, pair)
    through_source = pair.h.eval(
        flow_point(H, pair.source, z0, t, tol))
    through_target = flow_point(
        G, pair.target, pair.h.eval(z0), t, tol)
    return abs(through_source - through_target)
