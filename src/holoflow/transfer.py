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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter
from .expr import Compose, HoloExpr, Mobius, Ratio
from .geometry import Domain, _grid
from .semiflow import _eval_lanes, flow_point

_PAIR_PROBE_TOL = 1e-10


@dataclass(frozen=True)
class ConformalPair:
    h: Mobius
    h_inv: Mobius
    source: Domain
    target: Domain

    def __post_init__(self):
        # Probes run as lanes, first the source probes (mapped, tested for
        # membership of the target, mapped back), then the target probes
        # (the round trip the other way); the first failing probe in grid
        # order is reported, with the checks of each probe in that order.
        for side, there, back, into in (
                ("source", self.h, self.h_inv, self.target),
                ("target", self.h_inv, self.h, None)):
            z = np.array(_grid(getattr(self, side), 1))
            with np.errstate(all="ignore"):
                w, w_errors = _eval_lanes(there.eval, z)
                z_back, back_errors = _eval_lanes(back.eval, w)
            outside = (np.zeros(len(z), bool) if into is None
                       else ~into.contains(w))
            faults = np.flatnonzero(
                outside | (abs(z_back - z) > _PAIR_PROBE_TOL)).tolist()
            faults += [*w_errors, *back_errors]
            if not faults:
                continue
            i = min(faults)
            if i in w_errors:
                raise w_errors[i]
            if outside[i]:
                raise BadParameter(
                    "map sends source probe %r to %r outside the target"
                    % (z[i].item(), w[i].item()))
            if i in back_errors:
                raise back_errors[i]
            raise BadParameter(
                "inverse fails on %s probe %r" % (side, z[i].item()))


@functools.cache
def cayley() -> ConformalPair:
    """Unit disc onto the upper half-plane, z -> i (1 + z)/(1 - z). The
    pair is built, and its probes run, once; ConformalPair is frozen, so
    every call returns that one object."""
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
    H = transfer_symbol(G, pair)
    through_source = pair.h.eval(
        flow_point(H, pair.source, z0, t, tol))
    through_target = flow_point(
        G, pair.target, pair.h.eval(z0), t, tol)
    return abs(through_source - through_target)
