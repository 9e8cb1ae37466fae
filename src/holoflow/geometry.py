"""Planar domains: open discs and half-planes.

A domain provides exact membership and signed-distance queries (the flow
integrator uses them for wall rejection and escape detection) plus a
deterministic interior sampling grid, built once per density, for
positivity checks, phase portraits and map probes. All values are
immutable.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import BadParameter, ParseError
from .grammar import parse_real

DISC = "disc"
HALFPLANE_RIGHT = "halfplane:right"
HALFPLANE_UPPER = "halfplane:upper"

# Disc grids put POINTS_PER_RING*density points on each of RINGS*density
# concentric circles; the outermost radius is (1 - 2**(-4*density))*radius.
_RINGS = 4
_POINTS_PER_RING = 8

# Half-plane grids are a lattice in a fixed truncation box (half-width 4,
# depth 8 measured from the boundary line) refined by density.
_BOX_HALF_WIDTH = 4.0
_BOX_DEPTH = 8.0

MAX_DENSITY = 4  # a half-plane grid has 256 d^2 + 16 d points at density d


@dataclass(frozen=True)
class Domain:
    """An open disc or open half-plane in the complex plane."""

    kind: str
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in (DISC, HALFPLANE_RIGHT, HALFPLANE_UPPER):
            raise BadParameter("unknown domain kind %r" % (self.kind,))
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.kind == DISC and not self.radius > 0:
            raise BadParameter("disc radius must be positive")

    @classmethod
    def unit_disc(cls) -> "Domain":
        return cls(DISC, 0j, 1.0)

    @classmethod
    def disc(cls, center: complex, radius: float) -> "Domain":
        return cls(DISC, center, radius)

    @classmethod
    def half_plane(cls, side: str) -> "Domain":
        if side == "right":
            return cls(HALFPLANE_RIGHT)
        if side == "upper":
            return cls(HALFPLANE_UPPER)
        raise BadParameter("half-plane side must be 'right' or 'upper'")

    @property
    def bounded(self) -> bool:
        return self.kind == DISC

    def contains(self, z):
        """True iff z lies in the open set (False for a NaN point); z may
        be an array of points."""
        return self.signed_distance(z) > 0.0

    def signed_distance(self, z):
        """Distance to the boundary, positive inside and negative outside
        (NaN for a NaN point); z may be an array of points."""
        if self.kind == DISC:
            return self.radius - abs(z - self.center)
        if self.kind == HALFPLANE_RIGHT:
            return z.real
        return z.imag

    def sample_grid(self, density: int) -> list[complex]:
        """Deterministic interior points, in a new list on every call.

        Discs get a concentric polar grid (no center point, radii
        1 - 2**-j); half-planes a truncated rectangular lattice. Density
        bumps refine both, and disc grids for different centers/radii are
        the same pattern under the affine map center + radius*w.
        """
        return list(_grid(self, density))

    def to_text(self) -> str:
        if self.kind == DISC:
            if self.center == 0 and self.radius == 1.0:
                return "unitdisc"
            return "disc:%.17g,%.17g,%.17g" % (
                self.center.real,
                self.center.imag,
                self.radius,
            )
        return self.kind


@functools.lru_cache(maxsize=16)
def _grid(domain: Domain, density: int) -> tuple:
    """Domain.sample_grid as a tuple, built once per (domain, density)."""
    if not 1 <= density <= MAX_DENSITY:
        raise BadParameter("density must lie in [1, %d]" % MAX_DENSITY)
    points: list[complex] = []
    if domain.kind == DISC:
        m = _POINTS_PER_RING * density
        for ring in range(1, _RINGS * density + 1):
            rho = 1.0 - 2.0 ** (-ring)
            for k in range(m):
                w = rho * cmath.exp(2j * math.pi * k / m)
                points.append(domain.center + domain.radius * w)
        return tuple(points)
    n = 2 * _POINTS_PER_RING * density
    step_x = 2.0 * _BOX_HALF_WIDTH / n
    step_y = _BOX_DEPTH / n
    for j in range(1, n + 1):
        depth = j * step_y
        for i in range(n + 1):
            x = -_BOX_HALF_WIDTH + i * step_x
            if domain.kind == HALFPLANE_UPPER:
                points.append(complex(x, depth))
            else:
                points.append(complex(depth, x))
    return tuple(points)


def parse_domain(text: str) -> Domain:
    """Parse the compact CLI form: "unitdisc", "disc:cx,cy,r",
    "halfplane:right", "halfplane:upper"."""
    t = text.strip().lower()
    if t == "unitdisc":
        return Domain.unit_disc()
    if t in (HALFPLANE_RIGHT, HALFPLANE_UPPER):
        return Domain(t)
    if t.startswith("disc:"):
        parts = t[len("disc:"):].split(",")
        if len(parts) != 3:
            raise ParseError("disc domain needs 'disc:cx,cy,r', got %r" % (text,))
        cx, cy, r = map(parse_real, parts)
        return Domain.disc(complex(cx, cy), r)
    raise ParseError("unknown domain %r" % (text,))
