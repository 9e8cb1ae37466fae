"""Deterministic SVG phase portraits.

render_portrait integrates the seeds of the domain's sampling grid as
independent lanes of one run (semiflow.integrate_seeds) and draws each
seed's trajectory as a polyline on a fixed 800 x 800 canvas, with a fixed
color ramp indexed by seed order. Its vertices are the seed and the step
points of integrate, in time order, and the dense samples of the steps
whose cubic Hermite curve may depart more than _CHORD_PX = 0.25 px from
the step's chord (after Ramer 1972; Douglas & Peucker 1973): a sample
left out lies within 0.25 px of that chord, which is a segment of the
polyline, so the text grows with curvature instead of horizon. The run's
points stay in one merged array up to the text: _on_canvas finds the
part of each polyline to keep on the canvas, one gather takes it, and
_polylines writes each pixel coordinate as "%.2f" formats it alone
(jsonio._fixed2, or % where that kernel declines). Escaped trajectories
are dashed;
discs of radius above 1 get a dashed unit circle. Seeds whose integration
fails are logged in seed order and skipped. Identical inputs produce
identical bytes, and a seed's polyline does not depend on the other seeds
of the grid.
"""

from __future__ import annotations

import numpy as np

from .expr import HoloExpr
from .geometry import DISC, Domain, _grid
from .jsonio import _fixed2, _percent
from .semiflow import ESCAPED, integrate_seeds

CANVAS = 800.0
# a dense sample is drawn only where its step bends farther from the chord
_CHORD_PX = 0.25
# polylines are formatted in runs of about this many vertices
_SLICE = 2048
# a segment whose bounding box lies farther than this outside the canvas
# paints no pixel (the stroke is 1 px wide)
_MARGIN_PX = 10.0

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _viewport(domain: Domain):
    """Map from the complex plane to pixels: returns (fx, fy)."""
    if domain.kind == DISC:
        half = 1.1 * domain.radius
        cx, cy = domain.center.real, domain.center.imag
    else:
        # fixed box matching the sampling lattice
        if domain.kind == "halfplane:upper":
            cx, cy, half = 0.0, 4.0, 4.4
        else:
            cx, cy, half = 4.0, 0.0, 4.4
    scale = CANVAS / (2.0 * half)

    def fx(x: float) -> float:
        return (x - cx + half) * scale

    def fy(y: float) -> float:
        return CANVAS - (y - cy + half) * scale

    return fx, fy


def _circle(fx, fy, center: complex, radius: float, style: str) -> str:
    r_px = radius * (fx(1.0) - fx(0.0))
    return '<circle cx="%.2f" cy="%.2f" r="%.2f" %s/>' % (
        fx(center.real), fy(center.imag), r_px, style)


def _on_canvas(xy: np.ndarray, sizes: np.ndarray):
    """(first, stop): the vertices first[i] .. stop[i] - 1 of the pixel
    points xy (one x, y row each) that polyline i keeps, where the
    polylines are the runs of sizes[i] rows of xy. A polyline loses its
    leading and trailing runs of segments that miss the canvas, keeping
    the vertex where such a run starts; one with no segment on the canvas
    keeps its first vertex.

    A segment misses when its bounding box lies outside the canvas box
    widened by _MARGIN_PX. What is drawn stays the same, and orbits that
    escape towards R_MAX, 1e10 px away, lose the vertices that draw
    nothing. Runs in the middle stay, since joining across them would draw
    a chord that the orbit does not follow.
    """
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    lo, hi = -_MARGIN_PX, CANVAS + _MARGIN_PX
    a, b = xy[:-1], xy[1:]
    miss = np.ones(len(xy), bool)  # segment k joins vertex k to k + 1
    miss[:-1] = ((np.maximum(a, b) < lo) | (np.minimum(a, b) > hi)).any(1)
    miss[ends - 1] = True  # the last vertex of a line starts no segment
    k = np.arange(len(xy))
    first = np.minimum.reduceat(np.where(miss, len(xy), k), firsts)
    stop = np.maximum.reduceat(np.where(miss, -1, k), firsts) + 2
    hit = stop > 1
    return np.where(hit, first, firsts), np.where(hit, stop, firsts + 1)


# a polyline is _HEAD, its points, then its tail: _TAIL % (stroke, dash)
_HEAD = '<polyline points="'
_TAIL = '" fill="none" stroke="%s" stroke-width="1"%s/>'


def _polylines(xy: np.ndarray, sizes: np.ndarray, tails: list) -> list:
    """The <polyline> lines of the pixel points xy, one x, y row each, cut
    into polylines of sizes[i] rows, the i-th ending in tails[i]: one
    text of newline-separated lines per run.

    Runs of whole polylines, cut where the vertex count passes a multiple
    of _SLICE, are written at once: by jsonio._fixed2, or by one % where
    it declines the run (jsonio._percent). A run's text is split at its
    polylines and joined once with their heads and tails; the caller
    joins the runs with the rest of the SVG, so the whole text is copied
    once.
    """
    ends = np.cumsum(sizes)
    cuts = [0, *(np.flatnonzero(np.diff(ends // _SLICE)) + 1).tolist(),
            len(sizes)]
    ends = [0, *ends.tolist()]
    lines = []
    for a, b in zip(cuts, cuts[1:]):
        coords = xy[ends[a]:ends[b]].ravel()
        # "x,y x,y": a comma after x, a space after y, a newline after the
        # last y of each polyline
        seps = np.full(len(coords), ord(" "), np.uint8)
        seps[::2] = ord(",")
        seps[2 * (np.array(ends[a + 1:b + 1]) - ends[a]) - 1] = ord("\n")
        lines.append(_lines(
            _fixed2(coords, seps) or _percent("%.2f", coords, seps),
            tails[a:b]))
    return lines


def _lines(text: bytes, tails: list) -> str:
    """The polylines of text, the points of each ending in a newline, with
    their heads and tails, newline-separated. The per-polyline pieces die
    on return, so a run holds none of them beyond its own text."""
    pieces = ["\n" + _HEAD] * (3 * len(tails))
    pieces[0] = _HEAD
    pieces[1::3] = text.decode().split("\n")[:-1]
    pieces[2::3] = tails
    return "".join(pieces)


def render_portrait(G: HoloExpr, domain: Domain, density: int,
                    horizon: float, tol: float) -> tuple[str, dict]:
    """SVG text plus a small summary dict (seed counts by outcome)."""
    seeds = _grid(domain, density)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">',
        '<rect width="800" height="800" fill="#ffffff"/>',
    ]
    fx, fy = _viewport(domain)
    if domain.kind == DISC:
        parts.append(_circle(fx, fy, domain.center, domain.radius,
                             'fill="none" stroke="#000000" stroke-width="1.5"'))
        if domain.radius > 1.0:
            parts.append(_circle(
                fx, fy, 0j, 1.0,
                'fill="none" stroke="#999999" stroke-width="1" '
                'stroke-dasharray="4,4"'))
    else:
        if domain.kind == "halfplane:upper":
            y = fy(0.0)
            parts.append('<line x1="0" y1="%.2f" x2="800" y2="%.2f" '
                         'stroke="#000000" stroke-width="1.5"/>' % (y, y))
        else:
            x = fx(0.0)
            parts.append('<line x1="%.2f" y1="0" x2="%.2f" y2="800" '
                         'stroke="#000000" stroke-width="1.5"/>' % (x, x))
    run = integrate_seeds(G, domain, seeds, horizon, tol,
                          _CHORD_PX / (fx(1.0) - fx(0.0)))
    # a seed is drawn when its run did not fail, and then has points
    failed = np.flatnonzero(run.counts == 0).tolist()
    if failed:
        import logging  # loaded only by a portrait that skips a seed

        logger = logging.getLogger(__name__)
        for i in failed:
            logger.warning("portrait seed %r skipped: %s", seeds[i],
                           run.outcomes[i])
    drawn = np.flatnonzero(run.counts)
    dashed = [run.outcomes[i].kind == ESCAPED for i in drawn.tolist()]
    if dashed:
        tails = [_TAIL % (stroke, dash)
                 for dash in ("", ' stroke-dasharray="6,4"')
                 for stroke in _PALETTE]
        keys = drawn % len(_PALETTE) + len(_PALETTE) * np.array(dashed)
        sizes = run.counts[drawn]
        xy = np.column_stack((fx(run.points.real), fy(run.points.imag)))
        first, stop = _on_canvas(xy, sizes)
        # one gather of the kept vertices
        sizes = stop - first
        xy = xy[np.arange(sizes.sum()) + np.repeat(
            first - np.cumsum(sizes) + sizes, sizes)]
        parts += _polylines(xy, sizes, [tails[k] for k in keys.tolist()])
    parts.append("</svg>\n")
    escaped = sum(dashed)
    summary = {"seeds": len(seeds), "completed": len(dashed) - escaped,
               "escaped": escaped, "failed": len(failed)}
    return "\n".join(parts), summary
