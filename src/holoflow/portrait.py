"""Deterministic SVG phase portraits.

render_portrait integrates the seeds of the domain's sampling grid as
independent lanes of one run (semiflow.integrate_seeds) and draws each
seed's trajectory as a polyline on a fixed 800 x 800 canvas, with a fixed
color ramp indexed by seed order. Its vertices are the seed and the step
points of integrate, in time order, and the dense samples of the steps
whose cubic Hermite curve may depart more than _CHORD_PX = 0.25 px from
the step's chord (after Ramer 1972; Douglas & Peucker 1973): a sample
left out lies within 0.25 px of that chord, which is a segment of the
polyline, so the text grows with curvature instead of horizon. _on_canvas
trims each polyline to the canvas, and _polylines writes each pixel
coordinate as "%.2f" formats it alone. Escaped trajectories are dashed;
discs of radius above 1 get a dashed unit circle. Seeds whose integration
fails are logged in seed order and skipped. Identical inputs produce
identical bytes, and a seed's polyline does not depend on the other seeds
of the grid.
"""

from __future__ import annotations

import functools
import logging
from typing import Optional

import numpy as np

from .errors import HoloflowError
from .expr import HoloExpr
from .geometry import DISC, Domain, _grid
from .jsonio import _digit_words
from .semiflow import ESCAPED, integrate_seeds

logger = logging.getLogger(__name__)

CANVAS = 800.0
# a dense sample is drawn only where its step bends farther from the chord
_CHORD_PX = 0.25
# polylines are formatted in runs of about this many vertices
_SLICE = 2048
# _fixed2 writes |x| below this with rint(100 x) < 1e6, so "%4d" holds its
# integer part; fl(100 x) is then within 6e-11 of the exact 100 x
_FIXED2_MAX = 9_999.99
# and rint(fl(100 x)) is the correctly rounded exact 100 x when fl(100 x)
# lies nearer than this to an integer
_TIE_GAP = 0.5 - 1e-6
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


def _on_canvas(fx, fy, lines: list) -> list:
    """Each polyline of lines without its leading and trailing runs of
    segments that miss the canvas, keeping the vertex where such a run
    starts; a polyline with no segment on the canvas keeps its first vertex.

    A segment misses when its bounding box lies outside the canvas box
    widened by _MARGIN_PX. What is drawn stays the same, and orbits that
    escape towards R_MAX, 1e10 px away, lose the vertices that draw
    nothing. Runs in the middle stay, since joining across them would draw
    a chord that the orbit does not follow.
    """
    sizes = np.fromiter(map(len, lines), np.intp, len(lines))
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    p = np.concatenate(lines)
    lo, hi = -_MARGIN_PX, CANVAS + _MARGIN_PX
    miss = np.zeros(len(p), bool)  # segment k joins vertex k to k + 1
    for v in (fx(p.real), fy(p.imag)):
        a, b = v[:-1], v[1:]
        miss[:-1] |= (np.maximum(a, b) < lo) | (np.minimum(a, b) > hi)
    miss[ends - 1] = True  # the last vertex of a line starts no segment
    k = np.arange(len(p))
    first = np.minimum.reduceat(np.where(miss, len(p), k), firsts)
    stop = np.maximum.reduceat(np.where(miss, -1, k), firsts) + 2
    hit = stop > 1
    first, stop = np.where(hit, first, firsts), np.where(hit, stop, firsts + 1)
    out = list(lines)
    for i in np.flatnonzero((first != firsts) | (stop != ends)).tolist():
        out[i] = p[first[i]:stop[i]]
    return out


@functools.cache
def _fixed2_tables():
    """The words of _fixed2: "%04d" of q < 10,000 (jsonio._digit_words)
    and its keep mask (the bytes of "%d"), ".%02d" of r < 100 with a free
    fourth byte, a word starting "-", the keep mask of its first byte, and
    an all-kept word."""
    q = np.arange(10_000, dtype=np.int16)[:, None]
    keep = q >= np.array([1000, 100, 10, 0], np.int16)
    r = np.arange(100, dtype=np.uint8)
    cents = np.stack([np.full(100, 46, np.uint8), r // 10 + 48, r % 10 + 48,
                      np.zeros(100, np.uint8)], 1)
    minus, first, every = np.frombuffer(b"-\0\0\0" b"\1\0\0\0" b"\1\1\1\1",
                                        np.uint32)
    return (_digit_words(), keep.view(np.uint32).ravel(),
            cents.view(np.uint32).ravel(), minus, first, every)


def _fixed2(values: np.ndarray, seps: np.ndarray) -> Optional[bytes]:
    """The bytes of "%.2f" % x, each followed by its separator byte, over
    the floats x of values and the uint8 seps; None unless every |x| is
    below _FIXED2_MAX and every fl(100 x) nearer than _TIE_GAP to an
    integer, where rint gives the digits that % gives.

    Each value takes three words: a sign word ("-" kept by signbit, as %
    writes "-0.00" for -0.0 and -0.004), "%04d" of the integer part q and
    ".%02d" of the cents r with the separator as fourth byte. A keep mask
    of the same layout drops the sign of positive values and the leading
    zeros of q, and one boolean index gives the text.
    """
    if not np.abs(values).max(initial=0.0) < _FIXED2_MAX:  # NaN fails too
        return None
    s = values * 100.0
    n = np.rint(s)
    s -= n
    if not np.abs(s, out=s).max(initial=0.0) < _TIE_GAP:
        return None
    digits, keep_digits, cents, minus, first, every = _fixed2_tables()
    q, r = np.divmod(np.abs(n, out=n).astype(np.int32), 100)
    words = np.empty((len(values), 3), np.uint32)
    words[:, 0] = minus
    words[:, 1] = digits[q]
    words[:, 2] = cents[r]
    text = words.view(np.uint8)
    text[:, 11] = seps
    keep = np.empty_like(words)
    np.multiply(np.signbit(values), first, out=keep[:, 0])
    keep[:, 1] = keep_digits[q]
    keep[:, 2] = every
    return text[keep.view(bool)].tobytes()


_LINE = ('<polyline points="%s" fill="none" stroke="%s" stroke-width="1"'
         '%s/>')


def _polylines(fx, fy, drawn) -> str:
    """The <polyline> lines of drawn, a list of (points, stroke, dash).

    Runs of whole polylines, cut where the vertex count passes a multiple
    of _SLICE, are written at once: by _fixed2, or else by one % over a
    template of the run.
    """
    ends = np.cumsum([0] + [len(p) for p, _, _ in drawn])
    cuts = [0, *(np.flatnonzero(np.diff(ends[1:] // _SLICE)) + 1).tolist(),
            len(drawn)]
    lines = []
    for a, b in zip(cuts, cuts[1:]):
        part = drawn[a:b]
        points = np.concatenate([p for p, _, _ in part])
        xy = np.column_stack((fx(points.real), fy(points.imag))).ravel()
        # "x,y x,y": a comma after x, a space after y, a newline after the
        # last y of each polyline
        seps = np.full(len(xy), ord(" "), np.uint8)
        seps[::2] = ord(",")
        seps[2 * (ends[a + 1:b + 1] - ends[a]) - 1] = ord("\n")
        text = _fixed2(xy, seps)
        if text is not None:
            lines.append("\n".join(
                _LINE % (t, stroke, dash) for t, (_, stroke, dash)
                in zip(text[:-1].decode().split("\n"), part)))
            continue
        template = "\n".join(
            _LINE % (("%.2f,%.2f " * len(p))[:-1], stroke, dash)
            for p, stroke, dash in part)
        lines.append(template % tuple(xy.tolist()))
    return "\n".join(lines)


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
    escaped, drawn = 0, []
    orbits = integrate_seeds(G, domain, seeds, horizon, tol,
                             _CHORD_PX / (fx(1.0) - fx(0.0)))
    for idx, (seed, orbit) in enumerate(zip(seeds, orbits)):
        if isinstance(orbit, HoloflowError):
            logger.warning("portrait seed %r skipped: %s", seed, orbit)
            continue
        points, status = orbit
        dash = ' stroke-dasharray="6,4"' if status.kind == ESCAPED else ""
        escaped += bool(dash)
        drawn.append((points, _PALETTE[idx % len(_PALETTE)], dash))
    if drawn:
        lines = _on_canvas(fx, fy, [p for p, _, _ in drawn])
        parts.append(_polylines(fx, fy, [
            (p, stroke, dash) for p, (_, stroke, dash) in zip(lines, drawn)]))
    parts.append("</svg>\n")
    summary = {"seeds": len(seeds), "completed": len(drawn) - escaped,
               "escaped": escaped, "failed": len(seeds) - len(drawn)}
    return "\n".join(parts), summary
