"""Portraits integrate their seeds as independent lanes of one run of _drive.

Each lane must reproduce the scalar trajectory of its seed: the same
outcome, the same error text, the same end point up to rounding (lanes sum
the tableau as a matrix, and numpy and Python round some complex products
differently), and the polyline text must be the per-point "%.2f,%.2f" text
of the polyline trimmed to the canvas. A lane's bits must not depend on
which other seeds run beside it.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import (
    Domain,
    HoloflowError,
    StiffnessError,
    integrate,
    parse_domain,
    parse_symbol,
)
from holoflow import geometry, portrait, semiflow
from holoflow.jsonio import _FIXED2_MAX, _fixed2
from holoflow.portrait import (CANVAS, _MARGIN_PX, _PALETTE, _on_canvas,
                               _polylines, _viewport, render_portrait)
from holoflow.semiflow import H_MIN, integrate_seeds

TOL = 1e-9
EPS = np.finfo(float).eps

# symbol, domain, density, horizon: the bench portrait kinds (rotations, a
# decaying spiral, an expanding map that escapes, a radius-2 disc, both
# half-plane translations), symbols with a seed on a pole, exp, a map with
# interior fixed points, and an escape to infinity through R_MAX.
CASES = [
    ("i*z", "unitdisc", 2, 1.5),
    ("-i*z", "unitdisc", 1, 3.0),
    ("(-0.25+1i)*z", "unitdisc", 1, 6.0),
    ("(1.1+0.2i)*z", "unitdisc", 1, 4.0),
    ("(-0.35-0.5i)*z", "disc:0,0,2", 1, 6.0),
    ("0.5+0.2i", "halfplane:right", 1, 3.0),
    ("0.1-1i", "halfplane:upper", 1, 1.3),
    ("mobius(1,0,1,-0.5)", "unitdisc", 2, 2.0),
    ("1/(z-0.5)", "unitdisc", 2, 2.0),
    ("exp(z)", "unitdisc", 1, 2.0),
    ("z^2+0.5", "unitdisc", 1, 3.0),
    ("z^2", "halfplane:right", 1, 0.5),
]


def _scalar(G, domain, seed, horizon):
    try:
        return integrate(G, domain, seed, horizon, TOL)
    except HoloflowError as exc:
        return exc


def _underflow_time(error):
    return float(str(error).split("=")[1].split()[0])


def _same_error(lane, ref):
    """Same type and text, except that an underflow time may move by
    H_MIN. A run fails at its last accepted time once its step falls below
    H_MIN. Near a pole the error test accepts steps of about the time left
    (for the seed 0.5 + 0.01i below, the last is 4.0e-12 long and ends
    6.0e-13 before the pole time), so a run stops within about H_MIN of
    the pole time, and lanes, which round their sums otherwise than the
    scalar path, may stop up to H_MIN apart (7.8e-14 there)."""
    if type(lane) is not type(ref):
        return False
    got, want = str(lane), str(ref)
    if got.startswith("step size underflow at t="):
        return abs(_underflow_time(lane) - _underflow_time(ref)) <= H_MIN
    return got == want


def _assert_lanes_match(G, D, seeds, horizon):
    lanes = integrate_seeds(G, D, seeds, horizon, TOL, 0.0)
    assert len(lanes) == len(seeds)
    for seed, lane in zip(seeds, lanes):
        ref = _scalar(G, D, seed, horizon)
        if isinstance(ref, HoloflowError):
            assert _same_error(lane, ref), (seed, lane, ref)
            continue
        points, status = lane
        assert points[0] == seed
        assert status.kind == ref.status.kind, seed
        assert status.at_infinity == ref.status.at_infinity, seed
        if ref.escaped:
            assert points[-1] == status.exit_point
            assert abs(status.t_escape - ref.status.t_escape) <= (
                1e-9 * ref.status.t_escape), seed
        else:
            end = ref.final_point
            assert abs(points[-1] - end) <= 1e-12 * max(1.0, abs(end)), seed
    return lanes


def _kinds(lanes):
    return {type(lane).__name__ if isinstance(lane, HoloflowError)
            else (lane[1].kind, lane[1].at_infinity) for lane in lanes}


@pytest.mark.parametrize("symbol,domain,density,horizon", CASES,
                         ids=[c[0] + "@" + c[1] for c in CASES])
def test_lanes_match_scalar_integrate(symbol, domain, density, horizon):
    G, D = parse_symbol(symbol), parse_domain(domain)
    _assert_lanes_match(G, D, D.sample_grid(density), horizon)


def test_grid_cases_cover_every_outcome():
    kinds = set()
    for symbol, domain, density, horizon in CASES:
        G, D = parse_symbol(symbol), parse_domain(domain)
        kinds |= _kinds(integrate_seeds(G, D, D.sample_grid(density),
                                        horizon, TOL, 0.0))
    assert {("Completed", False), ("Escaped", False), ("Escaped", True),
            "PoleError"} <= kinds


def test_interior_pole_fails_only_its_lanes():
    # 1/(z - 0.5) pulls seeds next to 0.5 through the pole (underflow
    # away from the boundary); the others escape or start on the pole.
    # With w = u - 0.5, (w^2)' = 2, so the seeds 0.5 +- 0.01i reach the
    # pole at t = 0.01^2 / 2, and their lanes fail within H_MIN of it
    G, D = parse_symbol("1/(z-0.5)"), Domain.unit_disc()
    seeds = [0.5 + 0.01j, 0.3, 0.5, 0.5 - 0.01j, 0.49 + 0.001j]
    lanes = _assert_lanes_match(G, D, seeds, 5.0)
    assert _kinds(lanes) == {"StiffnessError", ("Escaped", False),
                             "PoleError"}
    for lane in (lanes[0], lanes[3]):
        assert abs(_underflow_time(lane) - 0.5e-4) <= H_MIN


def _reference_polylines(G, D, density, horizon):
    """Reference polylines: every point the lanes record with chord_tol 0
    (the scalar points, up to the last bits of a complex product), one per
    seed that integrates, as (pixel points, "%.2f,%.2f" vertices)."""
    fx, fy = _viewport(D)
    lines = []
    for lane in integrate_seeds(G, D, D.sample_grid(density), horizon, TOL,
                                0.0):
        if isinstance(lane, HoloflowError):
            continue
        px = fx(lane[0].real) + 1j * fy(lane[0].imag)
        lines.append((px, ["%.2f,%.2f" % (p.real, p.imag)
                           for p in px.tolist()]))
    return lines


def _polyline_vertices(svg):
    return [line.split('"')[1].split(" ") for line in svg.splitlines()
            if line.startswith("<polyline")]


def _embedding(kept, ref):
    """Indices of ref at which the kept vertices occur in order (the
    earliest such), or None when kept is no subsequence of ref."""
    at, j = [], 0
    for v in kept:
        while j < len(ref) and ref[j] != v:
            j += 1
        if j == len(ref):
            return None
        at.append(j)
        j += 1
    return at


def _distance_to_segments(p, a, b):
    """Distance of each point p to the segment from a to b, projecting
    onto the segment's line and clamping to its ends."""
    ab = b - a
    norm2 = np.abs(ab) ** 2
    s = np.clip(((p - a) * ab.conj()).real / np.where(norm2 > 0, norm2, 1.0),
                0.0, 1.0)
    return np.abs(p - (a + s * ab))


@pytest.mark.parametrize("symbol,domain", [
    ("0.5+0.2i", "halfplane:right"),
    ("0.1-1i", "halfplane:upper"),
])
def test_zero_chord_tol_keeps_every_scalar_point(symbol, domain):
    # a symbol free of z gives u(t) = seed + G t; lanes sum each step's
    # stages as a matrix and the scalar path one weight at a time, so they
    # record as many points with the same outcome, each point within 8 ulps
    # of the magnitudes summed into it, |seed| + |G| t (3.7 at most), and
    # the same escape times within 8 ulps (2 at most)
    G, D = parse_symbol(symbol), parse_domain(domain)
    seeds = D.sample_grid(1)
    for seed, (points, status) in zip(
            seeds, integrate_seeds(G, D, seeds, 2.0, TOL, 0.0)):
        ref = integrate(G, D, seed, 2.0, TOL)
        assert len(points) == len(ref.points)
        mag = abs(seed) + abs(G.eval(0j)) * ref.times
        assert np.all(np.abs(points - ref.points) <= 8 * EPS * mag), seed
        assert (status.kind, status.at_infinity, status.horizon) == (
            ref.status.kind, ref.status.at_infinity, ref.status.horizon)
        if ref.escaped:
            assert status.exit_point == points[-1]
            assert abs(status.t_escape - ref.status.t_escape) <= (
                8 * EPS * ref.status.t_escape), seed


def _off_canvas(px, inset):
    """Whether each pixel point lies outside the canvas box widened by
    _MARGIN_PX less inset."""
    lo, hi = inset - _MARGIN_PX, CANVAS + _MARGIN_PX - inset
    return ((px.real < lo) | (px.real > hi) | (px.imag < lo)
            | (px.imag > hi))


@pytest.mark.parametrize("symbol,domain,density,horizon", CASES,
                         ids=[c[0] + "@" + c[1] for c in CASES])
def test_portrait_drops_only_samples_within_a_quarter_pixel(
        symbol, domain, density, horizon):
    # every polyline is a subsequence of the reference, and each reference
    # point left out between its first and last vertex lies within 0.25 px
    # of the segment of the polyline that spans it. Before its first and
    # after its last vertex the reference lies off the canvas: there the
    # trimmed segments missed the canvas box, and the reference points
    # they span lie within 0.25 px of them. (z^2 escapes towards R_MAX,
    # 1e10 px away; its polylines are the ones trimmed.)
    G, D = parse_symbol(symbol), parse_domain(domain)
    svg, _ = render_portrait(G, D, density, horizon, TOL)
    drawn = _polyline_vertices(svg)
    ref = _reference_polylines(G, D, density, horizon)
    assert len(drawn) == len(ref)
    assert sum(map(len, drawn)) < sum(len(text) for _, text in ref)
    trimmed = 0
    for kept, (px, text) in zip(drawn, ref):
        at = _embedding(kept, text)
        assert at is not None
        assert np.all(_off_canvas(px[:at[0]], 0.25))
        assert np.all(_off_canvas(px[at[-1] + 1:], 0.25))
        trimmed += at[0] > 0 or at[-1] < len(text) - 1
        if len(at) == 1:
            continue
        xy = np.array([complex(*map(float, v.split(","))) for v in kept])
        # the kept segment that spans each reference point
        seg = np.searchsorted(at, np.arange(len(text)), "right") - 1
        seg = np.minimum(seg, len(at) - 2)
        dropped = np.setdiff1d(np.arange(at[0], at[-1] + 1), at)
        dist = _distance_to_segments(px[dropped], xy[seg[dropped]],
                                     xy[seg[dropped] + 1])
        assert np.all(dist < 0.25), (symbol, float(dist.max()))
    assert bool(trimmed) == (symbol == "z^2" and domain == "halfplane:right")


@pytest.mark.parametrize("symbol", ["mobius(1,0,1,-0.5)", "1/(z-0.5)"])
def test_skipped_seed_warnings_match_scalar_path(symbol, caplog):
    G, D = parse_symbol(symbol), Domain.unit_disc()
    expected = []
    for seed in D.sample_grid(2):
        ref = _scalar(G, D, seed, 2.0)
        if isinstance(ref, HoloflowError):
            expected.append("portrait seed %r skipped: %s" % (seed, ref))
    assert expected  # the seed 0.5 sits on the pole
    with caplog.at_level(logging.WARNING, logger="holoflow.portrait"):
        _, summary = render_portrait(G, D, 2, 2.0, TOL)
    assert [r.getMessage() for r in caplog.records] == expected
    assert summary["failed"] == len(expected)


def test_step_limit_fails_seeds_without_traceback(monkeypatch, caplog):
    monkeypatch.setattr(semiflow, "_MAX_STEPS", 20)
    G, D = parse_symbol("i*z"), Domain.unit_disc()
    seeds = D.sample_grid(1)
    lanes = integrate_seeds(G, D, seeds, 5.0, TOL, 0.0)
    assert all(isinstance(lane, StiffnessError)
               and str(lane) == "step limit exceeded" for lane in lanes)
    with pytest.raises(StiffnessError, match="step limit exceeded"):
        integrate(G, D, seeds[0], 5.0, TOL)
    with caplog.at_level(logging.WARNING, logger="holoflow.portrait"):
        _, summary = render_portrait(G, D, 1, 5.0, TOL)
    assert summary == {"seeds": len(seeds), "completed": 0, "escaped": 0,
                       "failed": len(seeds)}
    assert len(caplog.records) == len(seeds)


def test_bad_parameters_raise_before_any_seed():
    G, D = parse_symbol("i*z"), Domain.unit_disc()
    for horizon, tol in ((0.0, TOL), (float("inf"), TOL), (1.0, 1.0)):
        with pytest.raises(HoloflowError):
            integrate_seeds(G, D, D.sample_grid(1), horizon, tol, 0.0)


def test_seed_outside_the_domain_fails_alone():
    G, D = parse_symbol("i*z"), Domain.unit_disc()
    lanes = integrate_seeds(G, D, [0.5, 2.0], 1.0, TOL, 0.0)
    assert lanes[0][1].kind == "Completed"
    assert str(lanes[1]) == str(_scalar(G, D, 2.0, 1.0))


def _per_point(xs, ys):
    return " ".join("%.2f,%.2f" % (x, y) for x, y in zip(xs, ys))


def _polyline(text, stroke, dash):
    return ('<polyline points="%s" fill="none" stroke="%s" stroke-width="1"'
            '%s/>' % (text, stroke, dash))


def test_polylines_match_per_point_format():
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        [-0.0, 0.0, -0.004, 0.005, 0.015, 0.125, 0.375, 2.675, 1.005,
         -1.005, 799.995, 1e8, -3.5e12, 1e300],
        rng.uniform(-50.0, 850.0, 200),
    ])
    ys = np.concatenate([
        [0.0, -0.0, 0.004, -0.005, -0.015, -0.125, 0.625, -2.675, 0.045,
         1e-300, -1e8, 7.25e15, 12345.675, -1e300],
        np.round(rng.uniform(-50.0, 850.0, 200), 3),
    ])
    points = np.empty(len(xs), complex)
    points.real, points.imag = xs, ys

    def same(v):
        return v

    # one polyline of every point, then the points split into polylines
    # of 1 to 60 vertices, each formatted on its own
    cuts = [0, 1, 2, 14, 15, 75, 135, 136, 196, len(xs)]
    for pieces in ([(0, len(xs))], list(zip(cuts, cuts[1:]))):
        drawn = [(points[a:b], _PALETTE[k % 8], ' stroke-dasharray="6,4"'
                  if k % 3 else "") for k, (a, b) in enumerate(pieces)]
        ref = "\n".join(
            _polyline(_per_point(xs[a:b].tolist(), ys[a:b].tolist()),
                      stroke, dash)
            for (a, b), (_, stroke, dash) in zip(pieces, drawn))
        assert _polylines(same, same, drawn) == ref
    assert _polylines(same, same, [(points[:1], "#000000", "")]) == (
        _polyline("-0.00,0.00", "#000000", ""))


@pytest.mark.parametrize("size", [1, 5, 64, 1000])
def test_polyline_slices_keep_the_text(monkeypatch, size):
    # polylines are filled in runs of about _SLICE vertices; any run
    # length gives the text of one run
    G, D = parse_symbol("(-0.25+1i)*z"), Domain.unit_disc()
    svg, _ = render_portrait(G, D, 1, 6.0, TOL)
    monkeypatch.setattr(portrait, "_SLICE", size)
    assert render_portrait(G, D, 1, 6.0, TOL)[0] == svg
    monkeypatch.setattr(portrait, "_SLICE", 10 ** 9)
    assert render_portrait(G, D, 1, 6.0, TOL)[0] == svg


def test_large_portrait_memory_is_bounded():
    # 1,056 seeds, 7,392 vertices: one % over every vertex peaked at
    # 1,333,907 traced bytes, formatting each polyline alone at 817 KB
    G, D = parse_symbol("0.5+0.2i"), Domain.half_plane("right")
    render_portrait(G, D, 2, 3.0, TOL)  # first-call allocations
    tracemalloc.start()
    try:
        _, summary = render_portrait(G, D, 2, 3.0, TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary["completed"] == 1056
    assert peak < 1_000_000


def _fixed2_texts(values):
    """_fixed2 of values with a comma after each, as one text per value,
    or None when the kernel declines the run."""
    values = np.array(values, float)
    text = _fixed2(values, np.full(len(values), ord(","), np.uint8))
    return None if text is None else text.decode().split(",")[:-1]


def _guarded(x):
    """Whether the kernel must leave x to %: x is not finite, not below
    _FIXED2_MAX, or 100 x is within 1e-6 of a half-integer."""
    if not abs(x) < _FIXED2_MAX:
        return True
    y = 100.0 * x
    return abs(y - round(y)) > 0.5 - 1e-6


def _neighbours(x, ulps=3):
    """x and the floats up to ulps steps on either side."""
    out = [x]
    for towards in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, towards)
            out.append(y)
    return out


# exact half-cent ties k/100 + 0.005 (as floats), and their neighbours
HALF_CENTS = st.integers(-999_999, 999_999).map(lambda k: k / 100 + 0.005)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           -1e-310, 0.004, -0.004, 0.005, -0.005, 0.125, -0.375, 2.675,
           math.inf, -math.inf, math.nan, _FIXED2_MAX,
           -_FIXED2_MAX, 9_999.98, -9_999.98, 9_999.985, 1e300, -1e308]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    st.floats(),  # every float: subnormals, +-inf and NaN included
    st.floats(-20.0, 830.0),  # pixel values
    st.floats(9_990.0, 10_010.0).flatmap(lambda x: st.sampled_from([x, -x])),
    HALF_CENTS,
    HALF_CENTS.flatmap(lambda x: st.sampled_from(_neighbours(x)))))
def test_fixed2_writes_the_bytes_of_percent_format(x):
    assert _fixed2_texts([x]) == (None if _guarded(x) else ["%.2f" % x])


@pytest.mark.parametrize("x", SPECIAL)
def test_fixed2_on_special_values(x):
    for y in _neighbours(x):
        assert _fixed2_texts([y]) == (None if _guarded(y) else ["%.2f" % y])


def test_fixed2_writes_each_value_of_a_run_alone():
    rng = np.random.default_rng(11)
    values = np.concatenate([
        [-0.0, 0.0, -0.004, 0.004, 0.01, -0.01, 9.995001, 99.99, 100.0,
         999.994, 1000.0, -9_999.98, 9_999.98],
        rng.uniform(-_MARGIN_PX, CANVAS + _MARGIN_PX, 5000),
        np.round(rng.uniform(-1000.0, 1000.0, 1000), 2),
        rng.uniform(-1e-3, 1e-3, 500)])
    assert _fixed2_texts(values) == ["%.2f" % x for x in values.tolist()]
    assert _fixed2_texts([]) == []
    for bad in (672.825, 1e4, -1e10, math.inf, math.nan):
        assert _fixed2_texts(np.append(values, bad)) is None


def test_one_tie_sends_its_run_to_the_reference_format(monkeypatch):
    # 672.825 is a half-cent tie for the kernel (100 x rounds to 67282.5);
    # a run that holds it is written by % alone, with the same text
    results = []

    def recording(values, seps):
        results.append(_fixed2(values, seps))
        return results[-1]

    monkeypatch.setattr(portrait, "_fixed2", recording)
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 800.0, 200) + 1j * rng.uniform(0.0, 800.0, 200)

    def same(v):
        return v

    for tie, fast in ((672.825, False), (672.8251, True)):
        p = points.copy()
        p[77] = complex(p[77].real, tie)
        drawn = [(p[:100], "#000000", ""), (p[100:], "#1f77b4", "")]
        results.clear()
        text = _polylines(same, same, drawn)
        assert [r is not None for r in results] == [fast]
        assert text == "\n".join(_polyline(
            _per_point(q.real.tolist(), q.imag.tolist()), stroke, dash)
            for q, stroke, dash in drawn)


def _trim(xs, ys):
    """(a, b): the vertices a .. b - 1 of a polyline of pixel points, one
    segment at a time, without its leading and trailing segments whose
    bounding box lies outside the canvas box widened by _MARGIN_PX."""
    lo, hi = -_MARGIN_PX, CANVAS + _MARGIN_PX
    hits = [k for k in range(len(xs) - 1) if not (
        max(xs[k], xs[k + 1]) < lo or min(xs[k], xs[k + 1]) > hi
        or max(ys[k], ys[k + 1]) < lo or min(ys[k], ys[k + 1]) > hi)]
    return (hits[0], hits[-1] + 2) if hits else (0, 1)


@pytest.mark.parametrize("symbol,domain,density,horizon", CASES,
                         ids=[c[0] + "@" + c[1] for c in CASES])
def test_portrait_matches_per_polyline_format(symbol, domain, density,
                                              horizon):
    # the SVG is the text of formatting each kept polyline on its own, per
    # vertex, between the same frame lines
    G, D = parse_symbol(symbol), parse_domain(domain)
    svg, summary = render_portrait(G, D, density, horizon, TOL)
    fx, fy = _viewport(D)
    ref = [line for line in svg.split("\n")[:-2]
           if not line.startswith("<polyline")]
    frame = len(ref)
    lanes = integrate_seeds(G, D, D.sample_grid(density), horizon, TOL,
                            0.25 / (fx(1.0) - fx(0.0)))
    for idx, lane in enumerate(lanes):
        if isinstance(lane, HoloflowError):
            continue
        points, status = lane
        a, b = _trim(fx(points.real).tolist(), fy(points.imag).tolist())
        points = points[a:b]
        ref.append(_polyline(
            _per_point(fx(points.real).tolist(), fy(points.imag).tolist()),
            _PALETTE[idx % len(_PALETTE)],
            ' stroke-dasharray="6,4"' if status.kind == "Escaped" else ""))
    assert svg == "\n".join(ref + ["</svg>\n"])
    assert len(ref) - frame == summary["seeds"] - summary["failed"]


def test_sample_passes_keep_every_point(monkeypatch):
    # the run holds its accepted steps and samples blocks of about
    # _STEP_BLOCK lane-steps, each in passes of about _SAMPLE_BLOCK dense
    # times; one lane a pass, one lane-step a block (each step alone) and
    # one block for the whole run give the same bits, with every step
    # sampled (chord_tol 0) and with the portrait's chord test. The whole
    # run keeps every array handed to the accepted-step hook until its
    # end, so it also fails if the run writes one of them in place.
    G, D = parse_symbol("(-0.25+1i)*z"), Domain.unit_disc()
    seeds = D.sample_grid(1)
    for chord_tol in (0.0, 0.25 / (CANVAS / 2.2)):
        ref = integrate_seeds(G, D, seeds, 6.0, TOL, chord_tol)
        for name, size in (("_SAMPLE_BLOCK", 3), ("_STEP_BLOCK", 1),
                           ("_STEP_BLOCK", 10 ** 9)):
            with monkeypatch.context() as patch:
                patch.setattr(semiflow, name, size)
                lanes = integrate_seeds(G, D, seeds, 6.0, TOL, chord_tol)
            for (points, status), (ref_points, ref_status) in zip(lanes,
                                                                   ref):
                assert points.tobytes() == ref_points.tobytes(), name
                assert status == ref_status


def test_seed_errors_keep_their_type_text_and_place():
    # a seed outside the domain, NaN seeds, seeds on the pole and good
    # seeds, interleaved: each error is the one the scalar path raises, in
    # the seed's place, and the good seeds integrate as on their own
    G, D = parse_symbol("1/(z-0.5)"), Domain.unit_disc()
    nan = float("nan")
    seeds = [0.3, 2.0, 0.5, complex(nan, 0.1), -0.2 + 0.4j, 0.5 + 0j, nan,
             1.0, 0.1j, -1.5j]
    lanes = integrate_seeds(G, D, seeds, 2.0, TOL, 0.0)
    good = [i for i, lane in enumerate(lanes)
            if not isinstance(lane, HoloflowError)]
    assert good == [0, 4, 8]
    for seed, lane in zip(seeds, lanes):
        ref = _scalar(G, D, seed, 2.0)
        if isinstance(ref, HoloflowError):
            assert type(lane) is type(ref) and str(lane) == str(ref), seed
    assert [type(lanes[i]).__name__ for i in (1, 2, 3, 5, 6, 7, 9)] == [
        "DomainError", "PoleError", "DomainError", "PoleError",
        "DomainError", "DomainError", "DomainError"]
    alone = integrate_seeds(G, D, [seeds[i] for i in good], 2.0, TOL, 0.0)
    for i, (points, status) in zip(good, alone):
        assert np.array_equal(lanes[i][0], points)
        assert lanes[i][1] == status


@pytest.mark.parametrize("domain", ["unitdisc", "disc:0.5,-1,2",
                                    "halfplane:right", "halfplane:upper"])
def test_viewport_on_arrays_matches_scalars(domain):
    fx, fy = _viewport(parse_domain(domain))
    pts = np.random.default_rng(3).normal(size=300) * 3 + 1j * np.arange(300)
    assert fx(pts.real).tolist() == [fx(p.real) for p in pts.tolist()]
    assert fy(pts.imag).tolist() == [fy(p.imag) for p in pts.tolist()]


# a rotation, a pole (seeds pulled into it fail, a seed on it fails at
# once), an escape from the disc, an escape to infinity through R_MAX and a
# z-free half-plane symbol
NEIGHBOUR_CASES = [
    ("(-0.25+1i)*z", "unitdisc", 1, 6.0),
    ("1/(z-0.5)", "unitdisc", 1, 5.0),
    ("(1.1+0.2i)*z", "unitdisc", 1, 4.0),
    ("z^2", "halfplane:right", 1, 0.5),
    ("0.1-1i", "halfplane:upper", 1, 1.3),
]


@pytest.mark.parametrize("symbol,domain,density,horizon", NEIGHBOUR_CASES,
                         ids=[c[0] + "@" + c[1] for c in NEIGHBOUR_CASES])
def test_lanes_do_not_depend_on_their_neighbours(symbol, domain, density,
                                                 horizon):
    # each seed's points and status, bit for bit, or its error text, are
    # the same over random subsets of the seeds in random order
    G, D = parse_symbol(symbol), parse_domain(domain)
    seeds = D.sample_grid(density) + [0.5 + 0.01j, 0.5 - 0.01j]
    ref = integrate_seeds(G, D, seeds, horizon, TOL, 0.0)
    rng = np.random.default_rng(18)
    for size in (1, 3, 11, len(seeds) // 2, len(seeds) - 1):
        pick = rng.permutation(len(seeds))[:size].tolist()
        lanes = integrate_seeds(G, D, [seeds[i] for i in pick], horizon, TOL,
                                0.0)
        for i, lane in zip(pick, lanes):
            if isinstance(ref[i], HoloflowError):
                assert type(lane) is type(ref[i])
                assert str(lane) == str(ref[i])
            else:
                assert lane[0].tobytes() == ref[i][0].tobytes(), seeds[i]
                assert lane[1] == ref[i][1], seeds[i]
    if symbol == "1/(z-0.5)":
        assert _kinds(ref) == {"StiffnessError", "PoleError",
                               ("Escaped", False)}


def test_on_canvas_trims_only_the_ends():
    # pixel points: z = x + iy is the pixel (x, y); the canvas box is
    # [-10, 810]^2
    def line(*pts):
        return np.array(pts, complex)

    inside = line(100 + 100j, 200 + 300j, 400 + 400j)
    leaving = line(400 + 400j, 790 + 400j, 900 + 400j, 1e6 + 400j,
                   1e10 + 1e10j)
    entering = leaving[::-1]
    # out and back: the middle run past the right edge stays
    detour = line(400 + 400j, 900 + 400j, 1e4 + 400j, 900 + 500j,
                  400 + 500j)
    across = line(-50 - 50j, 850 + 850j, 1e3 + 1e3j)  # bounding box overlaps
    outside = line(-20 + 400j, -1e3 + 400j, -30 + 900j)
    single = line(-1e3 + 0j)
    lines = [inside, leaving, entering, detour, across, outside, single]
    got = _on_canvas(lambda x: x, lambda y: y, lines)
    want = [inside, leaving[:3], entering[2:], detour, across[:2],
            outside[:1], single]
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    # one point at a time, as in test_portrait_matches_per_polyline_format
    for p, g in zip(lines, got):
        a, b = _trim(p.real.tolist(), p.imag.tolist())
        assert g.tolist() == p[a:b].tolist()


def test_escapes_to_infinity_keep_few_vertices_off_the_canvas():
    # 263 of the 272 seeds escape towards R_MAX, up to 1e10 px away; drawn
    # in full, the portrait was 331,119 bytes with 15,561 of its 19,627
    # vertices outside the canvas box (83,293 bytes and 215 of 4,281 now)
    G, D = parse_symbol("z^2"), Domain.half_plane("right")
    svg, summary = render_portrait(G, D, 1, 0.5, TOL)
    assert summary["escaped"] == 263
    xy = np.array([complex(*map(float, v.split(",")))
                   for kept in _polyline_vertices(svg) for v in kept])
    assert len(svg) < 100_000 and len(xy) < 5_000
    assert np.count_nonzero(_off_canvas(xy, 0.0)) < 300


@pytest.mark.parametrize("domain", ["unitdisc", "disc:0.5,-0.25,2",
                                    "halfplane:right", "halfplane:upper"])
def test_seed_grids_are_built_once(domain, monkeypatch):
    D = parse_domain(domain)
    seeds = geometry._grid(D, 2)
    assert isinstance(seeds, tuple)
    assert seeds == tuple(D.sample_grid(2))
    assert geometry._grid(parse_domain(domain), 2) is seeds
    # the portrait integrates that cached grid
    seen = []
    original = portrait.integrate_seeds

    def spy(G, D, seeds, *rest):
        seen.append(seeds)
        return original(G, D, seeds, *rest)

    monkeypatch.setattr(portrait, "integrate_seeds", spy)
    render_portrait(parse_symbol("-z"), parse_domain(domain), 2, 0.1, TOL)
    assert seen[0] is seeds


class _CountingSymbol:
    """A symbol that records the points of every evaluation."""

    def __init__(self, G):
        self.G, self.calls = G, []

    def eval(self, z):
        self.calls.append(np.array(z, copy=True))
        return self.G.eval(z)


def test_seeds_are_evaluated_once(monkeypatch):
    # G at the seeds is the lanes' first slope: one evaluation fewer than a
    # run whose driver evaluates the slope anew, and the same SVG bytes
    seeds = (0.5, -0.5, 0.5j, -0.25 + 0.25j)
    monkeypatch.setattr(portrait, "_grid", lambda domain, density: seeds)
    runs = []
    for anew in (False, True):
        if anew:
            drive = semiflow._drive
            monkeypatch.setattr(semiflow, "_drive",
                                lambda *a, start=None, **kw: drive(*a, **kw))
        G = _CountingSymbol(parse_symbol("i*z"))
        svg, summary = render_portrait(G, Domain.unit_disc(), 1, 1.5, TOL)
        assert summary["completed"] == 4
        runs.append((svg, G.calls))
    (svg, calls), (svg_anew, calls_anew) = runs
    assert svg == svg_anew
    assert len(calls) == len(calls_anew) - 1
    assert np.array_equal(calls_anew[0], calls_anew[1])
    assert np.array_equal(calls[0], seeds)
    assert not np.array_equal(calls[1], seeds)
