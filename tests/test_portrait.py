"""Portraits integrate their seeds as independent lanes of one run of _drive.

Each lane must reproduce the scalar trajectory of its seed: the same
outcome, the same error text, the same end point up to the last bits of a
complex product (numpy and Python round some of them differently), and
the polyline text must be the per-point "%.2f,%.2f" text.
"""

import logging
import tracemalloc

import numpy as np
import pytest

from holoflow import (
    Domain,
    HoloflowError,
    StiffnessError,
    integrate,
    parse_domain,
    parse_symbol,
)
from holoflow import portrait, semiflow
from holoflow.portrait import _PALETTE, _polylines, _viewport, render_portrait
from holoflow.semiflow import integrate_seeds

TOL = 1e-9

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


def _same_error(lane, ref):
    """Same type and text; an underflow time may move in the last bits."""
    if type(lane) is not type(ref):
        return False
    got, want = str(lane), str(ref)
    if got.startswith("step size underflow at t="):
        t_got, t_want = (float(x.split("=")[1].split()[0])
                         for x in (got, want))
        return abs(t_got - t_want) <= 1e-9 * t_want
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
    # away from the boundary); the others escape or start on the pole
    G, D = parse_symbol("1/(z-0.5)"), Domain.unit_disc()
    seeds = [0.5 + 0.01j, 0.3, 0.5, 0.5 - 0.01j, 0.49 + 0.001j]
    lanes = _assert_lanes_match(G, D, seeds, 5.0)
    assert _kinds(lanes) == {"StiffnessError", ("Escaped", False),
                             "PoleError"}


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
    # a symbol free of z involves no complex product, so lanes and the
    # scalar path do the same arithmetic and record the same points
    G, D = parse_symbol(symbol), parse_domain(domain)
    seeds = D.sample_grid(1)
    for seed, (points, _) in zip(
            seeds, integrate_seeds(G, D, seeds, 2.0, TOL, 0.0)):
        assert np.array_equal(points, integrate(G, D, seed, 2.0, TOL).points)


@pytest.mark.parametrize("symbol,domain,density,horizon", CASES,
                         ids=[c[0] + "@" + c[1] for c in CASES])
def test_portrait_drops_only_samples_within_a_quarter_pixel(
        symbol, domain, density, horizon):
    # every polyline is a subsequence of the reference, from the same first
    # to the same last vertex, and each reference point left out lies
    # within 0.25 px of the segment of the polyline that spans it. (The
    # scalar path itself is no exact reference: escapes of z^2 towards
    # R_MAX reach 1e10 px, where a last-bit difference shows.)
    G, D = parse_symbol(symbol), parse_domain(domain)
    svg, _ = render_portrait(G, D, density, horizon, TOL)
    drawn = _polyline_vertices(svg)
    ref = _reference_polylines(G, D, density, horizon)
    assert len(drawn) == len(ref)
    assert sum(map(len, drawn)) < sum(len(text) for _, text in ref)
    for kept, (px, text) in zip(drawn, ref):
        at = _embedding(kept, text)
        assert at is not None and at[0] == 0 and at[-1] == len(text) - 1
        xy = np.array([complex(*map(float, v.split(","))) for v in kept])
        # the kept segment that spans each reference point
        seg = np.searchsorted(at, np.arange(len(text)), "right") - 1
        seg = np.minimum(seg, len(at) - 2)
        dropped = np.setdiff1d(np.arange(len(text)), at)
        dist = _distance_to_segments(px[dropped], xy[seg[dropped]],
                                     xy[seg[dropped] + 1])
        assert np.all(dist < 0.25), (symbol, float(dist.max()))


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
        ref.append(_polyline(
            _per_point(fx(points.real).tolist(), fy(points.imag).tolist()),
            _PALETTE[idx % len(_PALETTE)],
            ' stroke-dasharray="6,4"' if status.kind == "Escaped" else ""))
    assert svg == "\n".join(ref + ["</svg>\n"])
    assert len(ref) - frame == summary["seeds"] - summary["failed"]


def test_sample_passes_keep_every_point(monkeypatch):
    # a step's lanes are sampled in passes of about _SAMPLE_BLOCK dense
    # times; one lane a pass gives the same bits
    G, D = parse_symbol("(-0.25+1i)*z"), Domain.unit_disc()
    seeds = D.sample_grid(1)
    ref = integrate_seeds(G, D, seeds, 6.0, TOL, 0.0)
    monkeypatch.setattr(semiflow, "_SAMPLE_BLOCK", 3)
    lanes = integrate_seeds(G, D, seeds, 6.0, TOL, 0.0)
    for (points, status), (ref_points, ref_status) in zip(lanes, ref):
        assert points.tobytes() == ref_points.tobytes()
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
