import cmath
import math
import re
import time

import numpy as np
import pytest

from holoflow import (
    BadParameter,
    Const,
    Domain,
    HoloflowError,
    Mobius,
    PoleError,
    ToleranceError,
    bp_build,
    bp_classify,
    escape_time,
    herglotz_check,
    parse_symbol,
)
from holoflow import classify
from holoflow.expr import Poly, Product, Ratio, Sum
from holoflow.geometry import _grid
from holoflow.semiflow import _final_state

HALF_PLANE_MAP = Mobius(1, 1, -1, 1)  # (1+z)/(1-z), Herglotz on the disc


def herglotz_family(c, d):
    return Sum(Const(c), Product(Const(d), HALF_PLANE_MAP))


def test_bp_build_examples():
    G = bp_build(0j, Const(1.0))
    for z in (0.3, -0.5j, 0.1 + 0.2j):
        assert G.eval(z) == pytest.approx(-z)
    G = bp_build(1.0, Const(1.0))
    assert G.eval(0j) == pytest.approx(1.0)
    for z in (0.3, 0.5j):
        assert G.eval(z) == pytest.approx((1 - z) ** 2)
    G = bp_build(0j, Const(1j))
    assert G.eval(0.25) == pytest.approx(-0.25j)


def test_bp_build_rejects_outside_points():
    with pytest.raises(BadParameter):
        bp_build(1.5, Const(1.0))


def test_herglotz_check_constants():
    assert herglotz_check(Const(1.0), 2).min_re == 1.0
    assert herglotz_check(Const(-1.0), 2).min_re == -1.0


def test_herglotz_check_half_plane_map_closed_form():
    # Re((1+z)/(1-z)) = (1-|z|^2)/|1-z|^2 on the same grid
    for density in (1, 2, 3):
        grid = Domain.unit_disc().sample_grid(density)
        oracle = min((1 - abs(z) ** 2) / abs(1 - z) ** 2 for z in grid)
        got = herglotz_check(HALF_PLANE_MAP, density).min_re
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got >= 0
    # and the minimum sinks toward 0 as the grid fills out
    assert (herglotz_check(HALF_PLANE_MAP, 3).min_re
            < herglotz_check(HALF_PLANE_MAP, 1).min_re)


def test_herglotz_constant_shift_is_exact():
    base = herglotz_check(HALF_PLANE_MAP, 2).min_re
    eps = 0.3725
    shifted = herglotz_check(Sum(HALF_PLANE_MAP, Const(eps)), 2).min_re
    assert shifted == base + eps


def test_herglotz_pole_on_grid_raises():
    grid = Domain.unit_disc().sample_grid(1)
    z0 = grid[3]
    with pytest.raises(PoleError):
        herglotz_check(Ratio(Const(1.0), Poly((-z0, 1.0))), 1)


def test_classify_linear_contraction():
    v = bp_classify(parse_symbol("-z"))
    assert v.status == "Global"
    assert abs(v.b) <= 1e-10
    assert v.min_re_F >= 1 - 1e-12


def test_classify_expansion_gives_witness():
    v = bp_classify(parse_symbol("z"))
    assert v.status == "NotGlobal"
    assert v.witness is not None
    z0, t = v.witness.z0, v.witness.t_escape
    assert abs(t - math.log(1 / abs(z0))) <= 1e-6


def test_classify_rotation_boundary_case():
    v = bp_classify(parse_symbol("-i*z"))
    assert v.status == "Global"
    assert abs(v.b) <= 1e-10


def test_classify_parabolic_symbol():
    v = bp_classify(parse_symbol("1-z^2"))
    assert v.status == "Global"
    assert abs(v.b - 1.0) <= 1e-8
    assert v.min_re_F >= -1e-9


def test_classify_drift_not_global():
    v = bp_classify(parse_symbol("1"))
    assert v.status == "NotGlobal"
    assert v.witness is not None


def test_classify_two_interior_zeros():
    # z(1-z) fixes 0 and has a boundary zero; the flow pushes left-hand
    # seeds out of the disc, so no factorization candidate may pass
    v = bp_classify(parse_symbol("z*(1-z)"))
    assert v.status == "NotGlobal"


def test_orbit_creeping_to_the_wall_is_no_witness():
    # G equals 1 - z^2 off z = 0, where it raises, so every ring is void
    # and the hunt runs; the orbit from 0.5 follows the tanh flow towards
    # the fixed point 1 and meets the wall near t = 10.19, moving outward at
    # about 2e-9 there: an escape of the integrator, not a finite exit time
    v = bp_classify(parse_symbol("1-z^2+0/z"))
    assert v.status != "NotGlobal"
    assert v.witness is None
    assert v.certificate is None


@pytest.mark.parametrize("symbol,min_re_p", [
    # Re p on the circle is 1 - 1.05 Re z^50, (1.25 - Re z)(1 - 1.1 Re z^40)
    # and 1 - 1.2 Re z^20; the sampled circle meets each minimum
    ("-z*(1-1.05*z^50)", -0.05),
    ("(0.5-z)*(1-0.5*z)*(1-1.1*z^40)", -0.225),
    ("-z*(1-1.2*z^20)", -0.2),
    # the pole voids the ring through it, and Re p < 0 on the others
    ("1/(z-0.5)", -3.2),
])
def test_negative_re_p_gives_an_outward_witness(symbol, min_re_p):
    G = parse_symbol(symbol)
    start = time.perf_counter()
    v = bp_classify(G)
    assert time.perf_counter() - start < 1.0
    assert v.status == "NotGlobal"
    assert v.b is None and v.min_re_F is None
    assert v.certificate.min_re == pytest.approx(min_re_p, abs=1e-12)
    kind, t, p = _final_state(G, Domain.unit_disc(), v.witness.z0, 20.0,
                              1e-9)
    assert t == v.witness.t_escape
    assert (p.conjugate() * G.eval(p)).real / abs(p) > math.sqrt(1e-9)


@pytest.mark.parametrize("symbol", [
    "(1-z)^2*(1+z)/(1-z)", "(1+z)*(1-z)^3/(1-z)^2"])
def test_common_factor_symbols_are_never_not_global(symbol):
    # both equal 1 - z^2, a generator, off z = 1, where they raise
    start = time.perf_counter()
    v = bp_classify(parse_symbol(symbol))
    assert time.perf_counter() - start < 1.0
    assert v.status != "NotGlobal" and v.witness is None
    assert abs(v.certificate.min_re) <= 1e-12


def test_a_raising_ring_is_void_and_the_rest_stay_clean():
    # the stacked evaluation raises at z = 1; ring by ring only the circle
    g, re = classify._ring_test(parse_symbol("(1-z)^2*(1+z)/(1-z)"))
    assert np.isnan(re[-1]).all() and np.isnan(g[-1]).all()
    assert np.isfinite(re[:-1]).all()
    assert np.abs(re[:-1]).max() <= 1e-12


def test_boundary_zero_with_positive_derivative_is_not_b():
    # z^2 - 1 flows towards -1; the zero 1 comes first in the Newton order,
    # and G'(1) = 2 > 0 refuses it (its F = -(1 + z)/(1 - z) has Re F < 0)
    v = bp_classify(parse_symbol("z^2-1"))
    assert v.status == "Global" and abs(v.b + 1) <= 1e-12
    assert v.min_re_F >= -1e-9


@pytest.mark.parametrize("symbol,min_re_F", [
    ("1-z^2", 0.0019569471624266144),
    # from the seed 0.999 the doubled Newton step lands on 1, where G = 0
    # and G' = 0
    ("(1-z)^2", 1.0),
])
def test_boundary_b_of_a_parabolic_symbol_is_1(symbol, min_re_F):
    start = time.perf_counter()
    v = bp_classify(parse_symbol(symbol))
    assert time.perf_counter() - start < 1.0
    assert v.status == "Global" and v.b == 1
    assert v.min_re_F == pytest.approx(min_re_F, abs=1e-12)
    assert abs(v.certificate.min_re) <= 1e-12


@pytest.mark.parametrize("symbol,t_escape", [
    ("z", 0.69314717925242408),
    ("z^2+0.5", 0.48060196592323418),
    ("2*z+1", 0.20273255367528331),
    ("1/(z-0.5)", 0.26438731947633332),
])
def test_witness_is_the_escape_time_of_its_seed(symbol, t_escape):
    # orbits that cross the wall keep their witness, bit for bit
    G = parse_symbol(symbol)
    v = bp_classify(G)
    assert v.status == "NotGlobal"
    assert v.witness.t_escape == t_escape
    assert v.witness.t_escape == escape_time(G, Domain.unit_disc(),
                                             v.witness.z0, 20.0, 1e-9)


def test_round_trip_randomized():
    rng = np.random.default_rng(20240817)
    for _ in range(8):
        r = 0.9 * math.sqrt(rng.uniform())
        theta = rng.uniform(0, 2 * math.pi)
        b = r * complex(math.cos(theta), math.sin(theta))
        c = rng.uniform(0.1, 2.0)
        d = rng.uniform(0.0, 2.0)
        G = bp_build(b, herglotz_family(c, d))
        v = bp_classify(G)
        assert v.status == "Global"
        assert abs(v.b - b) <= 1e-8


def test_round_trip_interior_zero_on_grid_point():
    # b sits exactly on a grid point, where F = G / ((b - z)(1 - b z)) is
    # 0/0: the Re F sheet skips that sample and b stays
    b = 0.5 + 0j
    G = bp_build(b, Const(1.0))
    v = bp_classify(G)
    assert v.status == "Global"
    assert abs(v.b - b) <= 1e-8


@pytest.mark.parametrize("kwargs", [
    {"escape_t_max": -1.0}, {"escape_t_max": 0.0},
    {"escape_t_max": math.inf}, {"escape_t_max": math.nan},
    {"escape_tol": 0.0}, {"escape_tol": 1.0}, {"escape_tol": math.nan},
])
def test_bad_escape_parameters_raise_before_any_work(kwargs):
    # every seed of z -> z e^t escapes, so a hidden BadParameter would
    # read as Inconclusive
    with pytest.raises(BadParameter):
        bp_classify(parse_symbol("z"), **kwargs)


# -- lanes against the scalar classifier -------------------------------------
#
# _newton_roots runs its seeds as lanes of one array, and the boundary
# Newton seeds come from one evaluation of G on the rings. The references
# below are scalar loops, one seed and one ring point at a time.


def scalar_newton_roots(G, seeds, tol_b):
    Gp = G.derivative()
    roots = []
    failures = 0
    for seed in seeds:
        z = complex(seed)
        ok = False
        try:
            for _ in range(classify._NEWTON_ITERATIONS):
                g = G.eval(z)
                if g == 0:
                    ok = True
                    break
                gp = Gp.eval(z)
                if abs(gp) < 1e-300:
                    break
                step = g / gp
                z -= step
                if abs(z) > 10.0 or not (
                    math.isfinite(z.real) and math.isfinite(z.imag)
                ):
                    break
                if abs(step) < classify._NEWTON_TOL:
                    ok = True
                    break
        except (HoloflowError, OverflowError, ZeroDivisionError):
            failures += 1
            continue
        if not ok:
            continue
        try:
            if abs(G.eval(z)) > 1e-6:
                continue
        except HoloflowError:
            continue
        if abs(z) <= 1.0 + tol_b:
            roots.append(z)
    if failures == len(seeds):
        raise ToleranceError("Newton failed from every seed")
    roots.sort(key=classify._candidate_key)
    merged = []
    for r in roots:
        if all(abs(r - m) > classify._ROOT_MERGE_DISTANCE for m in merged):
            merged.append(r)
    return merged


def scalar_boundary_seeds(G):
    # the least local minima of |G| on the 0.999 ring, none when G raises
    # at a point of that ring or a value there is not finite
    ring = classify._RING_RADII[classify._BOUNDARY_SEED_RING]
    n = classify._RING_SIZE
    points = [ring * cmath.exp(2j * math.pi * k / n) for k in range(n)]
    try:
        values = [G.eval(w) for w in points]
    except (HoloflowError, OverflowError, ZeroDivisionError):
        return []
    if not all(cmath.isfinite(v) for v in values):
        return []
    m = [abs(v) for v in values]
    low = [k for k in range(n) if m[k] <= m[k - 1] and m[k] <= m[(k + 1) % n]]
    low.sort(key=lambda k: m[k])
    return [points[k] for k in low[:classify._BOUNDARY_SEEDS]]


HAND_SYMBOLS = [
    "-z", "z", "1-z^2", "-z*(1-1.05*z^50)",
    "(0.5-z)*(1-0.5*z)*(1-1.1*z^40)", "-z*(1-1.2*z^20)", "z^2+0.5",
    "1/(z-0.5)", "exp(z)", "0", "1", "i*z", "mobius(1,0,1,-0.5)",
    "(1+z)/(1-z)", "z^3-z",
]


def ctext(c):
    return "(%r%s%ri)" % (c.real, "+" if c.imag >= 0 else "-", abs(c.imag))


def bench_style_bp_symbols():
    """Berkson-Porta symbols written as the benchmark writes them, with b
    inside the disc and on its boundary."""
    rng = np.random.default_rng(8)
    out = []
    for k in range(20):
        if k % 2:
            b = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        else:
            b = cmath.rect(0.9 * math.sqrt(rng.uniform()),
                           rng.uniform(0, 2 * math.pi))
        kappa = cmath.rect(0.8 * math.sqrt(rng.uniform()),
                           rng.uniform(0, 2 * math.pi))
        F = ("%r" % (0.5 + abs(kappa)), "poly(1,%s)" % ctext(kappa),
             "mobius(%s,1,%s,1)" % (ctext(kappa), ctext(-kappa)))[k % 3]
        out.append("poly(%s,-1)*poly(1,%s)*%s"
                   % (ctext(b), ctext(-b.conjugate()), F))
    return out


GRID = _grid(Domain.unit_disc(), 2)
# 16 strided grid points and 16 points of the unit circle
SEEDS = (tuple(GRID[round(i * (len(GRID) - 1) / 15)] for i in range(16))
         + tuple(cmath.exp(2j * math.pi * k / 16) for k in range(16)))
# a pole on the fifth Newton seed: only that lane fails
POLE_ON_SEED = Ratio(parse_symbol("z-0.3"), Poly((-SEEDS[4], 1.0)))


def assert_same_roots(G):
    # roots of equal modulus may swap places when |b| rounds differently,
    # so each root is matched to its nearest counterpart
    lanes = classify._newton_roots(G, SEEDS, 1e-8)
    scalar = scalar_newton_roots(G, SEEDS, 1e-8)
    assert len(lanes) == len(scalar)
    for a in lanes:
        assert min(abs(a - b) for b in scalar) <= 1e-12
    for b in scalar:
        assert min(abs(a - b) for a in lanes) <= 1e-12


@pytest.mark.parametrize("text", HAND_SYMBOLS + bench_style_bp_symbols())
def test_newton_lanes_match_scalar(text):
    assert_same_roots(parse_symbol(text))


@pytest.mark.parametrize("text", HAND_SYMBOLS + bench_style_bp_symbols())
def test_boundary_lanes_match_scalar(text):
    # |G| ties on the ring (|-z| = 0.999, |exp| at conjugate angles) break
    # by rounding, which numpy and Python do differently, so the seeds are
    # compared by their |G| profile
    G = parse_symbol(text)
    g, _ = classify._ring_test(G)
    lanes = classify._boundary_seeds(g)
    scalar = scalar_boundary_seeds(G)
    assert len(lanes) == len(scalar)
    for a, b in zip(lanes, scalar):
        assert abs(G.eval(a)) == pytest.approx(abs(G.eval(b)), rel=1e-12)


def test_newton_pole_on_one_seed_fails_that_lane_only():
    with pytest.raises(PoleError):
        POLE_ON_SEED.eval(SEEDS[4])
    assert_same_roots(POLE_ON_SEED)
    assert classify._newton_roots(POLE_ON_SEED, SEEDS, 1e-8) == [
        pytest.approx(0.3, abs=1e-12)]


def test_newton_fails_from_every_seed():
    den = Const(1.0)
    for s in SEEDS:
        den = Product(den, Poly((-s, 1.0)))
    G = Ratio(Const(1.0), den)
    for reference in (classify._newton_roots, scalar_newton_roots):
        with pytest.raises(ToleranceError):
            reference(G, SEEDS, 1e-8)


def test_seeds_and_grid_are_cached_tuples():
    # the grid is a cached tuple; the ring points, the boundary Newton
    # seeds among them, a cached read-only array
    assert _grid(Domain.unit_disc(), 2) is GRID
    assert isinstance(GRID, tuple)
    assert list(GRID) == Domain.unit_disc().sample_grid(2)
    rings = classify._ring_points()
    assert classify._ring_points() is rings and not rings.flags.writeable
    assert rings.shape == (len(classify._RING_RADII), classify._RING_SIZE)
    assert np.allclose(np.abs(rings).T, classify._RING_RADII, rtol=1e-15)


def test_grid_point_root_skips_its_pole_sample():
    # b = 0.5 is a grid point, so F = G / ((b - z)(1 - b z)) is 0/0 there;
    # that sample raises and is skipped, and F = 1 at every other one
    b = 0.5 + 0j
    assert b in GRID
    G = bp_build(b, Const(1.0))
    sheet, errors = classify._re_sheet(Ratio(G, classify._bp_factor(b)), GRID)
    assert list(errors) == [GRID.index(b)]
    assert isinstance(errors[GRID.index(b)], PoleError)
    assert np.isnan(sheet[GRID.index(b)])
    v = bp_classify(G)
    assert v.status == "Global" and v.b == b
    assert abs(v.min_re_F - 1.0) <= 1e-12


def test_herglotz_argmin_is_first_and_skips_nan():
    grid = (0.1, 0.2, 0.3, 0.4)
    report = classify._lowest(np.array([math.nan, 2.0, 1.0, 1.0]), grid)
    assert (report.min_re, report.argmin) == (1.0, 0.3)
    report = classify._lowest(np.array([math.nan, math.nan]), grid)
    assert (report.min_re, report.argmin) == (math.inf, 0.1)


def test_herglotz_error_names_first_failing_grid_point():
    grid = Domain.unit_disc().sample_grid(1)
    F = Ratio(Const(1.0), Product(Poly((-grid[7], 1.0)),
                                  Poly((-grid[3], 1.0))))
    with pytest.raises(PoleError, match=re.escape(repr(grid[3]))):
        herglotz_check(F, 1)


def test_nan_sheet_never_passes():
    # Re F = 1 wherever 0 * exp(800 z) does not overflow, NaN where it does;
    # G = -z F overflows on every ring but the 0.5 one, which go void
    F = parse_symbol("1+0*exp(800*z)")
    sheet, errors = classify._re_sheet(F, GRID)
    assert not errors
    assert np.isnan(sheet).any() and np.nanmin(sheet) == 1.0
    G = bp_build(0j, F)
    _, re_p = classify._ring_test(G)
    assert np.isfinite(re_p[0]).all() and np.isnan(re_p[1:]).all()
    assert bp_classify(G).status != "Global"


# Newton at a double root: a boundary b makes G = conj(b) (z - b)^2 F, where
# plain Newton halves its step each iteration; doubling the step there
# converges quadratically. Calls of _eval_lanes count the work: two per
# Newton iteration, one for the root check and one for the Re F sheet.

def bp_symbols(boundary, n=24):
    """(b, text) of Berkson-Porta symbols written as the benchmark writes
    them, cycling through its three Herglotz factors."""
    rng = np.random.default_rng(21 if boundary else 22)
    out = []
    for k in range(n):
        if boundary:
            b = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        else:
            b = cmath.rect(0.9 * math.sqrt(rng.uniform()),
                           rng.uniform(0, 2 * math.pi))
        kappa = cmath.rect(0.8 * math.sqrt(rng.uniform()),
                           rng.uniform(0, 2 * math.pi))
        F = (ctext(complex(0.5 + abs(kappa), kappa.imag)),
             "poly(1,%s)" % ctext(kappa),
             "mobius(%s,1,%s,1)" % (ctext(kappa), ctext(-kappa)))[k % 3]
        out.append((b, "poly(%s,-1)*poly(1,-%s)*%s"
                    % (ctext(b), ctext(b.conjugate()), F)))
    return out


def classify_counting(monkeypatch, text):
    calls = []
    original = classify._eval_lanes

    def counting(f, z):
        calls.append(len(z))
        return original(f, z)

    monkeypatch.setattr(classify, "_eval_lanes", counting)
    verdict = bp_classify(parse_symbol(text))
    monkeypatch.setattr(classify, "_eval_lanes", original)
    return verdict, len(calls)


@pytest.mark.parametrize("b,text", bp_symbols(boundary=True))
def test_boundary_b_newton_converges_fast(monkeypatch, b, text):
    verdict, calls = classify_counting(monkeypatch, text)
    assert verdict.status == "Global"
    assert abs(verdict.b - b) <= 1e-11
    assert calls <= 50
    # plain Newton, the step never doubled, needs at least three times the
    # calls from the same ring seeds
    monkeypatch.setattr(classify, "_DOUBLE_STEP", 0.0)
    _, plain = classify_counting(monkeypatch, text)
    assert plain >= 3 * calls


@pytest.mark.parametrize("b,text", bp_symbols(boundary=False))
def test_interior_b_newton_is_not_slower(monkeypatch, b, text):
    verdict, calls = classify_counting(monkeypatch, text)
    assert verdict.status == "Global"
    assert abs(verdict.b - b) <= 1e-11
    monkeypatch.setattr(classify, "_DOUBLE_STEP", 0.0)
    plain_verdict, plain = classify_counting(monkeypatch, text)
    assert calls <= plain
    assert plain_verdict.b == verdict.b


@pytest.mark.parametrize("b,text", bp_symbols(boundary=False)[:6])
def test_interior_b_falls_back_to_newton(monkeypatch, b, text):
    # with no polishing step short enough, _newton_roots runs from the
    # ring moment
    monkeypatch.setattr(classify, "_POLISH_STEP", -1.0)
    verdict, calls = classify_counting(monkeypatch, text)
    assert verdict.status == "Global"
    assert abs(verdict.b - b) <= 1e-11
    assert calls > 1


# -- the Denjoy-Wolff rule ---------------------------------------------------
#
# b is the zero in the disc, or else the boundary zero where G'(b) is real
# and <= 0; every other boundary zero has G'(b) > 0.


@pytest.mark.parametrize("text", [t for _, t in bp_symbols(boundary=True)]
                         + ["1-z^2", "z^2-1", "(1-z)^2"])
def test_boundary_b_has_a_real_nonpositive_derivative(text):
    G = parse_symbol(text)
    v = bp_classify(G)
    assert v.status == "Global" and abs(abs(v.b) - 1.0) <= 1e-6
    d = complex(G.derivative().eval(v.b))
    assert abs(d.imag) <= 1e-6 and d.real <= 1e-6
    if text == "(1-z)^2":
        assert v.b == 1 and d == 0


@pytest.mark.parametrize("text,b,refused", [
    ("z^2-1", -1.0, 1.0), ("1-z^2", 1.0, -1.0)])
def test_refused_boundary_zero_has_a_positive_derivative(text, b, refused):
    # both zeros are Newton candidates; the refused one has G' = 2
    G = parse_symbol(text)
    g, _ = classify._ring_test(G)
    roots = classify._newton_roots(G, classify._boundary_seeds(g), 1e-8)
    (r,) = [r for r in roots if abs(r - refused) <= 1e-8]
    assert complex(G.derivative().eval(r)).real > 0
    assert abs(bp_classify(G).b - b) <= 1e-8


def test_interior_b_with_a_complex_derivative_found_by_newton(monkeypatch):
    # with no ring winding once, the interior zero comes from the Newton
    # roots of the boundary seeds; G'(0) = -0.25 + i is not real, and an
    # interior zero is b whatever its derivative
    G = parse_symbol("(-0.25+1i)*z")
    assert G.derivative().eval(0j) == -0.25 + 1j
    monkeypatch.setattr(classify, "_WINDING_TOL", -1.0)
    g, _ = classify._ring_test(G)
    assert classify._interior_b(G, g, 1e-8) == []
    v = bp_classify(G)
    assert v.status == "Global" and abs(v.b) <= 1e-12
