import math

import numpy as np
import pytest

from holoflow import (
    BadParameter,
    Const,
    Domain,
    Mobius,
    PoleError,
    bp_build,
    bp_classify,
    herglotz_check,
    parse_symbol,
)

HALF_PLANE_MAP = Mobius(1, 1, -1, 1)  # (1+z)/(1-z), Herglotz on the disc


def herglotz_family(c, d):
    return Const(c) + Const(d) * HALF_PLANE_MAP


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
    shifted = herglotz_check(HALF_PLANE_MAP + Const(eps), 2).min_re
    assert shifted == base + eps


def test_herglotz_pole_on_grid_raises():
    grid = Domain.unit_disc().sample_grid(1)
    z0 = grid[3]
    with pytest.raises(PoleError):
        herglotz_check(Const(1.0) / (parse_symbol("z") - Const(z0)), 1)


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
    # b sits exactly on a grid point, exercising the circle-average probe
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
