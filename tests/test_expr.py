import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holoflow import (
    BadParameter,
    Compose,
    Const,
    Exp,
    HoloExpr,
    Mobius,
    Neg,
    Poly,
    PoleError,
    Product,
    Ratio,
    Sum,
    Var,
    parse_symbol,
)

CAYLEY = Mobius(1j, 1j, -1.0, 1.0)


def test_eval_examples():
    assert Poly((0, -1)).eval(0.5) == -0.5
    assert CAYLEY.eval(0j) == 1j
    assert Compose(Exp(), Poly((0, 1))).eval(0j) == 1.0


def test_eval_cayley_at_half():
    assert CAYLEY.eval(0.5) == pytest.approx(3j)


def test_pole_raises():
    with pytest.raises(PoleError):
        CAYLEY.eval(1.0 + 0j)
    with pytest.raises(PoleError):
        Ratio(Const(1.0), Poly((1, -1))).eval(1.0 + 0j)


def test_degenerate_mobius_rejected():
    with pytest.raises(BadParameter):
        Mobius(1, 2, 2, 4)


def test_zero_denominator_rejected_at_construction():
    with pytest.raises(BadParameter):
        Ratio(Const(1.0), Const(0.0))
    with pytest.raises(BadParameter):
        Ratio(Const(1.0), Poly((0,)))


def test_poly_derivative():
    assert Poly((0, 0, 1)).derivative() == Poly((0, 2))
    assert Const(3 + 1j).derivative() == Const(0j)


def _finite_difference(f, z, step=1e-5):
    return (f.eval(z + step) - f.eval(z - step)) / (2 * step)


_PROBES = [0.3 * cmath.exp(2j * cmath.pi * k / 20) for k in range(20)]

_VARIANTS = [
    Const(2.5 - 1j),
    Var(),
    Poly((1, -2, 0.5, 3j)),
    Mobius(1j, 1j, -1.0, 1.0),
    Ratio(Const(1.0), Poly((1, -1))),
    Sum(Poly((0, 1)), Exp()),
    Product(Poly((1, 1)), Poly((1, -1))),
    Neg(Poly((0, 0, 1))),
    Exp(),
    Compose(Exp(), Poly((0, 0, 1))),
    Compose(Mobius(1, 0, 0.5, 1.0), Poly((0, 2))),
    parse_symbol("(1-0.5*z)^3"),
]


@pytest.mark.parametrize("f", _VARIANTS, ids=lambda f: type(f).__name__)
def test_derivative_matches_finite_differences(f):
    d = f.derivative()
    for z in _PROBES:
        want = _finite_difference(f, z)
        got = d.eval(z)
        assert abs(got - want) <= 1e-6 * (1 + abs(got))


def test_mobius_derivative_closed_form():
    d = CAYLEY.derivative()
    for z in _PROBES:
        assert d.eval(z) == pytest.approx(2j / (1 - z) ** 2, rel=1e-12)


def test_str_round_trips_through_grammar():
    for f in [Poly((1, -2, 0.5)), CAYLEY, Sum(Const(1), Neg(Poly((0, 0, 1)))),
              Compose(Exp(), Poly((0, 2))), Ratio(Const(1), Poly((1, -1))),
              parse_symbol("(1-0.5*z)^3")]:
        g = parse_symbol(str(f))
        for z in _PROBES:
            assert g.eval(z) == pytest.approx(f.eval(z), rel=1e-12, abs=1e-12)


# -- powers -------------------------------------------------------------------


def _size(f):
    kids = [k for k in vars(f).values() if isinstance(k, HoloExpr)]
    return 1 + sum(map(_size, kids))


def test_power_derivative_stays_linear_in_size():
    d = parse_symbol("-z*(1-0.5*z)^64").derivative()
    assert _size(d) <= 50
    for z in (0.3, -0.7j, 0.5 + 0.5j, -0.9):
        u = 1 - 0.5 * z
        want = -u ** 64 + 32 * z * u ** 63
        assert abs(d.eval(z) - want) <= 1e-12 * abs(want)


def test_powers_of_z_are_monomials():
    assert parse_symbol("z^3") == Poly((0, 0, 0, 1))
    assert parse_symbol("z^0") == Const(1)


def _bits(v) -> bytes:
    return np.atleast_1d(np.asarray(v, dtype=complex)).tobytes()


# Real points with both signs of zero: there Horner's rule, 1 * u + 0, and
# the product chain can differ in the sign of a zero part.
_SIGNED_ZERO_POINTS = [complex(x, s) for x in (-1.5, -0.4, -0.0, 0.0, 0.7, 1.9)
                       for s in (0.0, -0.0)] + [complex(-0.0, 0.5), -0.5j]


@pytest.mark.parametrize("base", ["1-0.5*z", "-z", "(0.3+1i)*z-2", "exp(z)",
                                  "z/(2-z)", "mobius(1,2,3,4)"])
def test_power_evaluates_as_the_nested_product(base):
    e = parse_symbol(base)
    points = _PROBES + _SIGNED_ZERO_POINTS
    lanes = np.array(points)
    chain = e
    for n in range(2, 65):
        chain = Product(chain, e)
        power = parse_symbol("(%s)^%d" % (base, n))
        assert isinstance(power, Compose)
        assert _bits(power.eval(lanes)) == _bits(chain.eval(lanes))
        for z in points:
            assert _bits(power.eval(z)) == _bits(chain.eval(z))


def test_trees_are_hashable_and_equal_by_structure():
    assert Poly((0, 1)) == Poly((0, 1))
    assert hash(Sum(Var(), Const(1))) == hash(Sum(Var(), Const(1.0)))


# -- evaluation on arrays of lanes --------------------------------------------

_LANES = np.array(_PROBES).reshape(4, 5)   # 2-D: the shape must survive


def _scalar_evals(f, lanes):
    return np.array([[f.eval(complex(z)) for z in row] for row in lanes])


@pytest.mark.parametrize("f", _VARIANTS, ids=lambda f: type(f).__name__)
def test_array_eval_matches_scalar_eval(f):
    raw = f.eval(_LANES)
    if isinstance(f, Const):
        assert np.ndim(raw) == 0   # a scalar that broadcasts over the lanes
    else:
        assert raw.shape == _LANES.shape
    got = np.broadcast_to(raw, _LANES.shape)
    want = _scalar_evals(f, _LANES)
    assert np.all(np.abs(got - want) <= 1e-14 * (1 + np.abs(want)))


def test_array_eval_raises_when_one_lane_hits_a_pole():
    lanes = np.array([0j, 0.3, -0.5j, 0.25 + 0.25j])
    for f, pole in [(CAYLEY, 1.0),
                    (Ratio(Const(1.0), Poly((1, -1))), 1.0),
                    (Sum(Var(), Ratio(Var(), Poly((0.5, 1)))), -0.5),
                    (Compose(CAYLEY, Poly((0, 2))), 0.5)]:
        f.eval(lanes)   # no lane at the pole
        hit = lanes.copy()
        hit[2] = pole
        with pytest.raises(PoleError):
            f.eval(hit)


_consts = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                             allow_infinity=False)
_leaves = st.one_of(
    st.just(Var()),
    st.just(Exp()),
    st.builds(Const, _consts),
    st.builds(Poly, st.lists(_consts, min_size=1, max_size=4).map(tuple)),
    st.just(CAYLEY),
    st.just(Mobius(1, 0.3, -0.5, 1.0)),
)
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.builds(Sum, kids, kids),
    st.builds(Product, kids, kids),
    st.builds(Neg, kids),
    st.builds(Compose, kids, kids),
    st.builds(Ratio, kids, st.builds(Sum, st.just(Const(1.5)), kids)),
), max_leaves=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_trees)
def test_array_eval_matches_scalar_eval_on_random_trees(f):
    try:
        want = _scalar_evals(f, _LANES)
    except PoleError:
        with pytest.raises(PoleError):
            f.eval(_LANES)
        return
    except (OverflowError, ZeroDivisionError):
        assume(False)
    scale = float(np.max(np.abs(want)))
    assume(np.isfinite(scale) and scale < 1e6)
    got = np.broadcast_to(f.eval(_LANES), _LANES.shape)
    assert np.all(np.abs(got - want) <= 1e-9 * (1 + scale))
