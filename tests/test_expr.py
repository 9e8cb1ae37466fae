import cmath
import os
import pathlib
import pickle
import subprocess
import sys

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
    bp_classify,
    parse_symbol,
)
from holoflow import classify, expr
from holoflow.expr import compiled

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

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


# (den, z, the text after "near z=", or None for no PoleError) of every
# input kind of the pole check
_POLE_KINDS = {
    "python complex": (0j, 0.5 + 0j, "(0.5+0j)"),
    "python float": (0.0, 0.5, "0.5"),
    "numpy scalar": (np.complex128(0), np.complex128(0.5),
                     "np.complex128(0.5+0j)"),
    "0-d array": (np.array(0j), np.array(0.5 + 0j), "array(0.5+0.j)"),
    # one lane names its lane like many lanes do; the scalar path this
    # kind took before named the array, "array([0.5+0.j])"
    "one lane": (np.array([0j]), np.array([0.5 + 0j]), "(0.5+0j)"),
    "lanes, the first hit": (np.array([1, 1e-14, 0j]),
                             np.array([0.1, 0.5, 0.7 + 0j]), "(0.5+0j)"),
    "2-d lanes, row-major": (np.array([[1, 1], [0j, 0j]]),
                             np.array([[0.1, 0.2], [0.3, 0.4 + 0j]]),
                             "(0.3+0j)"),
    "NaN lanes are no pole": (np.array([np.nan, 1e-20 + 0j]),
                              np.array([1, 2 + 0j]), "(2+0j)"),
    "scalar just off the pole": (1e-13 + 0j, 0.5 + 0j, None),
    "lanes off the pole": (np.array([1, 2e-13 + 0j]), np.array([0, 1 + 0j]),
                           None),
    "no lanes": (np.zeros(0, complex), np.zeros(0, complex), None),
    "scalar modulus overflows": (complex(1e308, 1e308), 1.0 + 0j, None),
}


@pytest.mark.parametrize("kind", list(_POLE_KINDS))
def test_pole_check_names_the_point_of_every_input_kind(kind):
    den, z, named = _POLE_KINDS[kind]
    if named is None:
        expr._check_pole(den, z, "denominator ~ 0")
        return
    with pytest.raises(PoleError) as info:
        expr._check_pole(den, z, "denominator ~ 0")
    assert str(info.value) == "denominator ~ 0 near z=" + named


_consts =st.complex_numbers(max_magnitude=2.0, allow_nan=False,
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


# -- the flat form ------------------------------------------------------------

# the _PROBES, signed zeros, 0 (a pole of 1/z) and the poles 1 of CAYLEY
# and 2 of Mobius(1, 0.3, -0.5, 1)
_FLAT_POINTS = _PROBES[:5] + _SIGNED_ZERO_POINTS + [1.0 + 0j, 2.0 + 0j]
_FLAT_LANES = [_LANES, np.array([0.3 + 0.1j, 1.0, -0.0, 2.0])]


def _outcome(fn, z):
    """fn(z) as its type, shape and the uint64 words of its real and
    imaginary parts, so that signed zeros count; or the class and message
    of the error it raises."""
    with np.errstate(all="ignore"):
        try:
            v = fn(z)
        except Exception as exc:  # any error must be the tree walk's
            return type(exc), str(exc)
    words = np.array(v, dtype=complex).reshape(-1).view(np.uint64)
    return type(v), np.shape(v), words.tolist()


def _assert_flat_matches(f):
    flat = compiled(f)
    for z in _FLAT_POINTS + _FLAT_LANES:
        assert _outcome(flat, z) == _outcome(f.eval, z), (str(f), z)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_trees)
def test_flat_form_matches_the_tree_walk_bit_for_bit(f):
    # 0.7 s on a 2-CPU Xeon host
    _assert_flat_matches(f)


class _Twice(HoloExpr):
    """A node type the flat form does not know; it counts its calls."""

    calls = 0

    def eval(self, z):
        _Twice.calls += 1
        return 2 * z

    def derivative(self):
        return Const(2.0)

    def __str__(self):
        return "twice(z)"


_EXP_800 = Compose(Exp(), Const(800))


@pytest.mark.parametrize("f", [
    pytest.param(parse_symbol("z^64"), id="z^64"),
    # beyond the nesting limit of one expression
    pytest.param(Poly((0,) * 3000 + (1,)), id="z^3000"),
    pytest.param(parse_symbol("(1-0.5*z)^64"), id="(1-0.5*z)^64"),
    Poly((2 - 1j,)),  # 0j * z + c: an array on lanes, never folded
    Poly((-0.0, 1)),
    Compose(Const(2.0), CAYLEY),  # the inner pole still raises
    Ratio(Const(1.0), Compose(CAYLEY, Const(1.0))),  # its fold raises
    Sum(Const(1.0), Ratio(Neg(Const(3.0)), Sum(Const(1.5), Const(0.5)))),
    _EXP_800,  # exp overflow of a constant: on lanes too
    Compose(Exp(), Sum(Var(), Const(800))),  # of a scalar only
    Ratio(_EXP_800, Var()),  # the pole at 0 comes before the overflow
    Ratio(_EXP_800, Sum(Const(1.5), CAYLEY)),
    Compose(Poly((1, 2)), Compose(CAYLEY, Const(0.5))),
    Sum(_Twice(), Compose(_Twice(), Const(1.0))),
], ids=str)
def test_flat_form_fixed_cases(f):
    _assert_flat_matches(f)


def test_constant_subtrees_fold_to_one_constant():
    flat = compiled(parse_symbol("(1+2i)"))  # Sum(Neg(Const), ...) and so on
    assert flat(_LANES) == 1 + 2j
    assert flat.__code__.co_code == compiled(Const(5.0)).__code__.co_code


def test_unknown_node_types_keep_their_own_eval():
    f = Sum(_Twice(), Compose(_Twice(), Const(1.0)))
    flat = compiled(f)
    before = _Twice.calls
    assert flat(0.5) == 3.0
    assert _Twice.calls == before + 2  # both called, neither folded
    root = _Twice()
    assert compiled(root) == root.eval


def test_symbols_of_one_shape_share_one_code_object():
    a, b = parse_symbol("1-0.5*z^2+exp(z)"), parse_symbol("3+2i-4*z^2+exp(z)")
    fa, fb = compiled(a), compiled(b)
    assert fa is not fb and fa.__code__ is fb.__code__
    assert compiled(a) is fa  # kept on the node
    assert fa(0.25) == a.eval(0.25) and fb(0.25) == b.eval(0.25)


def test_a_compiled_symbol_still_pickles():
    G = parse_symbol("1-z^2")
    compiled(G)
    H = pickle.loads(pickle.dumps(G))
    assert H == G and compiled(H)(0.5) == G.eval(0.5)


def test_classify_compiles_its_symbol_once_for_all_hunt_seeds(monkeypatch):
    hunts, built = [], []
    final_state = classify._final_state
    compile_ = expr._compile

    def counting_final_state(G, *args, **kw):
        hunts.append(G)
        return final_state(G, *args, **kw)

    def counting_compile(e):
        built.append(e)
        return compile_(e)

    monkeypatch.setattr(classify, "_final_state", counting_final_state)
    monkeypatch.setattr(expr, "_compile", counting_compile)
    G = parse_symbol("1i*z+z^2")
    assert bp_classify(G).status == "NotGlobal"
    assert len(hunts) >= 4 and all(h is G for h in hunts)
    assert built == [G]


def test_importing_the_package_compiles_nothing():
    code = ("import holoflow, holoflow.cli, holoflow.portrait\n"
            "from holoflow import expr\n"
            "print(expr._code.cache_info().misses)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=_SRC))
    assert out.stdout.split() == ["0"]
