import cmath
import math

import mpmath
import numpy as np
import pytest

from holoflow import (
    BadParameter,
    Const,
    DegreeMismatch,
    Exp,
    Mobius,
    Poly,
    Ratio,
    SeriesFn,
    series_compose,
    taylor,
)
from holoflow.series import _compose_arrays

GEOM = Ratio(Const(1.0), Poly((1, -1)))  # 1/(1-z)


def close(a, b, tol):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


def test_taylor_recovers_polynomials():
    s = taylor(Poly((1, 2, 3)), 4)
    assert close(s.coeffs, [1, 2, 3, 0, 0], 1e-12)


def test_taylor_geometric_series():
    s = taylor(GEOM, 5)
    assert close(s.coeffs, [1, 1, 1, 1, 1, 1], 1e-10)


def test_taylor_exponential():
    s = taylor(Exp(), 3)
    assert close(s.coeffs, [1, 1, 0.5, 1 / 6], 1e-10)


def test_taylor_validates_inputs():
    with pytest.raises(BadParameter):
        taylor(Exp(), -1)


def test_taylor_propagates_poles():
    from holoflow import PoleError
    with pytest.raises(PoleError):
        taylor(Ratio(Const(1.0), Poly((0.5, -1))), 8)  # pole on |z| = 0.5


@pytest.mark.parametrize("f", [
    Poly((1, -2, 0.5, 0, 1j)),
    GEOM,
    Exp(),
    Mobius(1j, 1j, -1.0, 1.0),
], ids=["poly", "geometric", "exp", "cayley"])
def test_taylor_evaluation_consistency(f):
    # degree >= 32 series reproduce the expression on |z| = 0.25
    s = taylor(f, 32)
    for k in range(8):
        z = 0.25 * cmath.exp(2j * cmath.pi * k / 8)
        assert abs(s.eval_at(z) - f.eval(z)) <= 1e-8


def test_compose_identity_both_sides():
    rng = np.random.default_rng(3)
    g = SeriesFn(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    e1 = SeriesFn.identity(6)
    assert close(series_compose(e1, g).coeffs, g.coeffs, 1e-14)
    assert close(series_compose(g, e1).coeffs, g.coeffs, 1e-14)


def test_compose_geometric_with_half_z():
    f = taylor(GEOM, 4)
    g = SeriesFn([0, 0.5, 0, 0, 0])
    out = series_compose(f, g)
    assert close(out.coeffs, [1, 0.5, 0.25, 0.125, 0.0625], 1e-10)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        series_compose(SeriesFn([1, 2]), SeriesFn([1, 2, 3]))


def test_compose_associative_when_constant_terms_vanish():
    rng = np.random.default_rng(11)
    n = 12

    def small_series():
        c = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        c *= 0.3 / (1.0 + np.arange(n + 1)) ** 2
        c[0] = 0.0
        return SeriesFn(c)

    f = SeriesFn(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
    g = small_series()
    h = small_series()
    left = series_compose(series_compose(f, g), h)
    right = series_compose(f, series_compose(g, h))
    assert close(left.coeffs, right.coeffs, 1e-10)


def horner_compose(f, g):
    """Reference: Horner in g, one full truncated product per coefficient."""
    n = len(f)
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = f[-1]
    for k in range(n - 2, -1, -1):
        acc = np.convolve(acc, g)[:n]
        acc[0] += f[k]
    return acc


def tanh_flow_coeffs(a, n):
    """The Mobius map (z + a)/(1 + a z): a + sum_k (1 - a^2)(-a)^(k-1) z^k."""
    g = np.empty(n, dtype=np.complex128)
    g[0] = a
    g[1:] = (1 - a * a) * (-a) ** np.arange(n - 1)
    return g


@pytest.mark.parametrize("inner", ["vanishing", "tanh"])
def test_paterson_stockmeyer_matches_horner(inner):
    # every n = 1..130 covers each block shape, among them n = s^2, s^2 + 1
    rng = np.random.default_rng(0)
    for n in range(1, 131):
        f = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (
            1.0 + np.arange(n))
        if inner == "vanishing":
            g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (
                0.5 ** np.arange(n))
            g[0] = 0.0
        else:
            g = tanh_flow_coeffs(0.98, n)
        ref = horner_compose(f, g)
        got = _compose_arrays(f, g)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n


def test_composition_against_mpmath_on_tanh_flow():
    # both schemes against the exact truncated composition of the same
    # double inputs: the tanh flow at t = 3 (phi(0) = 0.995) and N = 32
    n = 33
    f = (0.5 ** np.arange(n)).astype(np.complex128)
    g = tanh_flow_coeffs(math.tanh(3.0), n)
    with mpmath.workdps(50):
        gm = [mpmath.mpc(c.real, c.imag) for c in g]
        acc = [mpmath.mpc(f[-1].real)] + [mpmath.mpc(0)] * (n - 1)
        for k in range(n - 2, -1, -1):
            acc = [mpmath.fsum(acc[i] * gm[j - i] for i in range(j + 1))
                   for j in range(n)]
            acc[0] += f[k].real
        scale = max(abs(c) for c in acc)
        for got in (_compose_arrays(f, g), horner_compose(f, g)):
            err = max(abs(mpmath.mpc(x.real, x.imag) - c)
                      for x, c in zip(got, acc))
            assert err <= 1e-15 * scale


def test_arithmetic_truncates():
    a = SeriesFn([1, 1, 1])
    b = SeriesFn([1, 1, 1])
    prod = a * b
    assert prod.degree == 2
    assert close(prod.coeffs, [1, 2, 3], 0)


def test_deriv_shifts_coefficients():
    s = SeriesFn([5, 1, 2, 3])
    assert close(s.deriv().coeffs, [1, 4, 9, 0], 0)


def test_series_immutable():
    s = SeriesFn([1, 2, 3])
    with pytest.raises(ValueError):
        s.coeffs[0] = 9


def test_eval_at_horner():
    s = SeriesFn([1, 2, 3])
    assert s.eval_at(2.0) == pytest.approx(1 + 4 + 12)
