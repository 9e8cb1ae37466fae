import cmath
import math

import pytest

import holoflow.counterexample as cx
import holoflow.semiflow as semiflow
from holoflow import (
    BadParameter,
    DomainError,
    HerglotzError,
    parse_symbol,
    run_counterexample,
)

ONE = parse_symbol("1")


def riccati_flow(b, z, t):
    """Closed-form flow of (conj(b) z / 4 - 1)(z - b), F = 1.

    The zeros are b and 4 / conj(b); with w = (z - b) / (z - 4/conj(b))
    the flow is linear, w(t) = w(0) exp(conj(b)/4 (b - 4/conj(b)) t).
    """
    beta = b.conjugate() / 4.0
    r1, r2 = b, 1.0 / beta
    w = (z - r1) / (z - r2) * cmath.exp(beta * (r1 - r2) * t)
    return (r1 - r2 * w) / (1.0 - w)


def riccati_exit(b, z, t_max):
    """First t in (0, t_max] with |flow| = 1: a 1e-3 scan of the closed
    form, then bisection to 1e-14."""
    lo = 0.0
    for k in range(1, int(math.ceil(t_max / 1e-3)) + 1):
        hi = k * 1e-3
        if abs(riccati_flow(b, z, hi)) >= 1.0:
            break
        lo = hi
    else:
        return None
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if abs(riccati_flow(b, z, mid)) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


CASES = [
    (1.5, 0j),
    (1.2, 0.3),
    (1.9, -0.6 + 0.2j),
    (1.1j, 0.4 - 0.1j),
    (cmath.rect(1.3, 2.5), 0.2j),
    (cmath.rect(1.6, -0.7), -0.45 - 0.2j),
    (cmath.rect(1.05, 4.0), 0.9 * cmath.exp(1j)),
    (-1.4 + 0.5j, 0.95),
]


@pytest.mark.parametrize("b,z0", CASES)
def test_exit_time_matches_closed_form(b, z0):
    report = run_counterexample(b, ONE, z0, t_long=60.0)
    expected = riccati_exit(complex(b), complex(z0), 60.0)
    assert expected is not None
    assert report.t_exit == pytest.approx(expected, rel=1e-8)
    assert report.dw_distance == pytest.approx(
        abs(riccati_flow(complex(b), complex(z0), 60.0) - b), abs=1e-6)
    assert report.conclusive
    assert report.warning is None


def test_short_horizon_has_no_exit_and_warns():
    b, z0 = 1.5 + 0j, 0j
    assert riccati_exit(b, z0, 20.0) > 0.5
    report = run_counterexample(b, ONE, z0, t_long=0.5)
    assert report.t_exit is None
    assert "no crossing" in report.warning
    assert not report.conclusive


def test_seed_outside_unit_disc():
    for z0 in (1.0, -1.0j, 1.5):
        with pytest.raises(DomainError):
            run_counterexample(1.5, ONE, z0)


@pytest.mark.parametrize("b", [0.5, 1.0, 1j, 2.0, -2.5])
def test_attracting_point_outside_annulus(b):
    with pytest.raises(BadParameter):
        run_counterexample(b, ONE, 0j)


@pytest.mark.parametrize("dw_tol", [math.nan, 0.0, -1e-3, math.inf])
def test_bad_dw_tol(dw_tol):
    with pytest.raises(BadParameter):
        run_counterexample(1.5, ONE, 0j, dw_tol=dw_tol)


@pytest.mark.parametrize("F", ["-1", "z", "-2+z"])
def test_non_herglotz_factor(F):
    with pytest.raises(HerglotzError):
        run_counterexample(1.5, parse_symbol(F), 0j)


def test_at_most_two_integrations(monkeypatch):
    calls = []
    original = semiflow.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(semiflow, "integrate", counting)
    monkeypatch.setattr(cx, "integrate", counting)
    report = run_counterexample(1.3 + 0.4j, ONE, 0.2 - 0.1j, t_long=40.0)
    assert report.t_exit is not None
    assert 1 <= len(calls) <= 2
    calls.clear()
    report = run_counterexample(1.5, ONE, 0j, t_long=0.5)
    assert report.t_exit is None
    assert len(calls) == 1
