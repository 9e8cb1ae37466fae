import cmath
import math
import random

import pytest

import holoflow.counterexample as cx
import holoflow.semiflow as semiflow
from holoflow import (
    BadParameter,
    Domain,
    DomainError,
    HerglotzError,
    parse_symbol,
    run_counterexample,
    trajectory_to_csv,
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


def test_one_integration(monkeypatch):
    # one integrate call; its endgame on the unit disc adds at most 6
    # steps to the radius-2 run here, where escape_time alone took 28
    calls, steps = [], []
    original, dp_step = semiflow.integrate, semiflow._dp_step

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def counting_step(*args):
        steps.append(args)
        return dp_step(*args)

    monkeypatch.setattr(semiflow, "integrate", counting)
    monkeypatch.setattr(cx, "integrate", counting)
    monkeypatch.setattr(semiflow, "_dp_step", counting_step)
    for b, z0, t_long, crosses in ((1.3 + 0.4j, 0.2 - 0.1j, 40.0, True),
                                   (1.5, 0j, 0.5, False)):
        G = cx.build_counterexample(b, ONE)
        original(G, cx.big_disc(), z0, t_long, 1e-9)
        big_steps = len(steps)
        calls.clear()
        steps.clear()
        report = run_counterexample(b, ONE, z0, t_long=t_long)
        assert (report.t_exit is not None) == crosses
        assert len(calls) == 1
        assert len(steps) <= big_steps + 6
        steps.clear()


# -- the exit time comes from the radius-2 run --------------------------------
#
# run_counterexample integrates once, on the radius-2 disc, and takes the
# unit-disc exit from that run's endgame; it must be escape_time on the unit
# disc bit for bit, and the trajectory that of a plain radius-2 run.

_FS = {s: parse_symbol(s) for s in ("1", "2+z", "exp(0.2*z)")}


def _exit_cases(n, seed=17):
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        b = cmath.rect(rng.uniform(1.02, 1.98), rng.uniform(0, 2 * math.pi))
        z0 = cmath.rect(0.99 * math.sqrt(rng.random()),
                        rng.uniform(0, 2 * math.pi))
        cases.append((b, list(_FS)[i % 3], z0, 10 ** rng.uniform(-11, -6)))
    return cases


def _check_one_run(b, F, z0, tol, t_long=20.0):
    G = cx.build_counterexample(b, F)
    unit = Domain.unit_disc()
    expected = semiflow.escape_time(G, unit, z0, t_long, tol)
    plain = semiflow.integrate(G, cx.big_disc(), z0, t_long, tol)
    report = run_counterexample(b, F, z0, t_long=t_long, tol=tol)
    traj = report.trajectory
    assert expected is not None
    assert traj.exit_time.hex() == expected.hex()
    assert report.t_exit.hex() == expected.hex()
    assert traj.times.tobytes() == plain.times.tobytes()
    assert traj.points.tobytes() == plain.points.tobytes()
    assert traj.status == plain.status
    assert trajectory_to_csv(traj) == trajectory_to_csv(plain)


@pytest.mark.parametrize("b,F,z0,tol", _exit_cases(64))
def test_exit_time_is_escape_time_bit_for_bit(b, F, z0, tol):
    _check_one_run(b, _FS[F], z0, tol)


def test_exit_resumes_before_the_first_refused_attempt(monkeypatch):
    # found by search: the first step that crosses |z| = 1 is refused by
    # the error test, and the next accepted step stays inside, so the exit
    # run departs from the radius-2 run before the first accepted crossing
    b, F, z0, tol = 1.03 - 0.52j, parse_symbol("(3+z)^2"), -0.32 - 0.33j, 1e-4
    steps, dp_step = [], semiflow._dp_step

    def logging_step(rhs, u, h, k1):
        y, err, k7 = dp_step(rhs, u, h, k1)
        steps.append((u, y))
        return y, err, k7

    monkeypatch.setattr(semiflow, "_dp_step", logging_step)
    semiflow.integrate(cx.build_counterexample(b, F), cx.big_disc(), z0,
                       20.0, tol)
    refused = 1.0 - semiflow.DELTA_WALL
    k = next(i for i, (_, y) in enumerate(steps) if abs(y) > refused)
    accepted = [y for i, (_, y) in enumerate(steps[:-1])
                if i > k and steps[i + 1][0] == y]
    assert steps[k + 1][0] == steps[k][0]  # attempt k was refused
    assert abs(accepted[0]) < refused
    monkeypatch.undo()
    _check_one_run(b, F, z0, tol)


def test_exit_before_the_first_accepted_step():
    # the first step, 1e-3, already crosses the unit circle
    _check_one_run(1.5, ONE, 1 - 1e-6, 1e-9)
