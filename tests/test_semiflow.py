import cmath
import math
import re
import time
import tracemalloc
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from holoflow import (
    BadParameter,
    SeriesFn,
    Domain,
    DomainError,
    EscapeError,
    PoleError,
    Status,
    StiffnessError,
    Trajectory,
    backward_integrate,
    escape_time,
    flow_point,
    flow_series,
    integrate,
    parse_domain,
    parse_symbol,
    semigroup_residual,
    trajectory_to_csv,
)
from holoflow import semiflow
from holoflow.classify import bp_classify
from holoflow.counterexample import build_counterexample
from holoflow.semigroup import apply
from holoflow.transfer import cayley, conjugation_residual

DISC = Domain.unit_disc()
LINEAR = parse_symbol("-z")        # flow z e^-t
DOUBLING = parse_symbol("z")       # flow z e^t, escapes at ln(1/|z|)
TANH = parse_symbol("1-z^2")       # flow tanh(t + artanh z)
RICCATI = parse_symbol("z^2")      # flow z/(1 - z t)


def tanh_flow(t, z):
    return cmath.tanh(t + cmath.atanh(z))


def test_linear_flow_oracle():
    traj = integrate(LINEAR, DISC, 0.5, 5.0, 1e-10)
    assert traj.status.kind == "Completed"
    assert abs(traj.final_point - 0.5 * math.exp(-5)) <= 1e-9


def test_trajectory_shape_invariants():
    traj = integrate(LINEAR, DISC, 0.5, 5.0, 1e-10)
    assert traj.times[0] == 0.0
    assert traj.points[0] == 0.5
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == len(traj.points)
    # dense output: at least the uniform sample count
    assert len(traj.times) >= 64


def test_escape_recorded_points_stay_inside():
    traj = integrate(DOUBLING, DISC, 0.5, 5.0, 1e-9)
    assert traj.escaped
    assert abs(traj.status.t_escape - math.log(2)) <= 1e-6
    for p in traj.points:
        assert DISC.contains(p)
    assert traj.status.exit_point == traj.final_point


def test_tanh_flow_oracle():
    traj = integrate(TANH, DISC, 0j, 3.0, 1e-10)
    assert abs(traj.final_point - cmath.tanh(3)) <= 1e-8


def test_escape_time_values():
    for r in (0.3, 0.5, 0.9):
        t = escape_time(DOUBLING, DISC, r, 10.0, 1e-9)
        assert t is not None
        assert abs(t - math.log(1 / r)) <= 1e-6
    assert escape_time(LINEAR, DISC, 0.5, 10.0, 1e-9) is None


def test_escape_time_riccati():
    t = escape_time(RICCATI, DISC, 0.9, 10.0, 1e-9)
    assert t is not None
    assert abs(t - (1 / 0.9 - 1)) <= 1e-5


def test_monotone_escape_times():
    ts = [escape_time(DOUBLING, DISC, r, 10.0, 1e-9) for r in (0.2, 0.5, 0.8)]
    assert ts[0] > ts[1] > ts[2]


def test_preconditions():
    with pytest.raises(DomainError):
        integrate(LINEAR, DISC, 2.0, 1.0, 1e-9)
    with pytest.raises(BadParameter):
        integrate(LINEAR, DISC, 0.5, -1.0, 1e-9)
    with pytest.raises(BadParameter):
        integrate(LINEAR, DISC, 0.5, 1.0, 1e-2)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_times_are_rejected(bad):
    with pytest.raises(BadParameter):
        integrate(LINEAR, DISC, 0.5, bad, 1e-9)
    with pytest.raises(BadParameter):
        flow_series(LINEAR, bad, 8, 1e-9)
    with pytest.raises(BadParameter):
        apply(LINEAR, bad, SeriesFn.identity(8), 1e-9)


def test_step_limit_raises_stiffness_error(monkeypatch):
    monkeypatch.setattr(semiflow, "_MAX_STEPS", 20)
    with pytest.raises(StiffnessError, match="step limit"):
        integrate(LINEAR, DISC, 0.5, 5.0, 1e-10)
    with pytest.raises(StiffnessError, match="step limit"):
        flow_series(LINEAR, 5.0, 8, 1e-10)


def test_stiffness_error_away_from_boundary():
    # 1/(z - 0.5) pulls the orbit through the interior pole
    G = parse_symbol("1/(z-0.5)")
    with pytest.raises(StiffnessError):
        integrate(G, DISC, 0.5 + 0.01j, 5.0, 1e-9)


def test_semigroup_residual_linear():
    assert semigroup_residual(LINEAR, DISC, 0.5, 1.0, 2.0, 1e-10) <= 1e-8


def test_semigroup_residual_zero_times():
    assert semigroup_residual(TANH, DISC, 0.3, 0.0, 0.0, 1e-10) == 0.0


def test_semigroup_residual_tanh():
    assert semigroup_residual(TANH, DISC, 0.3, 0.7, 1.1, 1e-10) <= 1e-7


def test_semigroup_residual_raises_on_escape():
    with pytest.raises(EscapeError):
        semigroup_residual(DOUBLING, DISC, 0.5, 1.0, 1.0, 1e-9)


@pytest.mark.parametrize("t,s", [(-1.0, 50.0), (50.0, -1.0)])
def test_semigroup_residual_refuses_bad_times_before_any_run(
        monkeypatch, t, s):
    horizons = []
    original = semiflow._final_state

    def recording(G, domain, z0, horizon, tol, record=None):
        horizons.append(horizon)
        return original(G, domain, z0, horizon, tol, record)

    monkeypatch.setattr(semiflow, "_final_state", recording)
    with pytest.raises(BadParameter):
        semigroup_residual(LINEAR, DISC, 0.5, t, s, 1e-9)
    assert horizons == []


def test_semigroup_law_on_grid():
    lattice = [(0.3, 0.5), (0.5, 1.0), (1.0, 0.7)]
    for G in (LINEAR, TANH):
        for z in DISC.sample_grid(2):
            for t, s in lattice:
                r = semigroup_residual(G, DISC, z, t, s, 1e-7)
                assert r <= 100 * 1e-7


def test_backward_examples():
    traj = backward_integrate(LINEAR, DISC, 0.1, 1.0, 1e-10)
    assert abs(traj.final_point - 0.1 * math.e) <= 1e-9
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) < 0)

    traj = backward_integrate(LINEAR, DISC, 0.5, 5.0, 1e-9)
    assert traj.escaped
    assert abs(traj.status.t_escape + math.log(2)) <= 1e-6

    traj = backward_integrate(parse_symbol("0*z"), DISC, 0.3, 7.0, 1e-9)
    assert np.max(np.abs(traj.points - 0.3)) <= 1e-14


def test_forward_backward_inversion():
    tol = 1e-10
    for G in (LINEAR, TANH):
        fwd = integrate(G, DISC, 0.3 + 0.1j, 1.0, tol)
        back = backward_integrate(G, DISC, fwd.final_point, 1.0, tol)
        assert abs(back.final_point - (0.3 + 0.1j)) <= 100 * tol


def test_tolerance_convergence():
    # error against the closed form decreases with tol, order >= 0.7
    tols = [1e-6, 1e-7, 1e-8, 1e-9]
    errs = []
    for tol in tols:
        traj = integrate(TANH, DISC, 0.2, 2.0, tol)
        errs.append(abs(traj.final_point - tanh_flow(2.0, 0.2)))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    slope = np.polyfit(np.log(tols), np.log(errs), 1)[0]
    assert slope >= 0.7


def test_flow_series_linear():
    fs = flow_series(LINEAR, 1.0, 8, 1e-10)
    want = np.zeros(9, dtype=complex)
    want[1] = math.exp(-1)
    assert np.max(np.abs(fs.coeffs.coeffs - want)) <= 1e-9


def test_flow_series_identity_at_zero():
    fs = flow_series(TANH, 0.0, 6, 1e-10)
    want = np.zeros(7, dtype=complex)
    want[1] = 1.0
    assert np.array_equal(fs.coeffs.coeffs, want)


def test_flow_series_tanh_constant_term():
    fs = flow_series(TANH, 0.5, 12, 1e-10)
    assert abs(fs.coeffs.coeffs[0] - math.tanh(0.5)) <= 1e-8


def test_flow_series_matches_pointwise_flow():
    for G in (LINEAR, TANH):
        fs = flow_series(G, 0.8, 32, 1e-10)
        for k in range(6):
            z = 0.25 * cmath.exp(2j * cmath.pi * k / 6)
            direct = integrate(G, DISC, z, 0.8, 1e-10).final_point
            assert abs(fs.coeffs.eval_at(z) - direct) <= 1e-6


def test_flow_series_escape_precondition():
    with pytest.raises(EscapeError):
        flow_series(DOUBLING, 2.0, 8, 1e-9)
    # The sampling circle |z| = 0.5 leaves the disc at t = ln 2, before
    # any point of radius 0.25 would.
    with pytest.raises(EscapeError):
        flow_series(DOUBLING, 1.0, 8, 1e-9)


def mobius_flow_coeffs(a, degree):
    """Coefficients of (z + a)/(1 + a z): the tanh flow with tanh(c t) = a."""
    c = np.zeros(degree + 1, dtype=complex)
    c[0] = a
    k = np.arange(1, degree + 1)
    c[1:] = (1 - a * a) * (-a) ** (k - 1)
    return c


def linear_flow_coeffs(rate, t, degree):
    c = np.zeros(degree + 1, dtype=complex)
    c[1] = cmath.exp(rate * t)
    return c


_CLOSED_FORMS = {
    "1-z^2": lambda t, n: mobius_flow_coeffs(math.tanh(t), n),
    "0.7*(1-z^2)": lambda t, n: mobius_flow_coeffs(math.tanh(0.7 * t), n),
    "(-0.5+1.2i)*z": lambda t, n: linear_flow_coeffs(-0.5 + 1.2j, t, n),
    "1.5i*z": lambda t, n: linear_flow_coeffs(1.5j, t, n),
}


@pytest.mark.parametrize("degree", [8, 32, 64, 128, 256])
@pytest.mark.parametrize("symbol", sorted(_CLOSED_FORMS))
def test_flow_series_matches_closed_forms(symbol, degree):
    fs = flow_series(parse_symbol(symbol), 1.0, degree, 1e-10)
    want = _CLOSED_FORMS[symbol](1.0, degree)
    assert np.max(np.abs(fs.coeffs.coeffs - want)) <= 1e-9


@pytest.mark.parametrize("symbol", ["0.1", "0.1i", "-0.2+0.1i", "0*z", "0"])
def test_flow_series_symbols_free_of_z(symbol):
    # A constant symbol c evaluates to one scalar on all lanes, and 0*z
    # has an exactly zero error estimate; the flow is z + c t.
    G = parse_symbol(symbol)
    c = complex(G.eval(0j))
    for t in (0.5, 1.0):
        fs = flow_series(G, t, 8, 1e-9)
        want = np.zeros(9, dtype=complex)
        want[:2] = c * t, 1.0
        assert np.max(np.abs(fs.coeffs.coeffs - want)) <= 1e-12


@pytest.mark.parametrize("t, degree", [(12.0, 32), (9.5, 128)])
def test_flow_series_long_tanh_horizons(t, degree):
    # The lanes approach the boundary point +1 without reaching it.
    start = time.perf_counter()
    fs = flow_series(TANH, t, degree, 1e-9)
    elapsed = time.perf_counter() - start
    want = mobius_flow_coeffs(math.tanh(t), degree)
    assert np.max(np.abs(fs.coeffs.coeffs - want)) <= 1e-9
    assert elapsed < 1.0


def test_half_plane_escape_to_infinity():
    G = parse_symbol("z")   # flow i e^t runs upward to infinity
    up = Domain.half_plane("upper")
    traj = integrate(G, up, 1j, 25.0, 1e-9)
    assert traj.escaped
    assert traj.status.at_infinity
    assert abs(traj.status.exit_point) > 1e7


# -- trajectory output in array passes ---------------------------------------
#
# integrate forms its dense samples after the run in one pass; the reference
# is the former per-sample loop, run through the same accepted-step hook of
# _final_state, and the two must agree bit for bit.

def _per_sample_integrate(G, domain, z0, horizon, tol):
    n_dense = max(64, math.ceil(16 * horizon))
    dense = [horizon * k / n_dense for k in range(1, n_dense)]
    times, points, steps = [0.0], [complex(z0)], []

    def record(_ids, t, h, u, k1, t_next, y, k_y):
        steps.append(t_next)
        for td in dense[bisect_right(dense, t):bisect_left(dense, t + h)]:
            times.append(td)
            points.append(semiflow._hermite((td - t) / h, u, k1, y, k_y, h))
        if times[-1] != t_next:
            times.append(t_next)
            points.append(y)

    kind, t, u = semiflow._final_state(G, domain, z0, horizon, tol, record)
    if kind == semiflow._STOPPED:
        times.append(t)
        points.append(u)
    status = (Status.completed(horizon) if kind == semiflow._COMPLETED
              else Status.escaped(t, u, kind == semiflow._STOPPED))
    return np.array(times), np.array(points), status, len(steps)


_HALF_RIGHT = Domain.half_plane("right")
ARRAY_PASS_RUNS = [
    # (symbol, domain, z0, horizon, tol, how the run ends)
    *[(s, DISC, z0, T, 1e-9, "Completed") for s in ("-z", "i*z", "1-z^2")
      for z0, T in ((0.5, 1.0), (0.3j, 3.0), (-0.2 + 0.6j, 7.5))],
    ("(-0.25+1i)*z", DISC, 0.9, 6.0, 1e-12, "Completed"),
    ("exp(z)-1", DISC, 0.1 - 0.1j, 0.5, 1e-6, "Completed"),
    ("z", DISC, 0.5, 2.0, 1e-9, "Escaped"),
    ("z^2", DISC, 0.9, 2.0, 1e-9, "Escaped"),
    ("-1+0.5i", _HALF_RIGHT, 1 + 0j, 4.0, 1e-9, "Escaped"),
    ("z^2+0.5", DISC, 0.5j, 3.0, 1e-9, "Completed"),
    ("z", _HALF_RIGHT, 1 + 1j, 25.0, 1e-9, "at_infinity"),
    ("z^2", _HALF_RIGHT, 2 + 0.5j, 3.0, 1e-9, "Escaped"),
    ("1", _HALF_RIGHT, 0.5j + 1, 100.0, 1e-9, "Completed"),
    ("2*z", _HALF_RIGHT, 3 + 0j, 12.0, 1e-9, "at_infinity"),
    ("z^3", Domain.half_plane("upper"), 2j, 1.0, 1e-9, "Completed"),
    # a 1-step run: the first step, 1e-3, is cut to the horizon
    ("i*z", DISC, 0.5, 1e-4, 1e-9, "Completed"),
    ("-z", DISC, 0.5, 1e-3, 1e-9, "Completed"),
    # the first step, 1e-3, ends on the first dense time, 0.064 / 64
    ("i*z", DISC, 0.5, 0.064, 1e-9, "Completed"),
    ("1-z^2", DISC, -0.3 + 0.1j, 0.064, 1e-12, "Completed"),
    # escapes before the first dense time, horizon / 1600
    ("z^2", DISC, 0.99999, 100.0, 1e-9, "Escaped"),
    ("-1", DISC, -0.999999 + 0j, 100.0, 1e-9, "Escaped"),
    ("1", DISC, 0.5, 10.0, 1e-3, "Escaped"),
    ("(0.5-z)*(1-0.5*z)", DISC, -0.8j, 40.0, 1e-11, "Completed"),
    ("mobius(1,0,1,-2)", DISC, 0.4 + 0.4j, 9.0, 1e-9, "Completed"),
    ("1/(z-0.5)", DISC, 0.3, 5.0, 1e-9, "Escaped"),
    ("1-z^2", DISC, 0.2j, 40.0, 1e-9, "Escaped"),
    ("-z*(1-0.5*z)", DISC, 0.95, 100.0, 1e-13, "Completed"),
]


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("symbol,domain,z0,horizon,tol,end", ARRAY_PASS_RUNS)
def test_integrate_matches_per_sample_loop_bit_for_bit(symbol, domain, z0,
                                                        horizon, tol, end):
    G = parse_symbol(symbol)
    times, points, status, _ = _per_sample_integrate(G, domain, z0, horizon,
                                                     tol)
    traj = integrate(G, domain, z0, horizon, tol)
    assert _bits_equal(traj.times, times) and _bits_equal(traj.points, points)
    assert traj.status == status
    assert (status.kind if not status.at_infinity else "at_infinity") == end


def test_array_pass_runs_cover_every_end():
    assert len(ARRAY_PASS_RUNS) >= 30
    seen = set()
    for symbol, domain, z0, horizon, tol, end in ARRAY_PASS_RUNS:
        _, _, status, steps = _per_sample_integrate(
            parse_symbol(symbol), domain, z0, horizon, tol)
        seen.add(end)
        if steps == 1:
            seen.add("one step")
        if status.t_escape is not None and status.t_escape < horizon / max(
                64, math.ceil(16 * horizon)):
            seen.add("ends before the first dense time")
    assert seen == {"Completed", "Escaped", "at_infinity", "one step",
                    "ends before the first dense time"}


# exit_from watches a second wall rule during the run and resumes that
# rule's run from the last step both admitted: any pair of domains, nested
# or not, gives escape_time's value bit for bit and leaves the trajectory.
EXIT_DOMAINS = [DISC, Domain.disc(0.3 - 0.2j, 0.6), Domain.disc(0j, 3.0),
                _HALF_RIGHT]


@pytest.mark.parametrize("symbol,domain,z0,horizon,tol,end", ARRAY_PASS_RUNS)
def test_exit_from_gives_escape_time_bit_for_bit(symbol, domain, z0,
                                                 horizon, tol, end):
    G = parse_symbol(symbol)
    plain = integrate(G, domain, z0, horizon, tol)
    for exit_from in EXIT_DOMAINS:
        if not exit_from.contains(z0):
            with pytest.raises(DomainError):
                integrate(G, domain, z0, horizon, tol, exit_from=exit_from)
            continue
        expected = escape_time(G, exit_from, z0, horizon, tol)
        traj = integrate(G, domain, z0, horizon, tol, exit_from=exit_from)
        assert repr(traj.exit_time) == repr(expected)
        assert _bits_equal(traj.times, plain.times)
        assert _bits_equal(traj.points, plain.points)
        assert traj.status == plain.status
    assert plain.exit_time is None


# integrate's record hook finds the next dense time by bisection: a dense
# time is sampled once if an accepted step holds it strictly inside, and
# never when a step lands on it, whatever way the run ends.
DENSE_MARK_RUNS = [
    ("i*z", DISC, 0.5, 3.0, "Completed"),
    ("z", DISC, 0.5, 2.0, "Escaped"),  # at the wall
    ("2*z", _HALF_RIGHT, 3 + 0j, 12.0, "at_infinity"),  # beyond R_MAX
    # steps end on the dense times 0.001, 0.006 and 0.031
    ("i*z", DISC, 0.5, 0.064, "Completed"),
    ("1", _HALF_RIGHT, 1 + 0j, 0.064, "Completed"),
]


@pytest.mark.parametrize("symbol,domain,z0,horizon,end", DENSE_MARK_RUNS)
def test_trajectory_times_are_step_times_and_inner_dense_times(
        symbol, domain, z0, horizon, end):
    G = parse_symbol(symbol)
    dense = semiflow._dense_times(horizon).tolist()
    steps = []

    def record(_ids, t, h, u, k1, t_next, y, k_y):
        steps.append((t, t_next))

    kind, t_end, _ = semiflow._final_state(G, domain, z0, horizon, 1e-9,
                                           record)
    traj = integrate(G, domain, z0, horizon, 1e-9)
    assert (traj.status.kind if not traj.status.at_infinity
            else "at_infinity") == end
    step_times = {t_next for _, t_next in steps}
    inner = {d for d in dense for t, t_next in steps if t < d < t_next}
    expected = sorted({0.0} | step_times | inner
                      | ({t_end} if kind == semiflow._STOPPED else set()))
    assert traj.times.tolist() == expected
    assert len(set(traj.times.tolist())) == len(traj.times)
    if horizon == 0.064:
        assert sorted(step_times & set(dense)) == [0.001, 0.006, 0.031]


# The disc admission writes signed_distance out and takes its verdict by
# arithmetic; it must give where's verdicts and the same gaps, bit for bit.
_INF, _NAN = math.inf, math.nan
ADMISSION_POINTS = [0j, 0.3 + 0.1j, 1.5 - 0.7j, 2.3 + 0.25j, -1.5 + 0.25j,
                    complex(_NAN, 0.0), complex(0.0, _NAN),
                    complex(_INF, 0.0), complex(-_INF, 1.0),
                    complex(1.0, -_INF), complex(_INF, _NAN)]


def _reference_admission(domain, y):
    gap = domain.signed_distance(y) - semiflow.DELTA_WALL
    return np.where(gap >= 0.0, semiflow._ACCEPT, semiflow._REJECT), gap


@pytest.mark.parametrize("domain", [Domain.disc(0.5 + 0.25j, 2.0), DISC,
                                    Domain.disc(0.5 + 0.25j,
                                                semiflow.DELTA_WALL)])
def test_disc_admission_matches_where(domain):
    points = ADMISSION_POINTS + [domain.center]  # the last: a gap of 0
    scalar = semiflow._wall_rule(domain, semiflow._ONE)
    for y in points:
        verdict, gap = scalar(y)
        ref_verdict, ref_gap = _reference_admission(domain, y)
        assert verdict == ref_verdict and repr(gap) == repr(float(ref_gap))
    if domain.radius == semiflow.DELTA_WALL:
        assert scalar(domain.center) == (semiflow._ACCEPT, 0.0)
    huge = complex(1.5e308, 1.5e308)  # |y - center| overflows a float
    for rule in (scalar, lambda y: _reference_admission(domain, y)):
        with pytest.raises(OverflowError):
            rule(huge)
    lanes = np.array(points + [huge])
    with np.errstate(all="ignore"):  # on lanes |huge| is inf
        verdict, gap = semiflow._wall_rule(domain, semiflow._LANES)(lanes)
        ref_verdict, ref_gap = _reference_admission(domain, lanes)
    assert _bits_equal(verdict, ref_verdict) and _bits_equal(gap, ref_gap)
    assert verdict[-1] == semiflow._REJECT and gap[-1] == -_INF


def test_long_run_memory_is_bounded():
    # 1i*z at tol 1e-13 takes about 8,550 steps to t = 100; the per-sample
    # loop peaked at 1,239,510 traced bytes on this run (Python 3.11)
    G = parse_symbol("1i*z")
    integrate(G, DISC, 0.5, 1.0, 1e-9)  # first-call allocations
    tracemalloc.start()
    try:
        traj = integrate(G, DISC, 0.5, 100.0, 1e-13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) > 8000
    assert peak <= 1.5 * 1_239_510


def test_csv_format():
    traj = integrate(LINEAR, DISC, 0.5, 1.0, 1e-9)
    text = trajectory_to_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "t,re,im"
    assert lines[1] == "0,0.5,0"
    assert lines[-1].startswith("# status=Completed")
    assert text.endswith("\n")
    traj = integrate(DOUBLING, DISC, 0.5, 2.0, 1e-9)
    assert "# status=Escaped t_escape=" in trajectory_to_csv(traj)


def test_csv_matches_per_number_reference():
    edge = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, 1 / 3]
    times = np.array(edge + [2.0, 3.5])
    points = np.array([complex(a, b) for a, b in zip(edge, edge[::-1])]
                      + [complex(-0.0, 1e300), 0.25 - 0.5j])
    runs = [integrate(parse_symbol(symbol), domain, z0, horizon, tol)
            for symbol, domain, z0, horizon, tol, _ in ARRAY_PASS_RUNS[::3]]
    for traj in (Trajectory(times, points, Status.completed(3.5)),
                 Trajectory(times, points, Status.escaped(3.5, -0.0j)),
                 Trajectory(times[:0], points[:0], Status.completed(1.0)),
                 integrate(TANH, DISC, 0.3j, 4.0, 1e-9), *runs):
        lines = ["t,re,im"]
        for t, p in zip(traj.times, traj.points):
            lines.append("%.17g,%.17g,%.17g" % (t, p.real, p.imag))
        status = trajectory_to_csv(traj).splitlines()[-1]
        assert status.startswith("# status=")
        lines.append(status)
        assert trajectory_to_csv(traj) == "\n".join(lines) + "\n"


# The Dormand-Prince tableau as rows, and the step as loops over them: the
# reference for the written-out sums of semiflow._dp_step.
_TABLEAU_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_TABLEAU_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_TABLEAU_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
              22 / 525, -1 / 40)
_STEP_SYMBOLS = ["-z", "1-z^2", "i*z", "z^2+0.5", "0.1", "exp(z)",
                 "mobius(1,0,1,-2)"]


def _dp_step_by_rows(rhs, y, h, k1):
    k = [k1]
    for row in _TABLEAU_A:
        acc = 0
        for a, ki in zip(row, k):
            acc = acc + a * ki
        k.append(rhs(y + h * acc))
    y5 = y
    for b, ki in zip(_TABLEAU_B, k):
        y5 = y5 + h * b * ki
    k7 = rhs(y5)
    k.append(k7)
    err = 0
    for e, ki in zip(_TABLEAU_E, k):
        err = err + e * ki
    return y5, h * err, k7


def _bits(values):
    return [(np.float64(v.real).tobytes(), np.float64(v.imag).tobytes())
            for v in np.ravel(values)]


def _step_lanes(n=19):
    # signed zeros, the real axis and random points; 19 lanes is no
    # multiple of semiflow._LANE_BLOCK
    rng = np.random.default_rng(11)
    return np.concatenate([[0.5, -0.25, 0j, complex(0.3, -0.0)],
                           rng.uniform(-0.6, 0.6, n - 4)
                           + 1j * rng.uniform(-0.6, 0.6, n - 4)])


@pytest.mark.parametrize("symbol", _STEP_SYMBOLS)
def test_dp_step_matches_tableau_rows_bit_for_bit(symbol):
    # Python scalars on and off the real axis, at one step size and then
    # each at its own (the step sizes of test_lane_step_matches_tableau_rows)
    G = parse_symbol(symbol)
    lanes = _step_lanes()
    sizes = np.linspace(1e-3, 0.1, len(lanes)).tolist()
    for y, h in zip(lanes.tolist() * 2, [0.037] * len(lanes) + sizes):
        got = semiflow._dp_step(G.eval, y, h, G.eval(y))
        want = _dp_step_by_rows(G.eval, y, h, G.eval(y))
        assert _bits(got) == _bits(want), (y, h)


def _recorded_stages(G, lanes, h, k1):
    """The reference step with its stages broadcast to the lanes, and the
    magnitudes summed into y5, err and k7 (k7: |k7| plus that of y5, as
    the symbols have Lipschitz constants near 1)."""
    stages = [np.broadcast_to(k1, lanes.shape)]

    def recording(x):
        v = G.eval(x)
        stages.append(np.broadcast_to(v, x.shape))
        return v

    want = _dp_step_by_rows(recording, lanes, h, k1)
    K = np.abs(np.array(stages))
    mag_y5 = np.abs(lanes) + h * (np.abs(_TABLEAU_B) @ K[:6])
    mag_err = h * (np.abs(_TABLEAU_E) @ K)
    return want, (mag_y5, mag_err, np.abs(want[2]) + mag_y5)


# Lanes take the tableau as a matrix, which sums the products in
# another order: each result is checked to 4 ulps of the magnitudes summed
# into it (y5: |y| + h sum |b_i k_i|; err: h sum |e_i k_i|).
@pytest.mark.parametrize("symbol", _STEP_SYMBOLS)
def test_shared_step_matches_tableau_rows(symbol):
    G = parse_symbol(symbol)
    lanes = _step_lanes(16)
    h, k1 = 0.037, G.eval(lanes)
    want, mags = _recorded_stages(G, lanes, h, k1)
    got = semiflow._dp_step_shared(G.eval, lanes, h, k1)
    for g, w, mag in zip(got, want, mags):
        assert g.shape == lanes.shape
        assert np.all(np.abs(g - w) <= 4 * np.finfo(float).eps * mag)


@pytest.mark.parametrize("symbol", _STEP_SYMBOLS)
def test_lane_step_matches_tableau_rows(symbol):
    # one step size per lane, as independent lanes take it
    G = parse_symbol(symbol)
    lanes = _step_lanes()
    h, k1 = np.linspace(1e-3, 0.1, len(lanes)), G.eval(lanes)
    want, mags = _recorded_stages(G, lanes, h, k1)
    got = semiflow._dp_step_lanes(G.eval, lanes, h, k1)
    for g, w, mag in zip(got, want, mags):
        assert g.shape == lanes.shape
        assert np.all(np.abs(g - w) <= 4 * np.finfo(float).eps * mag)


@pytest.mark.parametrize("symbol", _STEP_SYMBOLS)
def test_lane_step_does_not_depend_on_its_neighbours(symbol):
    # each lane of a step with one h per lane has the bits it has among
    # any other lanes, in any order (a plain product over the unpadded
    # lanes rounds a ragged tail of lanes differently)
    G = parse_symbol(symbol)
    rng = np.random.default_rng(18)
    lanes = rng.uniform(-0.6, 0.6, 67) + 1j * rng.uniform(-0.6, 0.6, 67)
    h = rng.uniform(1e-3, 0.1, len(lanes))
    full = semiflow._dp_step_lanes(G.eval, lanes, h, G.eval(lanes))
    for size in (1, 2, 7, 9, 30, 66, 67):
        pick = rng.permutation(len(lanes))[:size]
        got = semiflow._dp_step_lanes(G.eval, lanes[pick], h[pick],
                                      G.eval(lanes[pick]))
        for g, f in zip(got, full):
            assert np.asarray(g).tobytes() == f[pick].tobytes(), size


def test_shared_step_raises_at_a_pole():
    # the second stage of the lane at 1.9 lands on the pole z = 2 of G
    G = parse_symbol("mobius(1,0,1,-2)")
    h = 0.05
    lanes = np.array([0.5, 1.9, -0.3j])
    k1 = G.eval(lanes)
    k1[1] = 0.1 / (h * semiflow._A21)
    for step in (semiflow._dp_step_shared, _dp_step_by_rows):
        with pytest.raises(PoleError):
            step(G.eval, lanes, h, k1)


@pytest.mark.parametrize("bad", [math.nan, complex(0.2, math.nan), math.inf,
                                 -math.inf, complex(0.0, -math.inf), 1.0,
                                 -1j])
def test_inside_unit_disc_rejects_non_finite_and_the_circle(bad):
    y = np.array([0.5, 0.3j, bad, -0.99])
    assert semiflow._inside_unit_disc(y) == (semiflow._REJECT, None)
    assert semiflow._inside_unit_disc(np.delete(y, 2)) == (
        semiflow._ACCEPT, None)


@pytest.mark.parametrize("c", ["-1", "(0.3-2i)", "-40"])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_start_step_closed_form_on_linear_symbols(c, tol):
    # G = c z: |G(u)| = |c| |u| on every lane, and the Euler probe changes
    # the slope by c^2 h0 u, so h0 = 0.01 / |c| and
    # h = min(1 / |c|, (0.01 / (max(1, |c|) |c| d0))^(1/5))
    lanes = np.concatenate([semiflow.circle_points(16, 0.6),
                            semiflow._INTERIOR_LANES])
    G = parse_symbol(c + "*z")
    c = G.eval(1.0)
    t, h, k1 = semiflow._start_step(G.eval, lanes, tol)
    d0 = float(np.max(np.abs(lanes) / (tol * (1 + np.abs(lanes)))))
    want = min(1 / abs(c), (0.01 / (max(1, abs(c)) * abs(c) * d0)) ** 0.2)
    assert t == 0.0 and np.array_equal(k1, G.eval(lanes))
    assert h == pytest.approx(want, rel=1e-12)


def test_start_step_of_a_zero_symbol():
    lanes = np.concatenate([semiflow.circle_points(16, 0.6),
                            semiflow._INTERIOR_LANES])
    assert semiflow._start_step(parse_symbol("0").eval, lanes, 1e-9)[1] == 1e-6


@pytest.mark.parametrize("probe", [PoleError("pole"), math.inf, math.nan])
def test_start_step_leaves_out_a_probe_that_meets_a_pole(probe):
    # G = -z, but the Euler probe raises or is not finite: the slope
    # change is left out, h = min(100 h0, (0.01 / d1)^(1/5)), d1 = d0
    lanes = np.concatenate([semiflow.circle_points(16, 0.6),
                            semiflow._INTERIOR_LANES])
    calls = []

    def rhs(u):
        calls.append(u)
        if len(calls) == 1:
            return -u
        if isinstance(probe, Exception):
            raise probe
        return np.full(len(u), probe, complex)

    with np.errstate(all="ignore"):
        _, h, _ = semiflow._start_step(rhs, lanes, 1e-9)
    d0 = float(np.max(np.abs(lanes) / (1e-9 * (1 + np.abs(lanes)))))
    assert len(calls) == 2
    assert h == pytest.approx(min(1.0, (0.01 / d0) ** 0.2), rel=1e-12)


def test_shared_error_ratio():
    u = np.array([0.5, -0.25j, 0.0, 0.9 + 0.1j])
    assert semiflow._error_ratio(u, np.zeros(4, complex), 1e-9) == math.inf
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.normal(size=64) + 1j * rng.normal(size=64)
        err = (rng.normal(size=64) + 1j * rng.normal(size=64)) * 1e-10
        old = 1e-9 / float(np.max(np.abs(err) / (1.0 + np.abs(u))))
        assert semiflow._error_ratio(u, err, 1e-9) == old


# escape_time and flow_point run the driver without recording a trajectory;
# they must end exactly where integrate ends
END_CONFIGS = [
    ("z", "unitdisc", 0.5), ("-z", "unitdisc", 0.5),
    ("1-z^2", "unitdisc", 0.2j), ("z^2", "unitdisc", 0.9),
    ("(0.3+1i)*z", "unitdisc", 0.3 + 0.1j),
    ("z^2+0.5", "unitdisc", -0.2j), ("2*z", "halfplane:right", 1 + 1j),
    ("z^2", "halfplane:right", 1.0),
]


@pytest.mark.parametrize("symbol,domain,z0", END_CONFIGS)
@pytest.mark.parametrize("t", [0.5, 2.0, 9.0])
@pytest.mark.parametrize("tol", [1e-9, 1e-11])
def test_escape_time_and_flow_point_end_where_integrate_ends(symbol, domain,
                                                             z0, t, tol):
    G, D = parse_symbol(symbol), parse_domain(domain)
    traj = integrate(G, D, z0, t, tol)
    assert escape_time(G, D, z0, t, tol) == traj.status.t_escape
    if traj.escaped:
        with pytest.raises(EscapeError, match=re.escape(
                "escaped at t=%r" % traj.status.t_escape)):
            flow_point(G, D, z0, t, tol)
    else:
        assert repr(flow_point(G, D, z0, t, tol)) == repr(traj.final_point)


def test_escape_time_and_flow_point_check_first():
    for f in (escape_time, flow_point):
        with pytest.raises(BadParameter):
            f(LINEAR, DISC, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            f(LINEAR, DISC, 1.5, 1.0, 1e-9)


# The wall endgame: a step refused at the wall is retried at the secant's
# predicted crossing instead of at half its length. The step-count tests
# count _dp_step calls; the reference escape times are those of the former
# halving endgame (printed with repr), which took 97-123 steps on these
# runs.

def _recording_steps(monkeypatch):
    endpoints = []
    original = semiflow._dp_step

    def recording(rhs, y, h, k1):
        out = original(rhs, y, h, k1)
        endpoints.append(out[0])
        return out

    monkeypatch.setattr(semiflow, "_dp_step", recording)
    return endpoints


def _counterexample_symbol(b):
    return build_counterexample(complex(b), parse_symbol("1"))


HALVING_ESCAPES = [
    # (symbol, domain, z0, escape time of the halving endgame)
    (_counterexample_symbol(1.5), DISC, 0j, 1.436819790713521),
    (_counterexample_symbol(1.2), DISC, 0.3, 1.9401767641636463),
    (_counterexample_symbol(1.9), DISC, -0.6 + 0.2j, 1.299829003847229),
    (RICCATI, DISC, 0.9, 0.1111111101075681),
    (parse_symbol("-1+0.5i"), Domain.half_plane("right"), 1 + 0j,
     0.999999998998833),
]


@pytest.mark.parametrize("G,domain,z0,t_halving", HALVING_ESCAPES)
def test_wall_endgame_steps_and_escape_time(monkeypatch, G, domain, z0,
                                            t_halving):
    endpoints = _recording_steps(monkeypatch)
    t = escape_time(G, domain, z0, 60.0, 1e-9)
    assert len(endpoints) <= 40
    assert t == pytest.approx(t_halving, rel=1e-10)
    first = next(i for i, y in enumerate(endpoints)
                 if domain.signed_distance(y) < semiflow.DELTA_WALL)
    assert len(endpoints) - first <= 6


def test_wall_endgame_closed_form_crossings():
    # z^2 from 0.9 reaches |z| = 1 - DELTA_WALL at 1/0.9 - 1/(1 - 1e-9); the
    # translation by -1 + 0.5i reaches Re z = DELTA_WALL at 1 - 1e-9
    t = escape_time(RICCATI, DISC, 0.9, 10.0, 1e-9)
    assert t == pytest.approx(1 / 0.9 - 1 / (1 - 1e-9), rel=1e-9)
    t = escape_time(parse_symbol("-1+0.5i"), Domain.half_plane("right"),
                    1 + 0j, 10.0, 1e-9)
    assert abs(t - (1 - 1e-9)) <= 2 * semiflow.H_MIN


@pytest.mark.parametrize("b,z0", [
    (1.1j, 0.4 - 0.1j), (cmath.rect(1.3, 2.5), 0.2j),
    (cmath.rect(1.6, -0.7), -0.45 - 0.2j),
    (cmath.rect(1.05, 4.0), 0.9 * cmath.exp(1j)), (-1.4 + 0.5j, 0.95),
])
def test_wall_endgame_is_short_on_counterexample_orbits(monkeypatch, b, z0):
    endpoints = _recording_steps(monkeypatch)
    assert escape_time(_counterexample_symbol(b), DISC, z0, 60.0,
                       1e-9) is not None
    first = next(i for i, y in enumerate(endpoints)
                 if DISC.signed_distance(y) < semiflow.DELTA_WALL)
    assert len(endpoints) - first <= 6


def test_orbit_too_slow_to_cross_the_wall_escapes(monkeypatch):
    # 1 - tanh t falls below DELTA_WALL at t = artanh(1 - 1e-9) = 10.708;
    # the orbit then approaches 1 by about 2e-9 per unit time, too slowly
    # to cross the wall in floating point, and ends once its gap is within
    # rounding of 0 instead of creeping on until the step limit
    endpoints = _recording_steps(monkeypatch)
    t = escape_time(TANH, DISC, 0j, 12.0, 1e-9)
    assert abs(t - math.atanh(1 - 1e-9)) < 0.1
    assert len(endpoints) <= 200
    traj = integrate(TANH, DISC, 0.2j, 40.0, 1e-9)
    assert traj.escaped
    assert 1 - abs(traj.final_point) >= semiflow.DELTA_WALL


def test_lanes_end_slow_orbits_like_the_scalar_path():
    # as above, lane by lane; a last-bit difference in the state moves the
    # time its gap falls within rounding by up to 1e-16 / 2e-9 = 5e-8
    seeds = DISC.sample_grid(2)
    lanes = semiflow.integrate_seeds(TANH, DISC, seeds, 12.0, 1e-9,
                                    0.0)
    for seed, (points, status) in zip(seeds, lanes):
        ref = integrate(TANH, DISC, seed, 12.0, 1e-9).status
        assert status.kind == ref.kind
        if ref.kind == "Escaped":
            assert status.t_escape == pytest.approx(ref.t_escape, rel=1e-7)


def test_hermite_chord_distance_bound():
    # p(theta) - (u + theta d) = theta (1-theta)^2 a - theta^2 (1-theta) b
    # with d = y - u, a = h k1 - d and b = h k_y - d, so the curve of a
    # step stays within (4/27) (|a| + |b|) of its chord
    rng = np.random.default_rng(11)
    n = 10_000

    def cplx(scale):
        return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))

    u, y = cplx(rng.lognormal(size=n)), cplx(rng.lognormal(size=n))
    h = rng.lognormal(-3.0, 2.0, size=n)
    k1, k_y = cplx(rng.lognormal(size=n) / h), cplx(rng.lognormal(size=n) / h)
    d = y - u
    bound = semiflow._CHORD_BOUND * (abs(h * k1 - d) + abs(h * k_y - d))
    theta = np.linspace(0.0, 1.0, 101)[:, None]
    dist = abs(semiflow._hermite(theta, u, k1, y, k_y, h) - (u + theta * d))
    assert np.all(dist.max(axis=0) <= bound * (1 + 1e-12) + 1e-12 * (
        abs(u) + abs(y)))
    # b = 0: the distance at theta = 1/3 attains the bound
    u, y, h = 0.25 + 0.5j, 1.0 - 0.75j, 0.5
    d = y - u
    k1, k_y = (d + 0.3 - 0.2j) / h, d / h
    bound = semiflow._CHORD_BOUND * abs(h * k1 - d)
    dist = abs(semiflow._hermite(theta, u, k1, y, k_y, h) - (u + theta * d))
    assert dist.max() == pytest.approx(bound, rel=1e-2)
    assert dist.max() <= bound


# -- one rule for the inputs of every run ------------------------------------


def _first_seed(G, domain, z0, t, tol):
    # integrate_seeds reports a seed's error in its place instead of raising
    [out] = semiflow.integrate_seeds(G, domain, [z0], t, tol, 0.0)
    if isinstance(out, Exception):
        raise out
    return out


# Each entry as run(t, tol, z0), whether it accepts t = 0, and whether it
# takes a start point in the unit disc (conjugation_residual's lies in the
# source disc of the Cayley map).
_RUNS = {
    "integrate": (lambda t, tol, z0: integrate(LINEAR, DISC, z0, t, tol),
                  False, True),
    "integrate_seeds": (lambda t, tol, z0: _first_seed(LINEAR, DISC, z0, t,
                                                       tol), False, True),
    "escape_time": (lambda t, tol, z0: escape_time(LINEAR, DISC, z0, t, tol),
                    False, True),
    "flow_point": (lambda t, tol, z0: flow_point(LINEAR, DISC, z0, t, tol),
                   True, True),
    "flow_series": (lambda t, tol, z0: flow_series(LINEAR, t, 8, tol),
                    True, False),
    "apply-degree-0": (lambda t, tol, z0: apply(LINEAR, t, SeriesFn([2.5]),
                                                tol), True, False),
    "apply": (lambda t, tol, z0: apply(LINEAR, t, SeriesFn.identity(8), tol),
              True, False),
    "semigroup_residual": (lambda t, tol, z0: semigroup_residual(
        LINEAR, DISC, z0, t, t, tol), True, True),
    "conjugation_residual": (lambda t, tol, z0: conjugation_residual(
        DOUBLING, cayley(), z0, t, tol), True, True),
    "bp_classify": (lambda t, tol, z0: bp_classify(
        LINEAR, escape_t_max=t, escape_tol=tol), False, False),
}


def _run_rule_cases():
    for name, (_, zero_ok, seeded) in _RUNS.items():
        for bad in (semiflow.MAX_HORIZON * 1.001, math.nan):
            yield pytest.param(name, bad, 1e-9, 0.5, BadParameter,
                               id="%s-t=%r" % (name, bad))
        for t in (0.0, 1.0) if zero_ok else (1.0,):
            yield pytest.param(name, t, 1.0, 0.5, BadParameter,
                               id="%s-tol=1-t=%r" % (name, t))
            if seeded:
                yield pytest.param(name, t, 1e-9, 1.5 + 0j, DomainError,
                                   id="%s-outside-t=%r" % (name, t))


@pytest.mark.parametrize("name,t,tol,z0,error", _run_rule_cases())
def test_every_run_checks_its_inputs_first(name, t, tol, z0, error):
    with pytest.raises(error):
        _RUNS[name][0](t, tol, z0)

