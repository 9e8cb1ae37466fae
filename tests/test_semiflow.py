import cmath
import math
import re
import time

import numpy as np
import pytest

from holoflow import (
    BadParameter,
    SeriesFn,
    Domain,
    DomainError,
    EscapeError,
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
    for traj in (Trajectory(times, points, Status.completed(3.5)),
                 Trajectory(times, points, Status.escaped(3.5, -0.0j)),
                 integrate(TANH, DISC, 0.3j, 4.0, 1e-9)):
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


@pytest.mark.parametrize("symbol", ["-z", "1-z^2", "i*z", "z^2+0.5",
                                    "0.1", "exp(z)", "mobius(1,0,1,-2)"])
def test_dp_step_matches_tableau_rows_bit_for_bit(symbol):
    # scalars on and off the real axis, then all of them as lanes
    G = parse_symbol(symbol)
    rng = np.random.default_rng(11)
    lanes = np.concatenate([[0.5, -0.25, 0j, complex(0.3, -0.0)],
                            rng.uniform(-0.6, 0.6, 12)
                            + 1j * rng.uniform(-0.6, 0.6, 12)])
    for y in lanes.tolist():
        got = semiflow._dp_step(G.eval, y, 0.037, G.eval(y))
        want = _dp_step_by_rows(G.eval, y, 0.037, G.eval(y))
        assert _bits(got) == _bits(want), y
    h = np.linspace(1e-3, 0.1, len(lanes))
    k1 = G.eval(lanes)
    got = semiflow._dp_step(G.eval, lanes, h, k1)
    want = _dp_step_by_rows(G.eval, lanes, h, k1)
    assert all(_bits(a) == _bits(b) for a, b in zip(got, want))


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
    lanes = semiflow.integrate_seeds(TANH, DISC, seeds, 12.0, 1e-9)
    for seed, (points, status) in zip(seeds, lanes):
        ref = integrate(TANH, DISC, seed, 12.0, 1e-9).status
        assert status.kind == ref.kind
        if ref.kind == "Escaped":
            assert status.t_escape == pytest.approx(ref.t_escape, rel=1e-7)


# -- one rule for the inputs of every run ------------------------------------


def _first_seed(G, domain, z0, t, tol):
    # integrate_seeds reports a seed's error in its place instead of raising
    [out] = semiflow.integrate_seeds(G, domain, [z0], t, tol)
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
