import cmath
import math
import time

import numpy as np
import pytest

from holoflow import (
    BadParameter,
    Domain,
    DomainError,
    EscapeError,
    StiffnessError,
    backward_integrate,
    escape_time,
    flow_series,
    integrate,
    parse_symbol,
    semigroup_residual,
    trajectory_to_csv,
)

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
