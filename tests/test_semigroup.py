import cmath
import math

import numpy as np
import pytest

from holoflow import semiflow
from holoflow import (
    BadParameter,
    CoefSpace,
    EscapeError,
    OperatorMatrix,
    SeriesFn,
    apply,
    flow_series,
    generator_action,
    generator_residual,
    matrix_summary,
    matrix_to_csv,
    maximality_residual,
    operator_matrix,
    parse_symbol,
    series_compose,
    strong_continuity_report,
    transport_pde_residual,
)

H2 = CoefSpace.h2()
LINEAR = parse_symbol("-z")
TANH = parse_symbol("1-z^2")


def e(k, n):
    return SeriesFn.basis(k, n)


# A constant series, which every T(t) fixes: the degree-0 checks make no run.
CONSTANT = SeriesFn([2.0])


@pytest.fixture
def no_run(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a constant series needs no flow run")

    monkeypatch.setattr(semiflow, "_flow_series_path", refuse)


def tanh_flow(t, z):
    return cmath.tanh(t + cmath.atanh(z))


def tanh_flow_series(t, n):
    """Degree-n coefficients of the tanh flow in closed form:
    phi_t(z) = (z + a)/(1 + a z) = a + sum_k (1 - a^2) (-a)^(k-1) z^k
    with a = tanh t."""
    a = math.tanh(t)
    c = np.empty(n + 1)
    c[0] = a
    c[1:] = (1 - a * a) * (-a) ** np.arange(n)
    return SeriesFn(c)


def tanh_flow_extended(t, n):
    """tanh_flow_series in extended precision (np.longdouble)."""
    a = np.tanh(np.longdouble(t))
    c = np.empty(n + 1, np.longdouble)
    c[0] = a
    c[1:] = (1 - a * a) * (-a) ** np.arange(n, dtype=np.longdouble)
    return c


def column_loop(flow):
    """The matrix of phi^0 .. phi^N built column by column, one truncated
    convolution each, in the dtype of the flow coefficients."""
    n = len(flow)
    want = np.zeros((n, n), dtype=flow.dtype)
    col = np.zeros(n, dtype=flow.dtype)
    col[0] = 1
    want[:, 0] = col
    for k in range(1, n):
        col = np.convolve(col, flow)[:n]
        want[:, k] = col
    return want


class TestApply:
    def test_linear_eigenvector(self):
        out = apply(LINEAR, math.log(2), e(1, 1), 1e-10)
        assert np.allclose(out.coeffs, [0, 0.5], atol=1e-10)

    def test_time_zero_is_identity(self):
        f = SeriesFn([0.3, 1, -2j, 0.1])
        out = apply(TANH, 0.0, f, 1e-10)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_constant_series_fixed(self):
        f = SeriesFn([2.5])
        assert np.array_equal(apply(TANH, 0.7, f, 1e-9).coeffs, f.coeffs)

    @pytest.mark.parametrize("t,tol", [(-1.0, 1e-9), (math.nan, 1e-9),
                                       (math.inf, 1e-9), (0.7, 1.0),
                                       (0.7, math.nan)])
    def test_constant_series_checks_t_and_tol(self, t, tol):
        with pytest.raises(BadParameter):
            apply(TANH, t, SeriesFn([2.5]), tol)

    def test_tanh_flow_values(self):
        out = apply(TANH, 0.5, e(1, 32), 1e-10)
        for k in range(5):
            z = 0.2 * cmath.exp(2j * cmath.pi * k / 5)
            assert abs(out.eval_at(z) - tanh_flow(0.5, z)) <= 1e-8

    def test_escape_propagates(self):
        with pytest.raises(EscapeError):
            apply(parse_symbol("z"), 3.0, e(1, 8), 1e-9)

    def test_multiplicative_on_polynomials(self):
        n = 16
        f = e(1, n) + e(2, n)
        g = e(1, n) - e(3, n)
        left = apply(TANH, 0.4, f * g, 1e-10)
        right = apply(TANH, 0.4, f, 1e-10) * apply(TANH, 0.4, g, 1e-10)
        assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-9


class TestOperatorMatrix:
    def test_linear_is_diagonal(self):
        m = operator_matrix(LINEAR, 0.7, 6, 1e-10)
        diag = np.exp(-0.7 * np.arange(7))
        assert np.allclose(m.entries, np.diag(diag), atol=1e-9)
        assert m.spectral_radius_estimate() == pytest.approx(1.0)

    def test_time_zero_identity(self):
        m = operator_matrix(TANH, 0.0, 5, 1e-10)
        assert np.array_equal(m.entries, np.eye(6))

    @pytest.mark.parametrize("symbol,t,degree", [
        ("-z", 0.7, 6), ("1-z^2", 0.3, 8), ("1-z^2", 3.0, 48),
        ("-z*(1+0.3*z)", 1.0, 64), ("0.1", 0.5, 16),
    ])
    def test_matches_column_loop_bit_for_bit(self, symbol, t, degree):
        # column 1 is the flow series bit for bit; the other columns come
        # from the flow's circle samples, and stay within 1e-11 of the
        # matrix built column by column, one convolution each
        G = parse_symbol(symbol)
        flow = flow_series(G, t, degree, 1e-10).coeffs.coeffs
        m = operator_matrix(G, t, degree, 1e-10)
        assert np.array_equal(m.entries[:, 1], flow)
        assert m.entries.flags.c_contiguous
        assert np.max(np.abs(m.entries - column_loop(flow))) <= 1e-11
        if G.eval(0j) == 0:  # phi(0) = 0: every phi^k vanishes to order k
            assert np.max(np.abs(np.triu(m.entries, 1))) <= 1e-14

    @pytest.mark.parametrize("symbol,c", [
        ("-z", -1.0), ("(-0.5+1i)*z", -0.5 + 1j), ("-i*z", -1j)])
    @pytest.mark.parametrize("degree", [16, 64, 256])
    def test_linear_symbol_closed_form(self, symbol, c, degree):
        # phi_t(z) = e^{ct} z, so M_t is diagonal with entries e^{kct}; a
        # rotation keeps its phase error, about 4e-13 k
        t = 0.7
        m = operator_matrix(parse_symbol(symbol), t, degree, 1e-12).entries
        want = np.diag(np.exp(c * t * np.arange(degree + 1)))
        assert np.max(np.abs(m - want)) <= 1e-12 * (degree + 1)
        assert np.max(np.abs(np.triu(m, 1))) <= 1e-14

    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("degree", [16, 64, 256])
    def test_tanh_closed_form(self, t, degree):
        # column k: the coefficients of ((z + a)/(1 + a z))^k, a = tanh t,
        # formed from the closed-form coefficients in extended precision
        m = operator_matrix(TANH, t, degree, 1e-13).entries
        want = column_loop(tanh_flow_extended(t, degree))
        assert np.max(np.abs(m - want.astype(np.complex128))) <= 5e-11

    def test_column_zero_fixed(self):
        m = operator_matrix(TANH, 0.3, 8, 1e-10)
        want = np.zeros(9)
        want[0] = 1
        assert np.array_equal(m.entries[:, 0], want)

    def test_matches_apply_on_random_series(self):
        rng = np.random.default_rng(12)
        m = operator_matrix(TANH, 0.3, 8, 1e-10)
        for _ in range(10):
            f = SeriesFn(rng.standard_normal(9) + 1j * rng.standard_normal(9))
            direct = apply(TANH, 0.3, f, 1e-10)
            assert np.max(np.abs(m.entries @ f.coeffs - direct.coeffs)) <= 1e-9

    def test_semigroup_law_of_matrices(self):
        # M_{t+s} = M_s M_t holds for truncations only when phi_t(0) = 0,
        # which makes the matrices triangular. For the tanh flow
        # phi_t(0) = tanh t, so entry (j, k) of M_s M_t is an infinite sum
        # over the inner index: form the product at inner degree 32 and
        # compare its leading 9 x 9 block with the degree-8 M_{t+s}.
        for G, inner in ((LINEAR, 8), (parse_symbol("-i*z"), 8), (TANH, 32)):
            for t, s in [(0.2, 0.3), (0.3, 0.2), (0.25, 0.25)]:
                mt = operator_matrix(G, t, inner, 1e-11).entries
                ms = operator_matrix(G, s, inner, 1e-11).entries
                mts = operator_matrix(G, t + s, 8, 1e-11).entries
                if inner == 8:
                    assert np.max(np.abs(np.triu(mt, 1))) <= 1e-14
                assert np.max(np.abs(mts - (ms @ mt)[:9, :9])) <= 1e-8

    def test_csv_export_shape(self):
        m = operator_matrix(LINEAR, 0.5, 3, 1e-10)
        text = matrix_to_csv(m)
        lines = text.splitlines()
        assert lines[0].startswith("# t=0.5 N=3")
        assert len(lines) == 5
        assert len(lines[1].split(",")) == 8

    def test_csv_matches_per_number_reference(self):
        edge = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, 1 / 3,
                -2.2250738585072014e-308, 123456789.0]
        rng = np.random.default_rng(11)
        entries = (rng.choice(edge, (6, 6))
                   + 1j * rng.choice(edge, (6, 6)))
        entries[0, :4] = [complex(-0.0, 5e-324), 1e300j, -0.0j, 0j]
        for m in (OperatorMatrix(0.25, 5, entries),
                  OperatorMatrix(-0.0, 5, np.asfortranarray(entries.T)),
                  operator_matrix(TANH, 0.4, 12, 1e-10)):
            lines = ["# t=%.17g N=%d" % (m.t, m.degree)]
            for row in m.entries:
                cells = []
                for v in row:
                    cells.append("%.17g" % v.real)
                    cells.append("%.17g" % v.imag)
                lines.append(",".join(cells))
            assert matrix_to_csv(m) == "\n".join(lines) + "\n"

    def test_summary_consistency(self):
        m = operator_matrix(TANH, 0.4, 12, 1e-10)
        doc = matrix_summary(m)
        assert doc["N"] == 12
        assert doc["residuals"]["apply_consistency"] <= 1e-9

    @pytest.mark.parametrize("symbol,t,degree", [
        ("1-z^2", 0.4, 12), ("-z*(1+0.3*z)", 1.0, 64), ("1-z^2", 2.0, 96)])
    def test_batched_summary_matches_series_loop(self, symbol, t, degree):
        # the summary's batch against its ten draws composed one by one
        m = operator_matrix(parse_symbol(symbol), t, degree, 1e-10)
        rng = np.random.default_rng(20240601)
        flow = SeriesFn(m.entries[:, 1])
        worst = 0.0
        for _ in range(10):
            c = rng.standard_normal(degree + 1) / (1.0 + np.arange(degree + 1))
            f = SeriesFn(c.astype(np.complex128))
            worst = max(worst, float(np.max(np.abs(
                series_compose(f, flow).coeffs - m.entries @ f.coeffs))))
        got = matrix_summary(m)["residuals"]["apply_consistency"]
        assert abs(got - worst) <= 1e-13


class TestGeneratorResidual:
    def test_linear_half_h(self):
        # residual = |(e^-h - 1)/h + 1| ~ h/2
        h = 1e-3
        r = generator_residual(LINEAR, e(1, 16), H2, h, 1e-10)
        assert r == pytest.approx(h / 2, rel=1e-2)
        assert r <= 1e-3

    def test_constant_series_zero(self):
        f = SeriesFn([1.0] + [0.0] * 16)
        assert generator_residual(TANH, f, H2, 1e-3, 1e-10) <= 1e-12

    def test_first_order_in_h(self):
        steps = [1e-2, 5e-3, 2.5e-3]
        rs = [generator_residual(TANH, e(1, 64), H2, h, 1e-10) for h in steps]
        assert rs[0] / rs[1] == pytest.approx(2.0, rel=0.05)
        assert rs[1] / rs[2] == pytest.approx(2.0, rel=0.05)

    def test_h_validation(self):
        with pytest.raises(BadParameter):
            generator_residual(LINEAR, e(1, 8), H2, 1e-7, 1e-10)

    def test_generator_action_closed_form(self):
        # (1 - z^2) d/dz of z = 1 - z^2
        g = generator_action(TANH, e(1, 8))
        assert np.allclose(g.coeffs, [1, 0, -1, 0, 0, 0, 0, 0, 0], atol=1e-11)


class TestMaximality:
    def test_linear_exact_identity(self):
        r = maximality_residual(LINEAR, e(1, 16), H2, 1.0, 64, 1e-10)
        assert r <= 1e-8

    def test_constant_series_zero(self):
        f = SeriesFn([3.0] + [0.0] * 16)
        assert maximality_residual(TANH, f, H2, 0.5, 16, 1e-10) <= 1e-14

    def test_tanh_quadratic_seed(self):
        r = maximality_residual(TANH, e(2, 64), H2, 0.5, 64, 1e-10)
        assert r <= 1e-6

    def test_simpson_rate(self):
        rs = [maximality_residual(TANH, e(1, 24), H2, 0.8, n, 1e-11)
              for n in (8, 16, 32)]
        assert rs[0] / rs[1] > 8   # order ~4 until solver error floors it
        assert rs[1] / rs[2] > 8

    def test_degree_zero_constant_is_fixed(self, no_run):
        assert maximality_residual(LINEAR, CONSTANT, H2, 0.5, 8, 1e-10) == 0.0
        with pytest.raises(BadParameter):
            maximality_residual(LINEAR, CONSTANT, H2, 200.0, 8, 1e-10)

    def test_node_validation(self):
        with pytest.raises(BadParameter):
            maximality_residual(LINEAR, e(1, 8), H2, 0.5, 7, 1e-10)


class TestTransport:
    def test_linear_discretization_error_only(self):
        r = transport_pde_residual(LINEAR, e(1, 16), 0.5, 1.0, 1e-3, 1e-3)
        assert r <= 1e-6

    def test_constant_zero(self):
        f = SeriesFn([4.0] + [0.0] * 8)
        assert transport_pde_residual(TANH, f, 0.3, 0.5, 1e-3, 1e-3) <= 1e-12

    def test_degree_zero_constant_is_fixed(self, no_run):
        assert transport_pde_residual(LINEAR, CONSTANT, 0.3, 0.5, 1e-3,
                                      1e-3) == 0.0

    def test_tanh(self):
        r = transport_pde_residual(TANH, e(1, 32), 0.2, 0.4, 1e-3, 1e-3)
        assert r <= 1e-5

    def test_probe_validation(self):
        with pytest.raises(BadParameter):
            transport_pde_residual(LINEAR, e(1, 8), 0.9999, 0.5, 1e-3, 1e-3)

    def test_zero_time_step_is_refused(self):
        with pytest.raises(BadParameter):
            transport_pde_residual(LINEAR, e(1, 8), 0.5, 0.5, 0.0, 1e-3)

    def test_zero_space_step_is_refused(self):
        with pytest.raises(BadParameter):
            transport_pde_residual(LINEAR, e(1, 8), 0.5, 0.5, 1e-3, 0.0)

    def test_negative_space_step_is_refused(self):
        # |z| + h_z < 1 holds, yet z - h_z lies at |z| = 1.009
        with pytest.raises(BadParameter):
            transport_pde_residual(LINEAR, e(1, 8), 0.999, 0.5, 1e-3, -0.01)

    def test_non_finite_steps_are_refused(self):
        for h_t, h_z in ((math.nan, 1e-3), (1e-3, math.nan),
                         (math.inf, 1e-3)):
            with pytest.raises(BadParameter):
                transport_pde_residual(LINEAR, e(1, 8), 0.5, 0.5, h_t, h_z)


class TestStrongContinuity:
    def test_linear_halving(self):
        ts = [2.0 ** -k for k in range(1, 8)]
        report = strong_continuity_report(LINEAR, e(1, 8), H2, ts)
        devs = [d for _, d in report]
        for (t, d) in report:
            assert d == pytest.approx(1 - math.exp(-t), rel=1e-6)
        ratios = [a / b for a, b in zip(devs, devs[1:])]
        for r in ratios[-3:]:
            assert r == pytest.approx(2.0, rel=0.15)

    def test_zero_series(self):
        report = strong_continuity_report(TANH, SeriesFn.zeros(8), H2,
                                          [0.5, 0.25])
        assert all(d == 0 for _, d in report)

    def test_degree_zero_constant_is_fixed(self, no_run):
        ts = [0.5, 0.0, 0.25, 0.5]
        report = strong_continuity_report(LINEAR, CONSTANT, H2, ts)
        assert report == [(t, 0.0) for t in ts]

    def test_tanh_decreasing(self):
        ts = [2.0 ** -k for k in range(1, 9)]
        f = e(1, 32) + e(2, 32)
        report = strong_continuity_report(TANH, f, H2, ts)
        devs = [d for _, d in report]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        for t, d in report:
            phi = tanh_flow_series(t, 32)
            exact = H2.norm(phi + phi * phi - f)
            assert d == pytest.approx(exact, rel=1e-9)
        # First order: ||T(t) f - f|| = t ||G f'|| + O(t^2), where
        # G f' = 1 + 2z - z^2 - 2z^3 has H2 norm sqrt(10).
        t, d = report[-1]
        assert d == pytest.approx(t * math.sqrt(10), rel=1e-3)
