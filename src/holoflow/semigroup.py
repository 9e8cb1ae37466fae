"""The composition semigroup acting on truncated series.

T(t) f = f o phi(t, .) where phi is the flow of the symbol G on the unit
disc, and everything here acts on degree-N truncations. apply composes f
with the flow series, and operator_matrix gives T(t) as an (N+1) x (N+1)
matrix on the monomial basis. A check takes all its flows from one run
(_flows). The checks measure, in a chosen coefficient norm, how well the
truncated action satisfies the identities that characterize the
generator A f = G f':

  * generator residual   ||(T(h) f - f)/h - G f'||, expected O(h);
  * integral identity    (1/t) integral_0^t T(s) (G f') ds
                         = (1/t) (T(t) f - f), Simpson quadrature;
  * transport equation   d/dt u = G(z) d/dz u for u(t, z) = (T(t) f)(z),
                         central differences in both variables.

The truncated product G f' drops the tail above degree N; for slowly
decaying coefficient sequences that truncation dominates the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# flow runs go through the module, so that a replacement of
# semiflow._flow_series_path sees every one of them
from . import semiflow
from .errors import BadParameter
from .expr import HoloExpr
from .jsonio import csv_text
from .series import SeriesFn, _compose_arrays, series_compose, taylor
from .spaces import CoefSpace

# Seeded random series that matrix_summary checks the matrix action on.
_SUMMARY_SAMPLES = 10


def _flows(G: HoloExpr, times, degree: int, tol: float) -> list[SeriesFn]:
    """The degree-`degree` flow series at each of times, from one run
    through the distinct times in increasing order. Every T(t) fixes a
    constant, and a composition of degree 0 reads nothing of its inner
    series: at degree 0 the inputs are checked as for a run, nothing is
    integrated, and each flow is the zero series."""
    ordered = sorted(set(times))
    if degree == 0:
        semiflow._run_times(ordered, tol)
        flows = [SeriesFn.zeros(0)] * len(ordered)
    else:
        flows = semiflow._flow_series_path(G, ordered, degree, tol)
    by_time = dict(zip(ordered, flows))
    return [by_time[t] for t in times]


def apply(G: HoloExpr, t: float, f: SeriesFn, tol: float) -> SeriesFn:
    """Coefficients of f o phi(t, .) truncated to the degree of f."""
    return series_compose(f, _flows(G, [t], f.degree, tol)[0])


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix of T(t) on the monomial basis; column k holds the truncated
    coefficients of phi(t, .)^k. They come from the flow's circle samples
    (series.power_coeffs), whose powers are the samples of phi_t^k: that
    costs O(N^2 log N) where N products of coefficient series cost O(N^3),
    and keeps the ~1e-12 noise floor of the flow series. Column 0 is
    exactly e_0, time 0 gives exactly the identity, and column 1 is the
    flow series bit for bit, so `matrix_summary` and the CLI's `evolve
    --matrix-out` take the flow from the matrix instead of integrating it
    again.

    Truncated matrices compose exactly, M_{t+s} = M_s M_t, only when
    phi(t, 0) = 0, which makes them triangular. Otherwise entry (j, k) of
    M_s M_t is an infinite sum over the inner index, and only the leading
    block of a product formed at a higher inner degree approaches M_{t+s}.
    """

    t: float
    degree: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128, order="C")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def spectral_radius_estimate(self) -> float:
        return float(np.max(np.abs(np.diag(self.entries))))


def operator_matrix(G: HoloExpr, t: float, degree: int,
                    tol: float) -> OperatorMatrix:
    rows = semiflow._flow_series_path(G, [t], degree, tol, powers=True)[0]
    return OperatorMatrix(t, degree, rows.T)


def generator_action(G: HoloExpr, f: SeriesFn) -> SeriesFn:
    """Truncated coefficients of G f' (the generator applied to f)."""
    g = taylor(G, f.degree)
    return g * f.deriv()


def generator_residual(G: HoloExpr, f: SeriesFn, space: CoefSpace, h: float,
                       tol: float) -> float:
    """Norm of (T(h) f - f)/h - G f'; decays like h for smooth data."""
    return generator_residuals(G, f, space, [h], tol)[0]


def generator_residuals(G: HoloExpr, f: SeriesFn, space: CoefSpace,
                        steps: list[float], tol: float) -> list[float]:
    """generator_residual at each step h, from one flow-series run."""
    if not all(1e-6 <= h <= 0.1 for h in steps):
        raise BadParameter("difference step h must lie in [1e-6, 0.1]")
    flows = _flows(G, steps, f.degree, tol)
    action = generator_action(G, f)
    return [space.norm((series_compose(f, flow) - f) * (1.0 / h) - action)
            for h, flow in zip(steps, flows)]


def maximality_residual(G: HoloExpr, f: SeriesFn, space: CoefSpace, t: float,
                        quad_points: int, tol: float) -> float:
    """Norm of (1/t) Simpson(s -> T(s) (G f')) - (1/t)(T(t) f - f).

    quad_points is the (even) number of Simpson intervals; all the flow
    states are collected in a single integration pass through the nodes.
    """
    if quad_points < 2 or quad_points % 2 != 0:
        raise BadParameter("Simpson needs an even number of intervals >= 2")
    if not t > 0:
        raise BadParameter("t must be positive")
    g = generator_action(G, f)
    nodes = [t * k / quad_points for k in range(quad_points + 1)]
    flows = _flows(G, nodes, f.degree, tol)
    width = t / quad_points
    acc = np.zeros(f.degree + 1, dtype=np.complex128)
    for k, flow in enumerate(flows):
        value = series_compose(g, flow).coeffs
        if k == 0 or k == quad_points:
            weight = 1.0
        elif k % 2 == 1:
            weight = 4.0
        else:
            weight = 2.0
        acc += weight * value
    integral = SeriesFn(acc * (width / 3.0))
    end = series_compose(f, flows[-1])
    residual = integral * (1.0 / t) - (end - f) * (1.0 / t)
    return space.norm(residual)


def transport_pde_residual(G: HoloExpr, f: SeriesFn, z: complex, t: float,
                           h_t: float, h_z: float) -> float:
    """|D_t u - G(z) D_z u| with central differences on u(t,z) = (T(t)f)(z).

    The three flow states (t - h_t, t, t + h_t) come from one integration
    pass at a fixed internal tolerance of 1e-11 so the difference
    quotients are dominated by the h^2 discretization error.
    """
    if not (0 < h_t < math.inf and 0 < h_z < math.inf):
        raise BadParameter("h_t and h_z must be positive and finite")
    if abs(z) + h_z >= 1.0:
        raise BadParameter("need |z| + h_z < 1")
    if t < h_t:
        raise BadParameter("need t >= h_t for the central time difference")
    internal_tol = 1e-11
    flows = _flows(G, [t - h_t, t, t + h_t], f.degree, internal_tol)
    u_minus = series_compose(f, flows[0]).eval_at(z)
    u_mid = series_compose(f, flows[1])
    u_plus = series_compose(f, flows[2]).eval_at(z)
    d_t = (u_plus - u_minus) / (2.0 * h_t)
    d_z = (u_mid.eval_at(z + h_z) - u_mid.eval_at(z - h_z)) / (2.0 * h_z)
    return abs(d_t - G.eval(z) * d_z)


def strong_continuity_report(G: HoloExpr, f: SeriesFn, space: CoefSpace,
                             t_list) -> list[tuple[float, float]]:
    """Sampled deviations (t, ||T(t) f - f||) along the given times.

    When G f' fits within the truncation degree, the deviation is
    t ||G f'|| + O(t^2), so it decays linearly as t -> 0.
    """
    ts = list(t_list)
    return [(t, space.norm(series_compose(f, flow) - f))
            for t, flow in zip(ts, _flows(G, ts, f.degree, 1e-10))]


# -- exports ------------------------------------------------------------------


def matrix_to_csv(m: OperatorMatrix) -> str:
    """Row-major CSV after a "# t=... N=..." line; each entry contributes
    a re,im pair of columns, each float "%.17g", as jsonio.csv_text
    writes it."""
    return csv_text("# t=%.17g N=%d\n" % (m.t, m.degree),
                    m.entries.view(np.float64))


def matrix_summary(m: OperatorMatrix) -> dict:
    """Summary dict: t, degree, spectral radius estimate, and the worst
    deviation between the matrix action and direct composition over
    _SUMMARY_SAMPLES seeded random series, composed in one batch. The
    matrix comes from the flow's circle samples and the composition from
    its coefficients, so the two are independent routes to T(t) f."""
    rng = np.random.default_rng(20240601)
    n = m.degree + 1
    # row i is the i-th series the per-series draws of n numbers gave
    stack = (rng.standard_normal((_SUMMARY_SAMPLES, n))
             / (1.0 + np.arange(n))).astype(np.complex128)
    direct = _compose_arrays(stack, m.entries[:, 1])
    via_matrix = stack @ m.entries.T
    return {
        "t": m.t,
        "N": m.degree,
        "spectral_radius_estimate": m.spectral_radius_estimate(),
        "residuals": {"apply_consistency": float(np.max(np.abs(
            direct - via_matrix)))},
    }
