"""Closed-form answers the benchmark checks the program against.

Nothing here imports holoflow: every expected value is derived from the
mathematics of the flow families the workloads use.

Flows (u' = G(u), u(0) = z):

    G = c z              u = z e^{c t}
    G = c (1 - z^2)      u = tanh(c t + atanh z)       (a Moebius map in z)
    G = z^2              u = z / (1 - z t)
    G = c                u = z + c t
    G = beta (z - r1)(z - r2)   Riccati, (u - r1)/(u - r2) = C e^{beta (r1 - r2) t}
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# -- pointwise flows --------------------------------------------------------


def linear_flow(c, z, t):
    return z * cmath.exp(c * t)


def tanh_flow(c, z, t):
    return cmath.tanh(c * t + cmath.atanh(z))


def translation_flow(c, z, t):
    return z + c * t


def linear_exit_time(c, z, radius):
    """First t with |z e^{ct}| = radius, for Re c > 0."""
    return math.log(radius / abs(z)) / c.real


def square_exit_time_disc(z, radius):
    """First t with |z / (1 - z t)| = radius."""
    r2 = radius * radius
    a = abs(z) ** 2 * r2
    b = -2.0 * r2 * z.real
    c = r2 - abs(z) ** 2
    disc = b * b - 4.0 * a * c
    return (-b - math.sqrt(disc)) / (2.0 * a)


def square_exit_time_right(z):
    """The flow of z^2 reaches Re u = 0 (or infinity) at t = Re z / |z|^2."""
    return z.real / abs(z) ** 2


def translation_exit_time_disc(c, z):
    """First t with |z + c t| = 1."""
    p = (c.conjugate() * z).real
    cc = abs(c) ** 2
    return (-p + math.sqrt(p * p + cc * (1.0 - abs(z) ** 2))) / cc


# -- the radius-2 counterexample with F = 1 ------------------------------------


def riccati_flow(b, z, t):
    """Flow of (conj(b) z / 4 - 1)(z - b)."""
    beta = b.conjugate() / 4.0
    r1, r2 = b, 1.0 / beta
    w = (z - r1) / (z - r2) * cmath.exp(beta * (r1 - r2) * t)
    return (r1 - r2 * w) / (1.0 - w)


def riccati_first_exit(b, z, t_max):
    """First t in (0, t_max] with |u(t)| = 1, to about 1e-13, or None."""
    step = 1e-3
    lo = 0.0
    n = int(math.ceil(t_max / step))
    for k in range(1, n + 1):
        hi = k * step
        if abs(riccati_flow(b, z, hi)) >= 1.0:
            break
        lo = hi
    else:
        return None
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if abs(riccati_flow(b, z, mid)) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# -- Taylor coefficients -------------------------------------------------------


def mobius_coeffs(a, b, c, d, degree):
    """Coefficients of (a z + b) / (c z + d) about 0."""
    out = np.empty(degree + 1, dtype=np.complex128)
    out[0] = b / d
    k = np.arange(1, degree + 1)
    out[1:] = (a * d - b * c) / d ** 2 * (-c / d) ** (k - 1)
    return out


def poly_coeffs(p, degree):
    out = np.zeros(degree + 1, dtype=np.complex128)
    n = min(len(p), degree + 1)
    out[:n] = p[:n]
    return out


def linear_flow_coeffs(c, t, degree):
    out = np.zeros(degree + 1, dtype=np.complex128)
    out[1] = cmath.exp(c * t)
    return out


def tanh_flow_coeffs(c, t, degree):
    """tanh(ct + atanh z) = (z + T) / (1 + T z) with T = tanh(ct)."""
    T = math.tanh(c * t)
    return mobius_coeffs(1.0, T, T, 1.0, degree)


def compose(f, g):
    """Coefficients of f(g(z)) truncated to len(f) terms (Horner)."""
    n = len(f)
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = f[-1]
    for k in range(n - 2, -1, -1):
        acc = np.convolve(acc, g)[:n]
        acc[0] += f[k]
    return acc


def compose_with_flow(f, flow):
    """f o phi for flow coefficients; exact scaling when phi = lambda z."""
    if flow[0] == 0 and not np.any(flow[2:]):
        return f * flow[1] ** np.arange(len(f))
    return compose(f, flow)


def operator_matrix(flow):
    """Column k holds the truncated coefficients of phi^k."""
    n = len(flow)
    m = np.zeros((n, n), dtype=np.complex128)
    col = np.zeros(n, dtype=np.complex128)
    col[0] = 1.0
    m[:, 0] = col
    for k in range(1, n):
        col = np.convolve(col, flow)[:n]
        m[:, k] = col
    return m


def deriv(f):
    out = np.zeros_like(f)
    n = len(f) - 1
    out[:n] = f[1:] * np.arange(1, n + 1)
    return out


def times(f, g):
    return np.convolve(f, g)[: len(f)]


def polyval(f, z):
    return complex(np.polynomial.polynomial.polyval(z, f))


# -- coefficient spaces --------------------------------------------------------


def space_weights(space, degree):
    """(p, beta_n) for the space texts the workloads use."""
    n = np.arange(degree + 1, dtype=float)
    if space == "h2":
        return 2.0, np.ones(degree + 1)
    if space == "bergman":
        return 2.0, (n + 1.0) ** -0.5
    if space == "dirichlet":
        return 2.0, (n + 1.0) ** 0.5
    body = dict(item.split("=") for item in space[len("hpbeta:"):].split(","))
    p = float(body["p"])
    rule = body["beta"]
    if rule == "const":
        return p, np.ones(degree + 1)
    kind, value = rule.split(":")
    if kind == "pow":
        return p, (n + 1.0) ** float(value)
    return p, float(value) ** n


def space_norm(space, f):
    p, beta = space_weights(space, len(f) - 1)
    return float(np.sum((np.abs(f) * beta) ** p) ** (1.0 / p))


def condition_e(p, rule, value):
    """Evaluation-condition verdict: for p > 1 it holds iff
    sum beta_n^(-q) diverges (1/p + 1/q = 1); for p = 1 iff inf beta_n = 0."""
    if p > 1.0:
        q = p / (p - 1.0)
        if rule == "const":
            return "Satisfied"
        if rule == "pow":
            return "Satisfied" if value * q <= 1.0 else "Violated"
        return "Satisfied" if value == 1.0 else "Violated"
    if rule == "pow" and value < 0:
        return "Satisfied"
    return "Violated"


# -- error measure -------------------------------------------------------------


def rel_err(x, ref) -> float:
    """max |x - ref| / max(max |ref|, 1), for scalars and arrays."""
    x = np.asarray(x, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    scale = max(float(np.max(np.abs(ref))) if ref.size else 0.0, 1.0)
    return float(np.max(np.abs(x - ref))) / scale
