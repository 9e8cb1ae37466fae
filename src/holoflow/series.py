"""Truncated Taylor series of fixed degree.

A SeriesFn holds coefficients a_0..a_N about 0. Arithmetic truncates to
degree N and never reads beyond it. Composition gives the truncated
composition [f_N o g_N]_N, the first N + 1 coefficients of the polynomial
f_N(g_N(z)); it makes no convergence claim when the inner constant term is
nonzero (numerical validity is the caller's concern). It runs the
Paterson-Stockmeyer scheme: with n = N + 1 and s about sqrt(n), the
truncated powers g^0 .. g^s are formed once, one matrix product turns the
blocks of s coefficients of f into the polynomials C_j = sum_i f_{js+i} g^i,
and Horner in g^s over the blocks adds them up, so a composition costs
about 2 sqrt(n) truncated products instead of n.

Coefficients of an expression are extracted by trapezoidal sampling on a
circle: with M = max(4N, 64) equispaced samples at radius r,

    a_k = (1 / (M r^k)) * sum_j f(r e^{2 pi i j / M}) e^{-2 pi i j k / M},

which is spectrally accurate for functions analytic on the closed disc of
radius r. taylor picks r itself, min(0.9, noise_floor_radius(N)): the
only place that rule lives. The same sampling turns the flow map of a
symbol into its coefficients (semiflow.flow_series): there the samples
come from integrating the circle points, not from an expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegreeMismatch, NonFiniteError
from .expr import HoloExpr

# Circle sampling divides roundoff noise by r^k, so degree-k coefficients
# carry an absolute error near machine_eps / r^k. taylor samples at
# noise_floor_radius capped at 0.9, which pins the noise floor around
# 1e-12 for N up to about 87 and asks for analyticity only up to
# |z| = 0.9; above that the cap lets the noise grow as 1e-16 / 0.9^N.
# Flow maps send the disc into itself and are sampled at the uncapped
# noise_floor_radius (semiflow.flow_series).
_EPS_MACHINE = 1e-16
_NOISE_FLOOR = 1e-12

# Degree N samples 4N circle points and has an (N + 1)^2 operator matrix.
MAX_DEGREE = 1024


def noise_floor_radius(degree: int) -> float:
    """Radius >= 0.5 keeping degree-`degree` coefficient noise ~1e-12
    (0.5 below degree 1)."""
    r = (_EPS_MACHINE / _NOISE_FLOOR) ** (1.0 / max(degree, 1))
    return max(0.5, r)


@dataclass(frozen=True, eq=False)
class SeriesFn:
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise BadParameter("series coefficients must be a nonempty vector")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zeros(cls, degree: int) -> "SeriesFn":
        return cls(np.zeros(degree + 1, dtype=np.complex128))

    @classmethod
    def basis(cls, k: int, degree: int) -> "SeriesFn":
        if not 0 <= k <= degree:
            raise BadParameter("basis index outside 0..degree")
        c = np.zeros(degree + 1, dtype=np.complex128)
        c[k] = 1.0
        return cls(c)

    @classmethod
    def identity(cls, degree: int) -> "SeriesFn":
        if degree < 1:
            raise BadParameter("identity series needs degree >= 1")
        return cls.basis(1, degree)

    def _check(self, other: "SeriesFn"):
        if self.degree != other.degree:
            raise DegreeMismatch(
                "degrees differ: %d vs %d" % (self.degree, other.degree)
            )

    def __add__(self, other: "SeriesFn") -> "SeriesFn":
        self._check(other)
        return SeriesFn(self.coeffs + other.coeffs)

    def __sub__(self, other: "SeriesFn") -> "SeriesFn":
        self._check(other)
        return SeriesFn(self.coeffs - other.coeffs)

    def __neg__(self) -> "SeriesFn":
        return SeriesFn(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, SeriesFn):
            self._check(other)
            return SeriesFn(
                np.convolve(self.coeffs, other.coeffs)[: self.degree + 1]
            )
        return SeriesFn(self.coeffs * complex(other))

    __rmul__ = __mul__  # only a scalar stands on the left

    def deriv(self) -> "SeriesFn":
        """Coefficient derivative (k+1) a_{k+1}, same degree, top entry 0."""
        out = np.zeros_like(self.coeffs)
        n = self.degree
        out[:n] = self.coeffs[1:] * np.arange(1, n + 1)
        return SeriesFn(out)

    def eval_at(self, z: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(z, self.coeffs))

    def __str__(self):
        return "series(degree=%d)" % self.degree


def series_compose(f: SeriesFn, g: SeriesFn) -> SeriesFn:
    """Coefficients of f(g(z)) truncated to the shared degree.

    Paterson-Stockmeyer evaluation; see the module docstring.
    """
    if f.degree != g.degree:
        raise DegreeMismatch("degrees differ: %d vs %d" % (f.degree, g.degree))
    return SeriesFn(_compose_arrays(f.coeffs, g.coeffs))


def truncated_powers(g: np.ndarray, k: int) -> np.ndarray:
    """Rows g^0 .. g^k, each cut to len(g) coefficients."""
    n = len(g)
    powers = np.zeros((k + 1, n), dtype=np.complex128)
    powers[0, 0] = 1.0
    for j in range(1, k + 1):
        powers[j] = np.convolve(powers[j - 1], g)[:n]
    return powers


def _compose_arrays(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = len(f)
    s = math.isqrt(n - 1) + 1
    m = -(-n // s)
    powers = truncated_powers(g, s)
    padded = np.zeros(m * s, dtype=np.complex128)
    padded[:n] = f
    blocks = padded.reshape(m, s) @ powers[:s]
    acc = blocks[-1]
    for j in range(m - 2, -1, -1):
        acc = np.convolve(acc, powers[s])[:n] + blocks[j]
    return acc


def circle_points(degree: int, r: float) -> np.ndarray:
    """The M = max(4 degree, 64) equispaced sample points on |z| = r."""
    if degree > MAX_DEGREE:
        raise BadParameter("degree must not exceed %d" % MAX_DEGREE)
    m = max(4 * degree, 64)
    return r * np.exp(2j * math.pi * np.arange(m) / m)


def coeffs_from_samples(samples: np.ndarray, degree: int,
                        r: float) -> SeriesFn:
    """Trapezoidal Taylor coefficients from values at circle_points."""
    hat = np.fft.fft(samples) / len(samples)
    powers = r ** np.arange(degree + 1)
    return SeriesFn(hat[: degree + 1] / powers)


def taylor(f: HoloExpr, degree: int) -> SeriesFn:
    """Truncated Taylor coefficients of an expression about 0, sampled
    on |z| = min(0.9, noise_floor_radius(degree))."""
    if degree < 0:
        raise BadParameter("degree must be nonnegative")
    r = min(0.9, noise_floor_radius(degree))
    z = circle_points(degree, r)
    with np.errstate(all="ignore"):  # non-finite samples are refused
        samples = np.broadcast_to(f.eval(z), z.shape)  # a constant is a scalar
    if not np.all(np.isfinite(samples)):
        raise NonFiniteError("expression is not finite on |z| = %r" % r)
    return coeffs_from_samples(samples, degree, r)
