"""Truncated Taylor series of fixed degree.

A SeriesFn holds coefficients a_0..a_N about 0. Arithmetic truncates to
degree N and never reads beyond it; composition makes no convergence
claim when the inner constant term is nonzero (numerical validity is the
caller's concern). Coefficients of an expression are extracted by
trapezoidal sampling on a circle: with M = max(4N, 64) equispaced samples
at radius r,

    a_k = (1 / (M r^k)) * sum_j f(r e^{2 pi i j / M}) e^{-2 pi i j k / M},

which is spectrally accurate for functions analytic on the closed disc of
radius r. The default sampling radius is 0.5. The same sampling turns
the flow map of a symbol into its coefficients (semiflow.flow_series):
there the samples come from integrating the circle points, not from an
expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegreeMismatch
from .expr import HoloExpr

DEFAULT_SAMPLE_RADIUS = 0.5

# Circle sampling divides roundoff noise by r^k, so degree-k coefficients
# carry an absolute error near machine_eps / r^k. Internal consumers that
# call taylor() for a full degree-N tail pick the radius below, which pins
# the noise floor around 1e-12 for N up to about 87 and asks for
# analyticity only up to |z| = 0.9; above that the 0.9 cap lets the noise
# grow as 1e-16 / 0.9^N. The cap concerns taylor() only: flow maps send
# the disc into itself and are sampled closer to |z| = 1 (see
# semiflow.flow_series).
_EPS_MACHINE = 1e-16
_NOISE_FLOOR = 1e-12


def coeff_extraction_radius(degree: int) -> float:
    """Sampling radius keeping degree-`degree` coefficient noise ~1e-12."""
    if degree < 1:
        return DEFAULT_SAMPLE_RADIUS
    r = (_EPS_MACHINE / _NOISE_FLOOR) ** (1.0 / degree)
    return min(0.9, max(DEFAULT_SAMPLE_RADIUS, r))


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

    def __rmul__(self, other):
        return SeriesFn(self.coeffs * complex(other))

    def scale(self, factor: complex) -> "SeriesFn":
        return SeriesFn(self.coeffs * complex(factor))

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
    """Coefficients of f(g(z)) truncated to the shared degree (Horner)."""
    if f.degree != g.degree:
        raise DegreeMismatch("degrees differ: %d vs %d" % (f.degree, g.degree))
    return SeriesFn(_compose_arrays(f.coeffs, g.coeffs))


def _compose_arrays(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = len(f)
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = f[-1]
    for k in range(n - 2, -1, -1):
        acc = np.convolve(acc, g)[:n]
        acc[0] += f[k]
    return acc


def circle_points(degree: int, r: float) -> np.ndarray:
    """The M = max(4 degree, 64) equispaced sample points on |z| = r."""
    m = max(4 * degree, 64)
    return r * np.exp(2j * math.pi * np.arange(m) / m)


def coeffs_from_samples(samples: np.ndarray, degree: int,
                        r: float) -> SeriesFn:
    """Trapezoidal Taylor coefficients from values at circle_points."""
    hat = np.fft.fft(samples) / len(samples)
    powers = r ** np.arange(degree + 1)
    return SeriesFn(hat[: degree + 1] / powers)


def taylor(f: HoloExpr, degree: int, r: float = DEFAULT_SAMPLE_RADIUS) -> SeriesFn:
    """Truncated Taylor coefficients of an expression about 0."""
    if degree < 0:
        raise BadParameter("degree must be nonnegative")
    if not 0.0 < r <= 1.0:
        raise BadParameter("sampling radius must lie in (0, 1]")
    z = circle_points(degree, r)
    samples = np.broadcast_to(f.eval(z), z.shape)  # a constant is a scalar
    return coeffs_from_samples(samples, degree, r)
