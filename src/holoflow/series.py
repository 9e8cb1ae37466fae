"""Truncated Taylor series of fixed degree.

A SeriesFn holds coefficients a_0..a_N about 0. Arithmetic truncates to
degree N and never reads beyond it. Composition gives the truncated
composition [f_N o g_N]_N, the first N + 1 coefficients of the polynomial
f_N(g_N(z)); it makes no convergence claim when the inner constant term is
nonzero (numerical validity is the caller's concern). It runs the
Paterson-Stockmeyer scheme (SIAM J. Comput. 2, 1973): with n = N + 1 and s
about sqrt(n), the powers g^0 .. g^s are formed once, the blocks of s
coefficients of f give C_j = sum_i f_{js+i} g^i, and Horner in g^s over
the blocks adds them up: about 2 sqrt(n) products instead of n.
series_compose takes the products as truncated convolutions, every C_j by
one matrix product, and composes a stack of outer series in one pass, each
Horner step a product with the Toeplitz matrix of g^s. compose_samples
takes them elementwise on the values of g at circle_points, as the lanes
of semiflow._flow_series_path hold the flow map, and reads the
coefficients back by one FFT: as g - g_N = O(z^(N+1)), [f_N o g]_N =
[f_N o g_N]_N in exact arithmetic, up to aliasing of order r^M. It
composes every time of a semigroup check in one call, with no FFT of the
flow alone, its temporaries bounded by _SAMPLE_BLOCK.

Coefficients of an expression are extracted by trapezoidal sampling on a
circle: with M = max(4N, 64) equispaced samples at radius r,

    a_k = (1 / (M r^k)) * sum_j f(r e^{2 pi i j / M}) e^{-2 pi i j k / M},

which is spectrally accurate for functions analytic on the closed disc of
radius r. taylor picks r itself, min(0.9, noise_floor_radius(N)): the
only place that rule lives. The same sampling turns the flow map of a
symbol into its coefficients (semiflow.flow_series): there the samples
come from integrating the circle points, not from an expression. The
powers u^0 .. u^k of the samples u give the coefficients of the powers of
the sampled function the same way (power_coeffs): the samples of a power
are the powers of the samples, so the operator matrix of the flow needs no
products of coefficient series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def series_compose(f: SeriesFn, g: SeriesFn) -> SeriesFn:
    """[f o g]_N for series of one degree N (see the module docstring)."""
    if f.degree != g.degree:
        raise DegreeMismatch("degrees differ: %d vs %d" % (f.degree, g.degree))
    return SeriesFn(_compose_arrays(f.coeffs, g.coeffs))


def _compose_arrays(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[f o g]_N for one outer series f (n,) or a stack of them (k, n)."""
    n = f.shape[-1]
    s = math.isqrt(n - 1) + 1
    m = -(-n // s)
    powers = np.zeros((s + 1, n), dtype=np.complex128)  # g^0 .. g^s, cut
    powers[0, 0] = 1.0
    for j in range(1, s + 1):
        powers[j] = np.convolve(powers[j - 1], g)[:n]
    padded = np.zeros(f.shape[:-1] + (m * s,), dtype=np.complex128)
    padded[..., :n] = f
    blocks = padded.reshape(f.shape[:-1] + (m, s)) @ powers[:s]
    # (a @ top)_l = sum_{i <= l} a_i (g^s)_{l - i}: row i of top is g^s
    # shifted right by i places
    shifted = np.concatenate([np.zeros(n - 1, dtype=np.complex128),
                              powers[s]])
    top = np.ascontiguousarray(sliding_window_view(shifted, n)[::-1])
    acc = blocks[..., -1, :]
    for j in range(m - 2, -1, -1):
        acc = acc @ top + blocks[..., j, :]
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


# powers per FFT pass of power_coeffs: its one work array holds
# _POWER_BLOCK + 1 rows of M samples, and the FFT runs in place in it
_POWER_BLOCK = 16


def power_coeffs(samples: np.ndarray, degree: int, r: float) -> np.ndarray:
    """Rows 0 .. degree: the degree-`degree` coefficients of the powers u^j
    of the function whose values at circle_points(degree, r) are samples.

    Row 0 is exactly e_0, and row 1 is coeffs_from_samples(samples, degree,
    r) bit for bit. Each pass forms _POWER_BLOCK powers, each as the
    previous one times the samples, carrying the last power into the next
    pass, and takes their coefficients by one FFT along the sample axis, so
    every block size gives the same bits. (np.multiply.accumulate down the
    block would round otherwise than row by row products.)
    """
    m, block = len(samples), _POWER_BLOCK
    out = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    out[0, 0] = 1.0
    scale = r ** np.arange(degree + 1)
    run = np.empty((block + 1, m), dtype=np.complex128)
    run[0] = 1.0  # the power carried from the previous pass
    for lo in range(1, degree + 1, block):
        b = min(block, degree + 1 - lo)
        for i in range(1, b + 1):
            np.multiply(run[i - 1], samples, out=run[i])
        run[0] = run[b]
        hat = np.fft.fft(run[1:b + 1], axis=1, out=run[1:b + 1])
        rows = out[lo:lo + b]
        np.divide(hat[:, :degree + 1], m, out=rows)
        rows /= scale
    return out


# complex values in the temporaries of compose_samples, which composes as
# many rows at a time as fit, and at least one
_SAMPLE_BLOCK = 4096


def compose_samples(f, states: list, r: float) -> np.ndarray:
    """Rows [f o phi_i]_N, N = len(f) - 1, of inner functions phi_i given
    by their values states[i] at circle_points(N, r), by Paterson-Stockmeyer
    on the samples (see the module docstring); f is one outer series, or a
    list of one per row. A row whose state is None (the identity) is its f
    bit for bit, and every row has the bits of a call on it alone."""
    seeds = f if isinstance(f, list) else [f] * len(states)
    n = len(seeds[0]) if seeds else len(f)
    out = np.array(seeds, dtype=np.complex128).reshape(len(states), n)
    live = [i for i, u in enumerate(states) if u is not None]
    if not live:
        return out
    width = len(states[live[0]])
    s = math.isqrt(n - 1) + 1
    m = -(-n // s)
    scale = width * r ** np.arange(n)
    rows = min(len(live), max(1, _SAMPLE_BLOCK // ((s + 3) * width)))
    blocks = np.zeros((rows, m, s), dtype=np.complex128)
    powers = np.ones((rows, s + 1, width), dtype=np.complex128)
    acc, term = np.empty((2, rows, 1, width), dtype=np.complex128)
    for lo in range(0, len(live), rows):
        ids = live[lo:lo + rows]
        c, p, a, t = (x[:len(ids)] for x in (blocks, powers, acc, term))
        for j, i in enumerate(ids):
            c[j].flat[:n] = seeds[i]
            p[j, 1] = states[i]
        for e in range(2, s + 1):
            np.multiply(p[:, e - 1], p[:, 1], out=p[:, e])
        # Horner in phi^s over C_j(phi) = sum_i f_{js+i} phi^i
        np.matmul(c[:, m - 1:], p[:, :s], out=a)
        for j in range(m - 2, -1, -1):
            np.matmul(c[:, j:j + 1], p[:, :s], out=t)
            a *= p[:, s:]
            a += t
        out[ids] = np.fft.fft(a[:, 0], out=a[:, 0])[:, :n] / scale
    return out


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
