"""Evaluable holomorphic expression trees.

Expressions are immutable trees built from constants, the identity
variable z, polynomials (ascending coefficients), quotients, Moebius maps,
binary sums/products, composition, negation and the exponential. They
evaluate recursively, differentiate structurally, and never simplify
themselves. Arithmetic operators are overloaded so callers can write
``1 - Z**2`` instead of spelling out nodes.

``eval`` takes a complex scalar or a numpy array of points (lanes) and
works elementwise on arrays. A constant subtree evaluates to a scalar,
which broadcasts against the lanes.

Evaluation raises PoleError whenever a denominator magnitude drops below
EPS_POLE (1e-13), on any single lane of an array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, PoleError

EPS_POLE = 1e-13

# Probe circle used to reject quotients whose denominator is identically
# (numerically) zero: two radii, offset angles, no special points.
_DEN_PROBES = tuple(
    r * cmath.exp(2j * math.pi * (k + 0.317) / 8)
    for r in (0.7, 0.31)
    for k in range(8)
)


def _raise_on_lane_pole(den: np.ndarray, z: np.ndarray, what: str):
    """Array form of the pole check: PoleError names the first lane hit."""
    hit = np.flatnonzero(np.abs(den) < EPS_POLE)
    if hit.size:
        raise PoleError("%s near z=%r"
                        % (what, complex(z.flat[hit[0]]))) from None


def _fmt_complex(v: complex) -> str:
    if v.imag == 0.0:
        return repr(v.real)
    if v.real == 0.0:
        return repr(v.imag) + "i"
    sign = "+" if v.imag >= 0 else "-"
    return "(%s%s%si)" % (repr(v.real), sign, repr(abs(v.imag)))


class HoloExpr:
    """Base node type; subclasses implement eval and derivative."""

    def eval(self, z: complex) -> complex:
        raise NotImplementedError

    def derivative(self) -> "HoloExpr":
        raise NotImplementedError

    def __add__(self, other):
        return Sum(self, as_expr(other))

    def __radd__(self, other):
        return Sum(as_expr(other), self)

    def __sub__(self, other):
        return Sum(self, Neg(as_expr(other)))

    def __rsub__(self, other):
        return Sum(as_expr(other), Neg(self))

    def __mul__(self, other):
        return Product(self, as_expr(other))

    def __rmul__(self, other):
        return Product(as_expr(other), self)

    def __truediv__(self, other):
        return Ratio(self, as_expr(other))

    def __rtruediv__(self, other):
        return Ratio(as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise BadParameter("expression powers take a nonnegative integer")
        if n == 0:
            return Const(1.0 + 0j)
        out: HoloExpr = self
        for _ in range(n - 1):
            out = Product(out, self)
        return out


def as_expr(x) -> HoloExpr:
    if isinstance(x, HoloExpr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(complex(x))
    raise BadParameter("cannot interpret %r as an expression" % (x,))


@dataclass(frozen=True)
class Const(HoloExpr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def eval(self, z):
        return self.value

    def derivative(self):
        return Const(0j)

    def __str__(self):
        return _fmt_complex(self.value)


@dataclass(frozen=True)
class Var(HoloExpr):
    def eval(self, z):
        return z

    def derivative(self):
        return Const(1.0 + 0j)

    def __str__(self):
        return "z"


Z = Var()


@dataclass(frozen=True)
class Poly(HoloExpr):
    """Polynomial sum(coeffs[k] * z**k), coefficients ascending."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise BadParameter("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)

    def eval(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self):
        if len(self.coeffs) == 1:
            return Const(0j)
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __str__(self):
        return "poly(%s)" % ",".join(_fmt_complex(c) for c in self.coeffs)


@dataclass(frozen=True)
class Mobius(HoloExpr):
    """(a z + b) / (c z + d) with a d - b c != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.a * self.d - self.b * self.c == 0:
            raise BadParameter("Moebius map is degenerate (ad - bc = 0)")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def eval(self, z):
        den = self.c * z + self.d
        # The scalar test costs nothing extra; an array of lanes makes the
        # truth test raise ValueError and takes the elementwise check.
        try:
            if abs(den) < EPS_POLE:
                raise PoleError("Moebius pole near z=%r" % (z,))
        except ValueError:
            _raise_on_lane_pole(den, z, "Moebius pole")
        return (self.a * z + self.b) / den

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def derivative(self):
        lin = Poly((self.d, self.c))
        return Ratio(Const(self.det), Product(lin, lin))

    def __str__(self):
        return "mobius(%s)" % ",".join(
            _fmt_complex(v) for v in (self.a, self.b, self.c, self.d)
        )


@dataclass(frozen=True)
class Ratio(HoloExpr):
    num: HoloExpr
    den: HoloExpr

    def __post_init__(self):
        seen_nonzero = False
        for p in _DEN_PROBES:
            try:
                if abs(self.den.eval(p)) > EPS_POLE:
                    seen_nonzero = True
                    break
            except PoleError:
                seen_nonzero = True  # a pole of the denominator is not zero
                break
        if not seen_nonzero:
            raise BadParameter("denominator vanishes on the whole probe grid")

    def eval(self, z):
        dv = self.den.eval(z)
        try:  # see Mobius.eval
            if abs(dv) < EPS_POLE:
                raise PoleError("denominator ~ 0 near z=%r" % (z,))
        except ValueError:
            _raise_on_lane_pole(dv, z, "denominator ~ 0")
        return self.num.eval(z) / dv

    def derivative(self):
        n, d = self.num, self.den
        top = Sum(Product(n.derivative(), d), Neg(Product(n, d.derivative())))
        return Ratio(top, Product(d, d))

    def __str__(self):
        return "(%s / %s)" % (self.num, self.den)


@dataclass(frozen=True)
class Sum(HoloExpr):
    left: HoloExpr
    right: HoloExpr

    def eval(self, z):
        return self.left.eval(z) + self.right.eval(z)

    def derivative(self):
        return Sum(self.left.derivative(), self.right.derivative())

    def __str__(self):
        return "(%s + %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Product(HoloExpr):
    left: HoloExpr
    right: HoloExpr

    def eval(self, z):
        return self.left.eval(z) * self.right.eval(z)

    def derivative(self):
        return Sum(
            Product(self.left.derivative(), self.right),
            Product(self.left, self.right.derivative()),
        )

    def __str__(self):
        return "(%s * %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Neg(HoloExpr):
    arg: HoloExpr

    def eval(self, z):
        return -self.arg.eval(z)

    def derivative(self):
        return Neg(self.arg.derivative())

    def __str__(self):
        return "(-%s)" % (self.arg,)


@dataclass(frozen=True)
class Exp(HoloExpr):
    """The exponential of the variable, exp(z)."""

    def eval(self, z):
        if isinstance(z, np.ndarray):
            return np.exp(z)
        return cmath.exp(z)

    def derivative(self):
        return Exp()

    def __str__(self):
        return "exp(z)"


@dataclass(frozen=True)
class Compose(HoloExpr):
    """outer(inner(z))."""

    outer: HoloExpr
    inner: HoloExpr

    def eval(self, z):
        return self.outer.eval(self.inner.eval(z))

    def derivative(self):
        return Product(Compose(self.outer.derivative(), self.inner),
                       self.inner.derivative())

    def __str__(self):
        if isinstance(self.outer, Exp):
            return "exp(%s)" % (self.inner,)
        return "compose(%s, %s)" % (self.outer, self.inner)
