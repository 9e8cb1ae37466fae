"""Evaluable holomorphic expression trees.

Expressions are immutable trees built from constants, the identity
variable z, polynomials (ascending coefficients), quotients, Moebius maps,
binary sums/products, composition, negation and the exponential. They
evaluate recursively, differentiate structurally, and never simplify
themselves. The grammar (grammar.parse_symbol) builds them from text;
callers in code spell out the nodes.

``eval`` takes a complex scalar or a numpy array of points (lanes) and
works elementwise on arrays. A constant subtree evaluates to a scalar,
which broadcasts against the lanes.

Evaluation raises PoleError whenever a denominator magnitude drops below
EPS_POLE (1e-13), on any single lane of an array, and NonFiniteError
where the exponential of a scalar overflows (on arrays it is inf).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NonFiniteError, PoleError

EPS_POLE = 1e-13

# Probe circle used to reject quotients whose denominator is identically
# (numerically) zero: two radii, offset angles, no special points.
_DEN_PROBES = np.array([
    r * cmath.exp(2j * math.pi * (k + 0.317) / 8)
    for r in (0.7, 0.31)
    for k in range(8)
])


def _check_pole(den, z, what: str):
    """PoleError when |den| < EPS_POLE, naming z (on lanes: the first lane
    hit). The scalar test costs nothing extra; an array of lanes makes the
    truth test raise ValueError and takes the elementwise check. A scalar
    whose modulus overflows is no pole."""
    try:
        if abs(den) < EPS_POLE:
            raise PoleError("%s near z=%r" % (what, z))
    except OverflowError:
        pass
    except ValueError:
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


@dataclass(frozen=True)
class Poly(HoloExpr):
    """Polynomial sum(coeffs[k] * z**k), coefficients ascending; z^n with
    n >= 1 evaluates as the left-nested product z * z * ... * z."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise BadParameter("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)
        monomial = cs[-1] == 1 and not any(cs[:-1])
        object.__setattr__(self, "_power", len(cs) - 1 if monomial else 0)

    def eval(self, z):
        if self._power:
            return math.prod((z,) * (self._power - 1), start=z)
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
        if self.det == 0:
            raise BadParameter("Moebius map is degenerate (ad - bc = 0)")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def eval(self, z):
        den = self.c * z + self.d
        _check_pole(den, z, "Moebius pole")
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
        # an overflow is not a zero, and neither is a pole
        with np.errstate(all="ignore"):
            try:
                values = self.den.eval(_DEN_PROBES)
            except PoleError:
                return
        if not np.any(np.abs(values) > EPS_POLE):
            raise BadParameter("denominator vanishes on the whole probe grid")

    def eval(self, z):
        dv = self.den.eval(z)
        _check_pole(dv, z, "denominator ~ 0")
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
        try:
            return cmath.exp(z)
        except OverflowError:
            raise NonFiniteError("exp overflows at z=%r" % (z,)) from None

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
