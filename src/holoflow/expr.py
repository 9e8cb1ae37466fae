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

A symbol evaluates in two forms:

  * the tree walk, ``eval``, one method call per node. One-off and
    construction-time evaluations use it: the probes of Ratio, grammar
    constants, the rings of classify, transport_pde_residual.
  * the flat form, compiled(e): one Python function of single-assignment
    statements, built on first use and kept on the node. Every ODE run
    calls it as its right-hand side (semiflow._drive under integrate,
    _final_state, integrate_seeds and _flow_series_path), where one
    symbol is evaluated thousands of times. A build costs 4-10 us with
    the code object cached and 22-76 us without (bench symbols, 2-CPU
    Xeon host), the cost of a few Dormand-Prince steps, which is why
    one-off evaluations keep the tree walk.

The flat form repeats the tree walk's operations in the same order, so
its values, their types and its errors are those of eval bit for bit:
Horner's rule starts from 0j * z, a monomial is the left-nested product
z * z * ... * z, a Ratio evaluates its denominator, then checks it for a
pole at the same z with the same message, then its numerator; Compose
hands the inner value on as the outer's z; exp keeps its scalar and array
forms. Constant subtrees are folded once by their own eval: Const, Sum,
Product, Neg and Ratio of constant operands, and Compose of a constant
inner. A Poly is never folded (0j * z + c has the shape of z), and a fold
that raises is emitted as code, so it raises at call time. Constants are
globals of the function, not part of its text, so the text depends only
on the tree's shape and symbols of one shape share one code object
(_code). A node type this module does not define keeps a call of its own
eval.
"""

from __future__ import annotations

import cmath
import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, HoloflowError, NonFiniteError, PoleError

EPS_POLE = 1e-13

# Probe circle used to reject quotients whose denominator is identically
# (numerically) zero: two radii, offset angles, no special points.
_DEN_PROBES = np.array([
    r * cmath.exp(2j * math.pi * (k + 0.317) / 8)
    for r in (0.7, 0.31)
    for k in range(8)
])


def _check_pole(den, z, what: str):
    """PoleError when |den| < EPS_POLE, naming z (on lanes, an array of one
    dimension or more: the first lane hit). |den| is compared once: a
    Python scalar off the pole returns at once, and an array of lanes
    takes its hits from the comparison. A scalar whose modulus overflows
    is no pole."""
    try:
        small = abs(den) < EPS_POLE
    except OverflowError:
        return
    if small is False:
        return
    if getattr(small, "ndim", 0):
        hit = np.flatnonzero(small)
        if hit.size:
            raise PoleError("%s near z=%r"
                            % (what, complex(z.flat[hit[0]])))
    elif small:
        raise PoleError("%s near z=%r" % (what, z))


def _exp(z):
    """exp(z): elementwise on lanes (an overflow is inf), and NonFiniteError
    where the exponential of a scalar overflows."""
    if isinstance(z, np.ndarray):
        return np.exp(z)
    try:
        return cmath.exp(z)
    except OverflowError:
        raise NonFiniteError("exp overflows at z=%r" % (z,)) from None


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

    def __getstate__(self):
        # the flat form that compiled() keeps is rebuilt, never pickled
        return {k: v for k, v in vars(self).items() if k != "_flat"}


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
        return _exp(z)

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


# -- the flat form -------------------------------------------------------------


class _Flat:
    """The statements of one flat function and the constants they name."""

    def __init__(self):
        self.lines, self.consts = [], []

    def bind(self, value) -> str:
        self.consts.append(value)
        return "_k%d" % (len(self.consts) - 1)

    def let(self, text: str) -> str:
        name = "v%d" % len(self.lines)
        self.lines.append("    %s = %s" % (name, text))
        return name

    def check(self, den: str, z: str, what: str):
        self.lines.append("    _check_pole(%s, %s, %r)" % (den, z, what))


def _known(node) -> bool:
    """Whether every node of the tree has a flat form."""
    return type(node) in _FLAT_TYPES and all(
        _known(k) for k in vars(node).values() if isinstance(k, HoloExpr))


def _emit(node, z: str, out: _Flat):
    """The name that holds node's value at the argument named z, after the
    statements out gained, and whether that value is a folded constant."""
    kind = type(node)
    if kind is Const:
        return out.bind(node.value), True
    if kind is Var:
        return z, False
    if kind is Poly:
        if node._power:
            # the left-nested product, 16 factors a statement: a chain of
            # some thousands overflows the compiler's recursion limit
            acc, n = z, node._power - 1
            while n > 0:
                acc = out.let(" * ".join([acc] + [z] * min(n, 16)))
                n -= 16
            return acc, False
        acc = "0j"
        for c in reversed(node.coeffs):
            acc = out.let("%s * %s + %s" % (acc, z, out.bind(c)))
        return acc, False
    if kind is Mobius:
        a, b, c, d = map(out.bind, (node.a, node.b, node.c, node.d))
        den = out.let("%s * %s + %s" % (c, z, d))
        out.check(den, z, "Moebius pole")
        return out.let("(%s * %s + %s) / %s" % (a, z, b, den)), False
    if kind is Exp:
        return out.let("_exp(%s)" % z), False
    if kind not in _FLAT_TYPES:  # a foreign node keeps its own eval
        return out.let("%s.eval(%s)" % (out.bind(node), z)), False
    mark = len(out.lines), len(out.consts)
    if kind is Compose:
        inner, folded = _emit(node.inner, z, out)
        name = folded and _known(node.outer) and _fold(node, out, mark)
        return ((name, True) if name
                else (_emit(node.outer, inner, out)[0], False))
    if kind is Neg:
        arg, folded = _emit(node.arg, z, out)
        text = "-%s" % arg
    elif kind is Ratio:
        den, den_folded = _emit(node.den, z, out)
        out.check(den, z, "denominator ~ 0")
        num, folded = _emit(node.num, z, out)
        folded = folded and den_folded
        text = "%s / %s" % (num, den)
    else:
        (left, folded), (right, right_folded) = (_emit(node.left, z, out),
                                                 _emit(node.right, z, out))
        folded = folded and right_folded
        text = ("%s + %s" if kind is Sum else "%s * %s") % (left, right)
    name = folded and _fold(node, out, mark)
    return (name, True) if name else (out.let(text), False)


def _fold(node, out: _Flat, mark):
    """Bind node's value in place of the statements and constants out
    gained since mark; None where the evaluation raises, so that node is
    emitted as code and raises at call time."""
    try:
        value = node.eval(0j)
    except (HoloflowError, ArithmeticError):
        return None
    del out.lines[mark[0]:], out.consts[mark[1]:]
    return out.bind(value)


_FLAT_TYPES = frozenset((Const, Var, Poly, Mobius, Exp, Ratio, Sum, Product,
                         Neg, Compose))


@functools.lru_cache(maxsize=256)
def _code(source: str) -> types.CodeType:
    """The code object of a flat function's source; the source depends
    only on the tree's shape, so symbols of one shape share it."""
    scope = {}
    exec(compile(source, "<holoflow.expr flat>", "exec"), scope)
    return scope["flat"].__code__


def _compile(e: HoloExpr):
    out = _Flat()
    name, _ = _emit(e, "z", out)
    source = "def flat(z):\n%s\n    return %s\n" % ("\n".join(out.lines), name)
    scope = {"_k%d" % i: v for i, v in enumerate(out.consts)}
    scope.update(_check_pole=_check_pole, _exp=_exp)
    return types.FunctionType(_code(source), scope)


def compiled(e):
    """e.eval as one flat function, built on the first call and kept on e.

    Same values, the same types and the same errors as e.eval, bit for bit
    (the module docstring). A symbol that is not one of this module's node
    types is returned as its own eval.
    """
    if type(e) not in _FLAT_TYPES:
        return e.eval
    fn = vars(e).get("_flat")
    if fn is None:
        fn = _compile(e)
        object.__setattr__(e, "_flat", fn)
    return fn
