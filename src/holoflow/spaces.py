"""Weighted coefficient spaces and the evaluation condition.

A space is l^p against a positive weight sequence beta: a function with
Taylor coefficients (a_n) belongs when sum |a_n|^p beta_n^p is finite, and
the truncated norm of a degree-N series is the same sum cut at N. Weight
rules must satisfy liminf beta_n^(1/n) >= 1 so that members are analytic
on the whole unit disc.

Conventions for the named spaces (all p = 2):

    H2        beta_n = 1
    Bergman   beta_n = (n+1)^(-1/2)
    Dirichlet beta_n = (n+1)^(+1/2)   (so ||f||^2 = sum (n+1) |a_n|^2; the
                                       derivative then lands in Bergman)

The evaluation condition asks that the space detect boundary approach: no
sequence z_n tending to the boundary (or to infinity) may have f(z_n)
convergent for every member f. For these coefficient spaces it reduces to
a divergence test on the weights, decided symbolically per rule kind:
for p > 1 with 1/p + 1/q = 1 the condition holds iff sum beta_n^(-q)
diverges; for p = 1 iff inf beta_n = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, NonFiniteError, ParseError
from .grammar import parse_real
from .series import SeriesFn

CONSTANT = "constant"
POWER = "power"
GEOMETRIC = "geometric"

SATISFIED = "Satisfied"
VIOLATED = "Violated"


@dataclass(frozen=True)
class BetaRule:
    """A rule producing the weight sequence beta_n > 0."""

    kind: str
    exponent: float = 0.0
    ratio: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, POWER, GEOMETRIC):
            raise BadParameter("unknown beta rule kind %r" % (self.kind,))
        if self.kind == GEOMETRIC:
            if not self.ratio > 0:
                raise BadParameter("geometric ratio must be positive")
            if self.ratio < 1.0:
                raise BadParameter(
                    "geometric ratio below 1 violates liminf beta_n^(1/n) >= 1"
                )

    @classmethod
    def constant(cls) -> "BetaRule":
        return cls(CONSTANT)

    @classmethod
    def power(cls, exponent: float) -> "BetaRule":
        return cls(POWER, exponent=float(exponent))

    @classmethod
    def geometric(cls, ratio: float) -> "BetaRule":
        return cls(GEOMETRIC, ratio=float(ratio))

    def value(self, n: int) -> float:
        if self.kind == CONSTANT:
            return 1.0
        try:
            if self.kind == POWER:
                return (n + 1.0) ** self.exponent
            return self.ratio ** n
        except OverflowError:
            raise NonFiniteError("weight beta_%d of %s overflows"
                                 % (n, self.describe())) from None

    def sequence(self, degree: int) -> np.ndarray:
        return np.array([self.value(n) for n in range(degree + 1)])

    def describe(self) -> str:
        if self.kind == CONSTANT:
            return "beta_n = 1"
        if self.kind == POWER:
            return "beta_n = (n+1)^%g" % self.exponent
        return "beta_n = %g^n" % self.ratio


@dataclass(frozen=True)
class ConditionEVerdict:
    status: str
    evidence: str


@dataclass(frozen=True)
class CoefSpace:
    p: float
    beta: BetaRule
    name: Optional[str] = None

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 <= p < math.inf):
            raise BadParameter("p must lie in [1, infinity)")
        object.__setattr__(self, "p", p)

    @classmethod
    def h2(cls) -> "CoefSpace":
        return cls(2.0, BetaRule.constant(), "H2")

    @classmethod
    def bergman(cls) -> "CoefSpace":
        return cls(2.0, BetaRule.power(-0.5), "Bergman")

    @classmethod
    def dirichlet(cls) -> "CoefSpace":
        return cls(2.0, BetaRule.power(0.5), "Dirichlet")

    def norm(self, f: SeriesFn) -> float:
        """Truncated norm (sum_{n<=N} |a_n|^p beta_n^p)^(1/p);
        NonFiniteError when it is not a finite float."""
        beta = self.beta.sequence(f.degree)
        with np.errstate(all="ignore"):  # a non-finite norm is refused
            terms = (np.abs(f.coeffs) * beta) ** self.p
            norm = float(np.sum(terms) ** (1.0 / self.p))
        if not math.isfinite(norm):
            raise NonFiniteError("norm %r in %s" % (norm, self.to_text()))
        return norm

    def eval_norm(self, z: complex, degree: int) -> float:
        """Truncated norm of the point-evaluation functional (p = 2 only).

        This is the reproducing-kernel norm (sum_{n<=N} |z|^{2n}
        beta_n^{-2})^(1/2); it increases with the truncation degree.
        """
        if self.p != 2.0:
            raise BadParameter("evaluation norms are only defined for p = 2")
        if abs(z) >= 1.0:
            raise BadParameter("evaluation point must lie in the open disc")
        beta = self.beta.sequence(degree)
        powers = np.abs(z) ** (2 * np.arange(degree + 1))
        return float(math.sqrt(np.sum(powers / beta**2)))

    def condition_e(self) -> ConditionEVerdict:
        """Symbolic evaluation-condition verdict for this space."""
        if self.p > 1.0:
            q = self.p / (self.p - 1.0)
            return _condition_sum_divergence(self.beta, q)
        return _condition_inf_zero(self.beta)

    def to_text(self) -> str:
        if self.name in ("H2", "Bergman", "Dirichlet"):
            return self.name.lower()
        return "hpbeta:p=%g,beta=%s" % (self.p, self.beta.describe())


def _condition_sum_divergence(rule: BetaRule, q: float) -> ConditionEVerdict:
    if rule.kind == CONSTANT:
        return ConditionEVerdict(
            SATISFIED, "sum of beta_n^(-q) = sum of 1 diverges")
    if rule.kind == POWER:
        sq = rule.exponent * q
        if sq <= 1.0:
            return ConditionEVerdict(
                SATISFIED,
                "sum (n+1)^(-%g) diverges (exponent %g <= 1)" % (sq, sq))
        return ConditionEVerdict(
            VIOLATED,
            "sum (n+1)^(-%g) converges (exponent %g > 1)" % (sq, sq))
    if rule.ratio == 1.0:
        return ConditionEVerdict(SATISFIED, "ratio 1 gives sum of 1")
    return ConditionEVerdict(
        VIOLATED, "sum %g^(-qn) is a convergent geometric series" % rule.ratio)


def _condition_inf_zero(rule: BetaRule) -> ConditionEVerdict:
    if rule.kind == CONSTANT:
        return ConditionEVerdict(VIOLATED, "inf beta_n = 1 > 0")
    if rule.kind == POWER:
        if rule.exponent < 0:
            return ConditionEVerdict(
                SATISFIED, "(n+1)^%g tends to 0" % rule.exponent)
        return ConditionEVerdict(
            VIOLATED, "inf (n+1)^%g = 1 > 0" % rule.exponent)
    return ConditionEVerdict(
        VIOLATED, "inf %g^n = 1 > 0 for ratio >= 1" % rule.ratio)


def parse_space(text: str) -> CoefSpace:
    """Parse "h2", "bergman", "dirichlet", or
    "hpbeta:p=<p>,beta=<const|pow:s|geom:r>"."""
    t = text.strip().lower()
    if t == "h2":
        return CoefSpace.h2()
    if t == "bergman":
        return CoefSpace.bergman()
    if t == "dirichlet":
        return CoefSpace.dirichlet()
    if not t.startswith("hpbeta:"):
        raise ParseError("unknown space %r" % (text,))
    p_value: Optional[float] = None
    rule: Optional[BetaRule] = None
    try:
        for item in t[len("hpbeta:"):].split(","):
            if "=" not in item:
                raise ParseError("expected key=value in space %r" % (text,))
            key, _, value = item.partition("=")
            if key == "p":
                p_value = parse_real(value)
            elif key == "beta":
                rule = _parse_beta(value)
            else:
                raise ParseError("unknown space key %r" % (key,))
        if p_value is None or rule is None:
            raise ParseError("space %r needs both p= and beta=" % (text,))
        return CoefSpace(p_value, rule)
    except BadParameter as exc:
        raise ParseError(str(exc)) from None


def _parse_beta(value: str) -> BetaRule:
    if value == "const":
        return BetaRule.constant()
    kind, _, param = value.partition(":")
    if not param:
        raise ParseError("beta rule %r needs a parameter" % (value,))
    x = parse_real(param)
    if kind == "pow":
        return BetaRule.power(x)
    if kind == "geom":
        return BetaRule.geometric(x)
    raise ParseError("unknown beta rule %r" % (kind,))
