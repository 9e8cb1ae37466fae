"""Text grammar for symbols.

Infix expressions over the variable z with the imaginary unit written i:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | postfix
    postfix:= atom ('^' INTEGER)?
    atom   := NUMBER ['i'] | 'i' | 'z' | '(' expr ')'
            | 'exp' '(' expr ')'
            | 'mobius' '(' const ',' const ',' const ',' const ')'
            | 'poly' '(' const (',' const)* ')'
            | 'compose' '(' expr ',' expr ')'

NUMBER accepts decimals and exponents ("2", "0.5", "2.5e-3"); a NUMBER
immediately followed by i is an imaginary literal ("1.5i"). Every text
number of the package, here and in domains, spaces and CLI flags, goes
through parse_real and must be finite ("1e999" is a ParseError). Constants
passed to mobius/poly may be any expression not mentioning z. Exponents
are nonnegative integers up to 64: e^0 is the constant 1, z^n the
monomial poly(0, ..., 0, 1), and any other e^n is compose(poly(0, ..., 0,
1), e), so its derivative grows linearly in n. Examples: "-z",
"(1-z)*(1+z)", "1-z^2", "mobius(i,i,-1,1)", "exp(z)".
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from .expr import (
    Compose,
    Const,
    Exp,
    HoloExpr,
    Mobius,
    Neg,
    Poly,
    Product,
    Ratio,
    Sum,
    Var,
)

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_MAX_POWER = 64


def parse_real(text: str, position=None) -> float:
    """The finite float written in text; anything else is a ParseError."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError("bad number %r" % (text,), position) from None
    if not math.isfinite(value):
        raise ParseError("number %r is not finite" % (text,), position)
    return value


class _Token:
    __slots__ = ("kind", "text", "value", "pos")

    def __init__(self, kind, text, value, pos):
        self.kind = kind
        self.text = text
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            end = m.end()
            value = complex(parse_real(m.group(), i))
            # trailing i makes an imaginary literal unless it starts a name
            if end < n and text[end] == "i" and (
                end + 1 >= n or not (text[end + 1].isalnum() or text[end + 1] == "_")
            ):
                tokens.append(_Token("num", m.group() + "i", value * 1j, i))
                i = end + 1
            else:
                tokens.append(_Token("num", m.group(), value, i))
                i = end
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), None, i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, None, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(_Token("end", "", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            if tok.kind == "end":
                raise ParseError("unexpected end of input", tok.pos)
            raise ParseError("expected %r, found %r" % (kind, tok.text), tok.pos)
        return tok

    def parse(self) -> HoloExpr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input %r" % tok.text, tok.pos)
        return e

    def expr(self) -> HoloExpr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.term()
            e = Sum(e, rhs) if op.kind == "+" else Sum(e, Neg(rhs))
        return e

    def term(self) -> HoloExpr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            e = Product(e, rhs) if op.kind == "*" else Ratio(e, rhs)
        return e

    def unary(self) -> HoloExpr:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Neg(self.unary())
        if tok.kind == "+":
            self.next()
            return self.unary()
        return self.postfix()

    def postfix(self) -> HoloExpr:
        e = self.atom()
        if self.peek().kind == "^":
            self.next()
            tok = self.expect("num")
            p = tok.value
            if p.imag != 0 or p.real != int(p.real) or p.real < 0:
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            n = int(p.real)
            if n > _MAX_POWER:
                raise ParseError("exponent larger than %d" % _MAX_POWER, tok.pos)
            if n == 0:
                return Const(1.0 + 0j)
            monomial = Poly((0j,) * n + (1.0 + 0j,))
            return monomial if isinstance(e, Var) else Compose(monomial, e)
        return e

    def atom(self) -> HoloExpr:
        tok = self.next()
        if tok.kind == "num":
            return Const(tok.value)
        if tok.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            name = tok.text
            if name == "z":
                return Var()
            if name == "i":
                return Const(1j)
            if name == "exp":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                if isinstance(inner, Var):
                    return Exp()
                return Compose(Exp(), inner)
            if name == "mobius":
                args = self.const_args(tok.pos)
                if len(args) != 4:
                    raise ParseError("mobius takes 4 constants", tok.pos)
                return Mobius(*args)
            if name == "poly":
                args = self.const_args(tok.pos)
                return Poly(tuple(args))
            if name == "compose":
                self.expect("(")
                outer = self.expr()
                self.expect(",")
                inner = self.expr()
                self.expect(")")
                return Compose(outer, inner)
            raise ParseError("unknown identifier %r" % name, tok.pos)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError("unexpected token %r" % tok.text, tok.pos)

    def const_args(self, callpos: int) -> list[complex]:
        self.expect("(")
        values = []
        while True:
            start = self.peek().pos
            e = self.expr()
            values.append(_constant_value(e, start))
            tok = self.next()
            if tok.kind == ")":
                return values
            if tok.kind != ",":
                raise ParseError("expected ',' or ')', found %r" % tok.text, tok.pos)


def _constant_value(e: HoloExpr, pos: int) -> complex:
    if _mentions_variable(e):
        raise ParseError("argument must not mention z", pos)
    return e.eval(0j)


def _mentions_variable(e: HoloExpr) -> bool:
    # Leaves other than Const mention z (Mobius acts on z, Exp is exp(z)),
    # except a constant Poly; a polynomial of a constant, such as a power,
    # is a constant.
    if isinstance(e, Poly):
        return len(e.coeffs) > 1
    if isinstance(e, Compose) and isinstance(e.outer, Poly):
        return _mentions_variable(e.inner)
    kids = [k for k in vars(e).values() if isinstance(k, HoloExpr)]
    if kids:
        return any(map(_mentions_variable, kids))
    return not isinstance(e, Const)


def parse_symbol(text: str) -> HoloExpr:
    """Parse an expression in the CLI symbol grammar."""
    return _Parser(text).parse()
