"""Deterministic text: JSON reports and CSV rows of floats.

In JSON, keys are sorted, floats are printed with %.17g (which
round-trips IEEE doubles bit-exactly), complex scalars become [re, im]
pairs. Two runs over equal data produce identical bytes.

csv_text writes the rows of a float64 array (trajectories, operator
matrices) with the bytes of "%.17g" % x for every float. Arrays of
_G17_FLOOR floats or more go through the numpy kernel _g17, in blocks of
at most _G17_BLOCK values. Its guard declines a block that holds a
non-finite value, a nonzero |x| outside [1e-280, 1e290), or an inexact
scaled value within 1e-6 of a half-integer; % writes that block instead.
The JSON reports keep % (_format_float).
"""

from __future__ import annotations

import functools
import json
import math
from typing import Optional

import numpy as np

from .errors import NonFiniteError


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError("non-finite float %r in a report" % (x,))
    return "%.17g" % x


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return "[%s,%s]" % (_format_float(c.real), _format_float(c.imag))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(_encode(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return _encode(list(obj))
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("JSON keys must be strings")
            parts.append("%s:%s" % (json.dumps(key), _encode(obj[key])))
        return "{%s}" % ",".join(parts)
    raise ValueError("cannot serialize %r" % (type(obj),))


def dumps(obj) -> str:
    """One-line deterministic JSON text."""
    return _encode(obj)


def dump_line(obj) -> str:
    return _encode(obj) + "\n"


# -- "%.17g" text of float arrays --------------------------------------------

# _g17 writes nonzero |x| in [_G17_LOW, _G17_HIGH): there the decade k lies
# in [-281, 289], so 10^(16 - k), its Veltkamp halves and its remainder lo
# stay normal and finite
_G17_LOW, _G17_HIGH = 1e-280, 1e290
# the powers 10^q that _g17_tables holds, for |q| <= _POW_BIAS
_POW_BIAS = 300
# an inexact |x| 10^(16 - k) is within 1e-13 of the exact product, so its
# rint is the correctly rounded exact one when it lies farther than this
# from a half-integer
_G17_TIE_GAP = 1e-6
_G17_BLOCK = 2_048  # values a kernel pass, bounding its temporaries
# shorter arrays are written by %: within a benchmark round, caches cold,
# the kernel's fixed cost (about 130 us on a 2-CPU Xeon host) is that of %
# on about this many floats
_G17_FLOOR = 450
_SPLIT = 134_217_729.0  # 2^27 + 1, Veltkamp's splitter for float64
# record shapes: (X + 4) * 17 + last for -4 <= X <= 16, then the exponent
# forms with 2 and 3 exponent digits, 17 each; last is the place of the last
# nonzero digit
_FIXED_SHAPES = 21 * 17
_SHAPES = _FIXED_SHAPES + 2 * 17


@functools.cache
def _digit_words() -> np.ndarray:
    """The "%04d" text of every w < 10,000 as one uint32 word (its four
    ASCII bytes in memory order), read-only: the digit table of the float
    text kernels _g17 and portrait._fixed2."""
    w = np.arange(10_000)[:, None]
    digits = (w // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    words = digits.view(np.uint32).ravel()
    words.setflags(write=False)
    return words


@functools.cache
def _g17_tables():
    """The tables of _g17, built exactly from integers on first use.

    Row q + _POW_BIAS, for |q| <= _POW_BIAS, of the first four: hi, the
    double nearest 10^q (int / int rounds correctly), its Veltkamp halves
    hi1 + hi2 = hi, and lo, the double nearest 10^q - hi. Then up, the
    least double >= 10^q; the "%04d" words of w < 10,000 and the trailing
    zero count of each; the words of a record; the base of the record
    shape of each decade k (row k + _POW_BIAS); and the keep masks of the
    2 * _SHAPES record shapes, the second half with the sign.

    A record is 13 words, 52 bytes: 0 "-", 1-5 "0.000" (the lead of a
    fixed form with X < 0), 7-23 the digits before the point, 24 ".",
    27-43 the digits after it, 44-45 "e" and the exponent's sign, 48-50
    its digits, 51 the separator; bytes 6, 25-26 and 46-47 are never kept.
    """
    hi, lo = [], []
    for q in range(-_POW_BIAS, _POW_BIAS + 1):
        if q >= 0:
            h = float(10 ** q)
            rest = float(10 ** q - int(h))
        else:
            d = 10 ** -q
            h = 1 / d
            num, den = h.as_integer_ratio()
            rest = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(rest)
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    hi1 = c - (c - hi)
    up = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi)
    w = np.arange(10_000)
    digits = _digit_words().view(np.uint8).reshape(-1, 4)
    zeros = np.zeros(10_000, np.intp)
    for power in (1000, 100, 10, 1):
        zeros[w % (10 * power) == 0] += 1
    # word 0, word 1 and word 6 by the lead digit, word 11 by the sign of
    # the exponent, word 12 by its size
    words = np.zeros((1 + 10 + 10 + 2 + 1000, 4), np.uint8)
    words[0] = np.frombuffer(b"-0.0", np.uint8)
    words[1:11] = np.frombuffer(b"00\0\0", np.uint8)
    words[11:21, 0] = ord(".")
    words[1:21, 3] = np.tile(digits[:10, 3], 2)
    words[21:23] = np.frombuffer(b"e+\0\0e-\0\0", np.uint8).reshape(2, 4)
    words[23:, :3] = digits[:1000, 1:]
    k = np.arange(-_POW_BIAS, _POW_BIAS + 1)
    base = np.where((k >= -4) & (k <= 16), (k + 4) * 17 + 16,
                    _FIXED_SHAPES + 16 + 17 * (abs(k) >= 100))
    # the keep masks, one row per shape: X (0 in the exponent forms), the
    # last digit place, the flag of the exponent forms, and xf, the place
    # of the last digit before the point (-1 for X < 0)
    s = np.arange(_SHAPES)
    x, last = s // 17 - 4, s % 17
    power = s >= _FIXED_SHAPES
    x[power] = 0
    xf = np.where(x < 0, -1, x)[:, None]
    j = np.arange(17)
    keep = np.zeros((_SHAPES, 52), bool)
    keep[:, 1] = keep[:, 2] = x < 0
    keep[:, 3:6] = np.arange(3) < -x[:, None] - 1
    keep[:, 7:24] = j <= xf
    keep[:, 24] = (x >= 0) & (last > x)
    keep[:, 27:44] = (j > xf) & (j <= last[:, None])
    keep[:, 44] = keep[:, 45] = keep[:, 49] = keep[:, 50] = power
    keep[:, 48] = s >= _FIXED_SHAPES + 17
    keep[:, 51] = True
    keep = np.concatenate([keep, keep])
    keep[_SHAPES:, 0] = True
    tables = (hi, hi1, hi - hi1, lo, up, _digit_words(),
              zeros, words.view(np.uint32).ravel(), base,
              keep.view(np.uint32))
    for table in tables:  # every caller shares them
        table.setflags(write=False)
    return tables


def _g17(values: np.ndarray, seps: np.ndarray) -> Optional[bytes]:
    """The bytes of "%.17g" % x, each followed by its separator byte, over
    the float64 x of values and the uint8 seps; None unless every x is
    zero or finite with |x| in [_G17_LOW, _G17_HIGH), no inexact scaled
    value lies within _G17_TIE_GAP of a half-integer, and (a check that
    never fails) every n lies in [10^16, 10^17].

    With the decade k of |x| (np.log10, corrected exactly against 10^k =
    hi + lo), |x| 10^(16 - k) lies in [10^16, 10^17); Dekker's product of
    the Veltkamp halves gives it as s + e exactly where lo is 0 (10^q for
    0 <= q <= 22), plus |x| lo otherwise. s is an even integer (s >= 2^53),
    so s + rint(e + |x| lo) is the 17-digit integer n, with exact ties
    going half to even as in dtoa; n = 10^17 carries into decade k + 1.
    n is written as a digit and four "%04d" words, twice, and the keep
    mask of the record shape (fixed notation for -4 <= X < 17 and e+-XX
    otherwise, trailing zeros and a bare point dropped, "-" by signbit)
    leaves the %g text. The record's words are laid out word by word, one
    row per word, and transposed once.
    """
    a = np.abs(values)
    if not a.max(initial=0.0) < _G17_HIGH:  # NaN fails too
        return None
    nonzero = a.all()
    if not nonzero:
        zero = a == 0.0
        a[zero] = 1.0  # written as 0 below
    if not a.min(initial=_G17_HIGH) >= _G17_LOW:
        return None
    hi, hi1, hi2, lo, up, digits, zeros, words, base, keeps = _g17_tables()
    # log10 is within an ulp: the decade is k - 1, k or k + 1
    i = np.floor(np.log10(a)).astype(np.intp)
    i += _POW_BIAS
    i += a >= up.take(i + 1)
    i -= a < up.take(i)
    # i is now k + _POW_BIAS, and j the row of 10^(16 - k)
    j = 2 * _POW_BIAS + 16 - i
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    h1, h2, rest = hi1.take(j), hi2.take(j), lo.take(j)
    s = a * hi.take(j)
    e = ((a1 * h1 - s) + a1 * h2 + a2 * h1) + a2 * h2
    e += a * rest
    r = np.rint(e)
    inexact = rest != 0.0
    if inexact.any() and (np.abs(np.abs(e[inexact] - r[inexact]) - 0.5)
                          < _G17_TIE_GAP).any():
        return None
    n = s.astype(np.int64)
    n += r.astype(np.int64)
    if not (n.min() >= 10 ** 16 and n.max() <= 10 ** 17):
        return None
    carry = n == 10 ** 17
    if carry.any():
        i += carry
        n[carry] = 10 ** 16
    if not nonzero:
        n[zero] = 0
        i[zero] = _POW_BIAS
    w = np.empty((4, len(n)), np.int64)
    for row in (3, 2, 1, 0):
        q = n // 10_000
        np.subtract(n, q * 10_000, out=w[row])
        n = q
    lead = n  # the first digit
    tz = zeros.take(w[3])
    for row in (2, 1, 0):
        more = tz == 4 * (3 - row)  # every word after this one is 0
        if not more.any():
            break
        tz[more] += zeros.take(w[row][more])
    k = i - _POW_BIAS
    shape = base.take(i) - tz
    shape += _SHAPES * np.signbit(values)
    text = np.empty((13, len(values)), np.uint32)
    text[0] = words[0]
    text[1] = words.take(1 + lead)
    text[2:6] = text[7:11] = digits.take(w)
    text[6] = words.take(11 + lead)
    text[11] = words.take(21 + (k < 0))
    text[12] = words.take(23 + np.abs(k))
    text = text.T.copy().view(np.uint8)
    text[:, 51] = seps
    # one flat mask: a 2-D one would first list the indices of its bytes
    return text.ravel()[keeps.take(shape, 0).view(bool).ravel()].tobytes()


def csv_text(head: str, rows: np.ndarray, tail: str = "") -> str:
    """head, the rows of a 2-D float64 array as CSV, and tail: each float
    as "%.17g", "," between the columns and a newline after each row.

    Arrays of _G17_FLOOR floats or more go through _g17 in near-equal
    blocks of at most _G17_BLOCK values; a block that _g17 declines, and a
    shorter array, is written by %. Either way the bytes are those of % on
    every float. The text is joined once, with head and tail, so that a
    large export holds it twice at most.
    """
    values = rows.ravel()
    if len(values) < _G17_FLOOR:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return head + line * len(rows) % tuple(values.tolist()) + tail
    seps = np.full(rows.shape, ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    blocks = -(-len(values) // _G17_BLOCK)
    out = bytearray(head.encode("ascii"))
    for x, sep in zip(np.array_split(values, blocks),
                      np.array_split(seps, blocks)):
        text = _g17(x, sep)
        if text is None:  # one % over "%.17g" and the block's separators
            text = (("%.17g" + "%.17g".join(sep.tobytes().decode("ascii")))
                    % tuple(x.tolist())).encode("ascii")
        out += text
    out += tail.encode("ascii")
    return out.decode("ascii")
