"""The text of numbers: JSON reports, and the float kernels against %.

jsonio.dumps must round-trip every finite float bit for bit, write complex
and numpy values as plain JSON, sort keys, leave no spaces, and refuse
NaN and infinities with NonFiniteError.

jsonio._g17 must give the bytes of "%.17g" % x and the separator for every
float of a block, or decline the block (None) when a float is guarded:
non-finite, nonzero outside [_G17_LOW, _G17_HIGH), or scaled within
_G17_TIE_GAP of a half-integer. The guard is recomputed here exactly with
Fraction. jsonio._percent, the one fallback of both kernels, must give
the same bytes by %.
"""

import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoflow import jsonio
from holoflow.errors import NonFiniteError
from holoflow.jsonio import (_G17_BLOCK, _G17_FLOOR, _G17_HIGH, _G17_LOW,
                             _G17_TIE_GAP, _POW_BIAS, _g17, _g17_tables,
                             _percent, csv_text, dumps)

SEPS = b",;\n\t |"


def reference(values, seps) -> bytes:
    return b"".join(b"%s%c" % ((b"%.17g" % x), c)
                    for x, c in zip(values, seps))


def decade(x: Fraction) -> int:
    """k with 10^k <= x < 10^(k+1), exactly."""
    k = math.floor(math.log10(x))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def guarded(x: float) -> bool:
    if not math.isfinite(x):
        return True
    if x == 0.0:
        return False
    if not _G17_LOW <= abs(x) < _G17_HIGH:
        return True
    exact = Fraction(abs(x))
    scaled = exact * Fraction(10) ** (16 - decade(exact))
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < _G17_TIE_GAP


def kernel(values, seps=None):
    values = np.array(values, dtype=np.float64)
    if seps is None:
        seps = b"," * len(values)
    return _g17(values, np.frombuffer(seps, np.uint8))


def assert_kernel(values, seps=None):
    """The kernel's bytes are those of %, or it declines a guarded block;
    returns whether it wrote."""
    if seps is None:
        seps = b"," * len(values)
    out = kernel(values, seps)
    if out is None:
        assert any(guarded(x) for x in values), values
        return False
    assert out == reference(values, seps)
    return True


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.sampled_from(SEPS)),
                min_size=1, max_size=12))
def test_kernel_matches_percent_on_any_floats(items):
    values = [x for x, _ in items]
    seps = bytes(c for _, c in items)
    assert_kernel(values, seps)
    for x, c in items:
        assert assert_kernel([x], bytes([c])) or guarded(x)


@pytest.mark.parametrize("x", [
    0.0, -0.0, 1e-4, -1e-4, 9.9999999999999995e-05, 1e16, 1e17, -1e17,
    99999999999999999.0, 1e-5, 0.1, 1 / 3, -2.5, 123456789.0,
    _G17_LOW, np.nextafter(_G17_HIGH, 0.0), -np.nextafter(_G17_HIGH, 0.0),
])
def test_special_values_are_written(x):
    assert not guarded(x)
    assert kernel([x]) == b"%s," % (b"%.17g" % x)


@pytest.mark.parametrize("x", [
    5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(_G17_LOW, 0.0),
    _G17_HIGH, -1e300, math.inf, -math.inf, math.nan,
])
def test_values_outside_the_range_are_declined(x):
    assert kernel([x]) is None
    assert kernel([1.5, x, 2.5]) is None


def test_powers_of_ten_and_their_neighbours():
    # the decade from np.log10 is off by one next to 10^k; the exact check
    # against 10^k = hi + lo sets it right
    written = 0
    for k in range(-280, 290):
        p = float("1e%d" % k)
        for x in (p, np.nextafter(p, math.inf), np.nextafter(p, -math.inf)):
            if not guarded(x):
                assert kernel([x]) == b"%s," % (b"%.17g" % x), x
                written += 1
    assert written == 3 * 570 - 2


@pytest.mark.parametrize("x", [1374164587707754.75, 50259810352216.8125,
                               2582419754638.28125, 305458539994491.375])
def test_exact_ties_round_half_to_even(x):
    exact = Fraction(x) * 10 ** (16 - decade(Fraction(x)))
    assert exact.denominator == 2  # an exact decimal tie at 17 digits
    assert kernel([x, -x]) == b"%s,%s," % (b"%.17g" % x, b"%.17g" % -x)


def test_power_table_is_exact():
    hi, hi1, hi2, lo, up = _g17_tables()[:5]
    for q in range(-_POW_BIAS, _POW_BIAS + 1):
        i = q + _POW_BIAS
        exact = Fraction(10) ** q
        assert float(exact) == hi[i]
        assert float(exact - Fraction(hi[i])) == lo[i]
        assert hi1[i] + hi2[i] == hi[i]
        assert Fraction(up[i]) >= exact > Fraction(np.nextafter(up[i], 0.0))


def test_rows_cross_block_boundaries(monkeypatch):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(4097) * 10.0 ** rng.integers(-30, 30, 4097)
    values[::7] = np.round(values[::7], 3)
    values[3000] = math.nan  # the block that holds it is written by %
    rows = values.reshape(-1, 1)
    blocks = []
    real = jsonio._g17

    def spy(x, seps):
        out = real(x, seps)
        blocks.append((len(x), out is None))
        return out

    monkeypatch.setattr(jsonio, "_g17", spy)
    expected = "".join("%.17g\n" % x for x in values)
    assert csv_text("", rows) == expected
    assert blocks == [(1366, False), (1366, False), (1365, True)]
    assert max(n for n, _ in blocks) <= _G17_BLOCK
    wide = values[:4096].reshape(-1, 64)
    assert csv_text("", wide) == "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in wide)


@pytest.mark.parametrize("size", [2048, 2049, 4096, 4097, 8450])
def test_arrays_up_to_two_blocks_are_one_kernel_pass(monkeypatch, size):
    # round values, zeros and exponent forms put trailing zeros in every
    # word of the 17-digit integer
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 20, size)
    values[::3] = np.round(values[::3], 4)
    values[1::5] = rng.integers(-10 ** 6, 10 ** 6, len(values[1::5])) / 16
    values[2::11] = 0.0
    values[4::13] = 10.0 ** rng.integers(-20, 20, len(values[4::13]))
    rows = values.reshape(-1, 2) if size % 2 == 0 else values.reshape(-1, 1)
    calls = []
    real = jsonio._g17

    def counter(x, seps):
        out = real(x, seps)
        assert out is not None  # the kernel writes every block
        calls.append(len(x))
        return out

    monkeypatch.setattr(jsonio, "_g17", counter)
    expected = "".join(",".join("%.17g" % x for x in row) + "\n"
                       for row in rows)
    assert csv_text("", rows) == expected
    assert sum(calls) == size
    if size <= 2 * _G17_BLOCK:
        assert calls == [size]
    else:
        assert len(calls) == -(-size // _G17_BLOCK)
        assert max(calls) <= _G17_BLOCK


def test_short_arrays_are_written_by_percent(monkeypatch):
    monkeypatch.setattr(jsonio, "_g17", None)
    rows = np.arange(_G17_FLOOR - 1, dtype=float).reshape(-1, 1) / 7
    assert csv_text("", rows) == "".join("%.17g\n" % x for x in rows[:, 0])
    assert csv_text("<", np.zeros((0, 3)), ">") == "<>"


def test_percent_writes_every_format_and_separator():
    values = np.array([0.0, -0.0, 1 / 3, -2.5, 672.825, 1e300, 5e-324,
                       math.inf, -math.inf, math.nan])
    for fmt in ("%.17g", "%.2f"):
        assert _percent(fmt, values[:0], np.zeros(0, np.uint8)) == b""
        for c in SEPS:
            seps = np.full(len(values), c, np.uint8)
            assert _percent(fmt, values, seps) == b"".join(
                b"%s%c" % (fmt.encode() % x, c) for x in values)
        seps = np.frombuffer(SEPS * 2, np.uint8)[:len(values)]
        assert _percent(fmt, values, seps) == b"".join(
            b"%s%c" % (fmt.encode() % x, c) for x, c in zip(values, seps))


def test_large_export_holds_its_text_twice_at_most():
    # csv_text joins the text once: the bytes it builds and the str made
    # from them, with one block's kernel temporaries beside them
    rows = np.random.default_rng(7).standard_normal((257, 514))
    csv_text("", rows[:1])  # first-call tables
    tracemalloc.start()
    try:
        text = csv_text("# head\n", rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 2_600_000
    assert peak < 2.5 * len(text)


# -- JSON --------------------------------------------------------------------

FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                     -sys.float_info.max, 1.0, -3.0, 2.0 ** 53, 1e22]))
WORDS = st.text("abcxyz_-0123456789", max_size=5)
LEAVES = st.one_of(
    FINITE, FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(
        np.float32),
    st.builds(complex, FINITE, FINITE),
    st.builds(np.complex128, st.builds(complex, FINITE, FINITE)),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.lists(FINITE, max_size=4).map(np.array),
    st.lists(st.builds(complex, FINITE, FINITE), max_size=3).map(np.array),
    st.integers(), st.booleans(), st.none(), WORDS)
DOCS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(WORDS, inner, max_size=4)), max_leaves=16)


def plain(obj):
    """obj as JSON gives it back: Python values, lists, [re, im]."""
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return plain(obj.item())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


def assert_same(got, expected):
    """Equal, with every float of the same bits and no float turned int."""
    assert type(got) is type(expected), (got, expected)
    if isinstance(expected, float):
        assert (np.float64(got).view(np.uint64)
                == np.float64(expected).view(np.uint64)), (got, expected)
    elif isinstance(expected, list):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same(g, e)
    elif isinstance(expected, dict):
        assert got.keys() == expected.keys()
        for k in expected:
            assert_same(got[k], expected[k])
    else:
        assert got == expected


def sorted_pairs(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(DOCS)
@example({"z": [-0.0, 5e-324, -sys.float_info.max, 1.0, -3.0, 2.0 ** 53],
          "a": (np.complex128(complex(1.0, -0.0)), np.arange(3.0))})
def test_reports_round_trip_bit_for_bit(doc):
    text = dumps(doc)
    assert " " not in text and "\n" not in text
    assert_same(json.loads(text, object_pairs_hook=sorted_pairs), plain(doc))
    assert jsonio.dump_line(doc) == text + "\n"


@settings(derandomize=True, max_examples=30, deadline=None)
@given(DOCS, st.sampled_from([
    math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf),
    complex(math.inf, 0.0), np.complex128(complex(0.0, math.nan)),
    np.array([1.0, -math.inf])]),
    st.lists(st.sampled_from([list, tuple, dict]), max_size=3))
def test_non_finite_floats_anywhere_are_refused(doc, bad, wrappers):
    for wrap in wrappers:
        bad = {"a": doc, "b": bad} if wrap is dict else wrap([doc, bad])
    with pytest.raises(NonFiniteError):
        dumps(bad)
