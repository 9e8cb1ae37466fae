"""The "%.17g" kernel of the CSV writers against %.

jsonio._g17 must give the bytes of "%.17g" % x and the separator for every
float of a block, or decline the block (None) when a float is guarded:
non-finite, nonzero outside [_G17_LOW, _G17_HIGH), or scaled within
_G17_TIE_GAP of a half-integer. The guard is recomputed here exactly with
Fraction.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import jsonio
from holoflow.jsonio import (_G17_BLOCK, _G17_FLOOR, _G17_HIGH, _G17_LOW,
                             _G17_TIE_GAP, _POW_BIAS, _g17, _g17_tables,
                             csv_text)

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


def test_short_arrays_are_written_by_percent(monkeypatch):
    monkeypatch.setattr(jsonio, "_g17", None)
    rows = np.arange(_G17_FLOOR - 1, dtype=float).reshape(-1, 1) / 7
    assert csv_text("", rows) == "".join("%.17g\n" % x for x in rows[:, 0])
    assert csv_text("<", np.zeros((0, 3)), ">") == "<>"
