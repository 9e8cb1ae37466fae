"""Conformal pairs check their probes as lanes.

The reference is the scalar probe loop the lanes replaced: each source
probe is mapped, tested for membership of the target and mapped back, then
each target probe makes the round trip the other way; the first failing
probe in grid order names the error.
"""

import re

import pytest

from holoflow import BadParameter, Domain, Mobius, PoleError
from holoflow import transfer
from holoflow.transfer import (_PAIR_PROBE_TOL, ConformalPair, cayley,
                               mobius_pair)

DISC = Domain.unit_disc()
RIGHT = Domain.half_plane("right")
UPPER = Domain.half_plane("upper")


def scalar_probe_error(h, h_inv, source, target):
    """The error the scalar probe loop raised, or None."""
    try:
        for z in source.sample_grid(1):
            w = h.eval(z)
            if not target.contains(w):
                return BadParameter(
                    "map sends source probe %r to %r outside the target"
                    % (z, w))
            if abs(h_inv.eval(w) - z) > _PAIR_PROBE_TOL:
                return BadParameter("inverse fails on source probe %r" % (z,))
        for w in target.sample_grid(1):
            if abs(h.eval(h_inv.eval(w)) - w) > _PAIR_PROBE_TOL:
                return BadParameter("inverse fails on target probe %r" % (w,))
    except PoleError as exc:
        return exc
    return None


IDENTITY = Mobius(1, 0, 0, 1)
# w / (1 + 5e-12 w): within the probe tolerance of the identity on the
# radius-1 disc about 2, beyond it on the far target probes
NEAR_IDENTITY = Mobius(1, 0, 5e-12, 1)


@pytest.mark.parametrize("h,h_inv,source,target,message", [
    (IDENTITY, IDENTITY, DISC, UPPER, "outside the target"),
    (cayley().h, Mobius(2.0, -2j, 1.0, 1j), DISC, UPPER,
     "inverse fails on source probe"),
    (IDENTITY, NEAR_IDENTITY, Domain.disc(2, 1), RIGHT,
     "inverse fails on target probe"),
    # 1 + 1/z and its inverse 1/(w - 1), whose pole is the target probe 1
    (Mobius(1, 1, 1, 0), Mobius(1, 1, 1, 0).inverse(), Domain.disc(2, 0.5),
     RIGHT, "Moebius pole near z=(1+0j)"),
])
def test_bad_maps_name_the_first_failing_probe(h, h_inv, source, target,
                                               message):
    expected = scalar_probe_error(h, h_inv, source, target)
    assert expected is not None and message in str(expected)
    with pytest.raises(type(expected), match=re.escape(str(expected))):
        ConformalPair(h, h_inv, source, target)


def test_cayley_is_built_and_probed_once(monkeypatch):
    lane_calls = []
    real = transfer._eval_lanes

    def spy(f, z):
        lane_calls.append(len(z))
        return real(f, z)

    monkeypatch.setattr(transfer, "_eval_lanes", spy)
    cayley.cache_clear()
    pair = cayley()
    probes = len(lane_calls)
    assert probes == 4  # there and back, from each side
    assert cayley() is pair
    assert len(lane_calls) == probes
    # a user map keeps its probes
    mobius_pair(pair.h, DISC, UPPER)
    assert len(lane_calls) == 2 * probes
