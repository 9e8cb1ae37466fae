"""Deterministic JSON emission.

Keys are sorted, floats are printed with %.17g (which round-trips IEEE
doubles bit-exactly), complex scalars become [re, im] pairs. Two runs
over equal data produce identical bytes.
"""

from __future__ import annotations

import json
import math

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
