"""The per-layer bench run (bench/run.py --trace 1) wraps holoflow
functions and methods by name; each name that bench/tracing.py lists must
exist in its module, or the traced run fails to install. The test only
reads bench/."""

import importlib
import importlib.util
import pathlib

import pytest

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize("short", sorted(TRACING._FUNCTIONS))
def test_traced_functions_exist(short):
    module = importlib.import_module("holoflow." + short)
    for name in TRACING._FUNCTIONS[short]:
        assert callable(getattr(module, name, None)), "%s.%s" % (short, name)


@pytest.mark.parametrize("short", sorted(TRACING._METHODS))
def test_traced_methods_exist(short):
    module = importlib.import_module("holoflow." + short)
    for cls_name, methods in TRACING._METHODS[short].items():
        cls = getattr(module, cls_name)
        for name in methods:
            # the tracer wraps vars(cls)[name]: defined on the class itself
            assert callable(vars(cls).get(name)), "%s.%s" % (cls_name, name)
