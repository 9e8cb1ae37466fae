"""The package surface, and what a cold start loads of it.

holoflow resolves the names of __all__ on first access (PEP 562), and the
CLI imports each subcommand's modules inside its handler, so the start of
a process that runs the CLI loads none of the modules it does not run.
"""

import importlib
import os
import subprocess
import sys

import pytest

import holoflow

# Modules that only some subcommands run: a cold start that imports the
# package, its CLI and the portrait module must leave them unloaded.
_NOT_ON_THE_START_PATH = ("classify", "semigroup", "spaces", "counterexample",
                          "transfer", "series")


def test_a_cold_start_loads_only_the_modules_it_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(holoflow.__file__)))
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import holoflow, holoflow.cli, holoflow.portrait; "
            "print(' '.join(sorted(set(sys.modules) - before)))" % src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert {"holoflow.cli", "holoflow.portrait", "holoflow.semiflow"} <= loaded
    assert not {"holoflow." + name for name in _NOT_ON_THE_START_PATH} & loaded
    assert "logging" not in loaded


@pytest.mark.parametrize("name", holoflow.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(holoflow, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("holoflow.")
    assert getattr(home, name) is value


def test_dir_lists_every_public_name():
    assert set(holoflow.__all__) <= set(dir(holoflow))
    assert "__version__" in dir(holoflow)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        holoflow.no_such_name
    assert not hasattr(holoflow, "no_such_name")
    with pytest.raises(ImportError):
        from holoflow import no_such_name  # noqa: F401


def test_a_patched_home_attribute_is_what_the_package_hands_out(monkeypatch):
    from holoflow import semiflow

    original = semiflow.integrate
    monkeypatch.setattr(semiflow, "integrate", len)
    assert holoflow.integrate is len
    monkeypatch.undo()
    assert holoflow.integrate is original
