"""The package runs on the standard library and numpy alone.

Every import statement of src/holoflow/*.py, at any depth of the module,
must name a standard-library module, numpy, or a module of the package
(a relative import). Test and bench oracles (scipy, mpmath, hypothesis,
jsonschema) stay out of the runtime.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "holoflow"
MODULES = sorted(SRC.glob("*.py"))


def _top_level_imports(path):
    """(line, top-level module name) of every absolute import in path."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = [(line, name) for line, name in _top_level_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert foreign == [], "%s imports %r" % (path.name, foreign)
