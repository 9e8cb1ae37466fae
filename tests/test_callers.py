"""Every module-level private name of holoflow is read somewhere in the
package, not only defined: a helper that no caller needs is deleted.

The scan is by name over the whole package: a private name counts as used
when some module loads it as a name (after importing it, or in its own
module) or reads it as an attribute (module._name).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "holoflow"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def private_definitions(tree):
    """The private names bound by the module's top-level statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    yield name.id


def loaded_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


LOADED = {name for path in MODULES for name in loaded_names(parse(path))}


def test_the_package_has_private_names():
    assert len(MODULES) > 10
    assert sum(len(list(private_definitions(parse(p)))) for p in MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_has_a_caller(path):
    unused = sorted(set(private_definitions(parse(path))) - LOADED)
    assert not unused, "defined in %s but never read: %s" % (path.name,
                                                             unused)
