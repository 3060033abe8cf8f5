"""The package's layering, read from the source: which module imports which."""

import ast
import os

import qspt
from qspt import cli

_SRC = os.path.dirname(os.path.abspath(qspt.__file__))
MODULES = sorted(f[:-3] for f in os.listdir(_SRC) if f.endswith(".py"))


def package_imports(module: str) -> set[str]:
    """The qspt modules that module imports, relative or absolute."""
    with open(os.path.join(_SRC, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = ("qspt." * (node.level > 0) + (node.module or "")).rstrip(".")
            if path == "qspt":  # from . import a, b
                names.update(alias.name for alias in node.names)
            elif path.startswith("qspt."):
                names.add(path.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("qspt."))
    return names


def test_each_decision_lives_in_one_layer():
    assert {"cli", "hecke", "partitions", "report", "verify"} <= set(MODULES)
    # verify builds every report; __init__ only re-exports the class
    assert {m for m in MODULES if "report" in package_imports(m)} == {"__init__", "verify"}
    # partitions keeps the tables: every use of ell is hecke's, every report verify's
    assert not package_imports("partitions") & {"arith", "report", "hecke"}
    assert "report" not in package_imports("cli")
    # every check the CLI runs is a verify function, or a partial of one
    assert {getattr(f, "func", f).__module__ for f, _ in cli.CHECKS.values()} == {"qspt.verify"}
