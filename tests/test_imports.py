"""Every name a package module imports is used in it, and every module it
imports is the standard library's, NumPy's or the package's own."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import ctmc_ldp

MODULES = sorted(p for p in Path(ctmc_ldp.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


@pytest.mark.parametrize("path", sorted(Path(ctmc_ldp.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    # SciPy and the other references are test extras: the package needs NumPy alone
    allowed = sys.stdlib_module_names | {"numpy", "ctmc_ldp"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert roots - allowed == set()


def test_star_export_holds_only_classes_and_functions():
    # the submodules (``markov``, ``rates``, ...) are package attributes,
    # not part of the public names ``from ctmc_ldp import *`` binds
    others = [name for name in ctmc_ldp.__all__
              if not (inspect.isclass(getattr(ctmc_ldp, name))
                      or inspect.isfunction(getattr(ctmc_ldp, name)))]
    assert others == []
    assert "markov" not in ctmc_ldp.__all__ and "Generator" in ctmc_ldp.__all__
