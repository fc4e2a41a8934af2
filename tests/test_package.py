"""The package's exported names, and the names each module imports."""

import ast
import types
from pathlib import Path

import pytest

import nodaltheta

MODULES = sorted(
    path for path in Path(nodaltheta.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def test_all_lists_exactly_the_public_names():
    # a deleted name cannot linger in __all__, nor a new one go unlisted
    bound = {
        name
        for name, value in vars(nodaltheta).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(nodaltheta.__all__) == sorted(bound)
    assert len(set(nodaltheta.__all__)) == len(nodaltheta.__all__)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_imported_name_is_used(path):
    # `__init__` imports to re-export; every other module imports to use
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_asserts(path):
    # `python -O` strips asserts; a check that must hold raises
    # VerificationError or PreconditionError, which keep the exit contract
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []
