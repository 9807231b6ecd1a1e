"""Source hygiene: no module of the package keeps a name nothing reads.

No linter runs with the suite, so this AST check stands in for its
unused-import and dead-code rules: every module-level import and every
private module-level name of a module must be read somewhere in the package,
an import in its own module, a private name there or as ``module._name``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "struvekit"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}

#: Attribute names read anywhere in the package: how a module reaches another's names.
ATTRIBUTES = {node.attr for tree in TREES.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}


def _bound(tree):
    """(name, is_import) for every name the module body binds."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], True
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, False


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__"}))
def test_module_level_names_are_referenced(module):
    tree = TREES[module]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = sorted(name for name, is_import in _bound(tree)
                    if (is_import and name not in read)
                    or (not is_import and name.startswith("_") and not name.startswith("__")
                        and name not in read and name not in ATTRIBUTES))
    assert unread == [], f"{module}: nothing reads {unread}"
