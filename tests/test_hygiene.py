"""Source hygiene: no module of the package keeps a name nothing reads, or
reads another module's private names, the rule of the catalog's verdicts
has one home, and no np.unique call loads numpy.ma.

No linter runs with the suite, so these AST checks stand in for its
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    """A module's private names are its own: no package module imports one from
    another (``from .m import _x``) or reads one as ``m._x``. A name two modules
    share is public where it is defined."""
    crossings = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in TREES:
                crossings += [f"{module}: from .{node.module} import {alias.name}"
                              for alias in node.names if _private(alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in TREES and node.value.id != module
                  and _private(node.attr)):
                crossings.append(f"{module}: {node.value.id}.{node.attr}")
    assert crossings == []


#: The module-level function caches the package may keep: quadrature's node and
#: kernel tables and the catalog's default grids, which depend on no evaluation
#: config, and the per-config memo.
MODULE_CACHES = {("quadrature", "_level_nodes"), ("quadrature", "_level_kernel"),
                 ("routes", "memo"), ("inequalities", "default_grid")}

_CACHE_DECORATORS = {"lru_cache", "cache"}


def _is_cache(node) -> bool:
    """Whether node is functools' lru_cache or cache, bare, called or as an attribute."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in _CACHE_DECORATORS


def _module_caches(tree):
    """Names the module body binds to a function cache: a decorated function, or an
    assignment of a cache wrapper such as ``memo = lru_cache(maxsize=4)(Memo)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_cache(d) for d in node.decorator_list):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if any(isinstance(call, ast.Call) and _is_cache(call.func)
                   for call in ast.walk(node.value)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_per_point_caches_live_in_the_config_scoped_memo():
    """No module keeps a module-level function cache beyond the node and kernel
    tables, the catalog's default grids and routes.memo: a value computed at a point
    is cached in the memo of its config pair, which the cold_memo fixture clears,
    never in a global cache that ignores the config or outlives a test's
    monkeypatches."""
    found = {(module, name) for module, tree in TREES.items() for name in _module_caches(tree)}
    assert found == MODULE_CACHES


#: The rule that turns a pair of sides into a normalized margin, and the functions
#: that may apply it: the case method, which forms every catalog verdict, and the
#: Fox-Wright coefficient conditions.
RULE = "rel_margin"
RULE_SITES = {"inequalities.InequalityCase.margin", "foxwright.fx4_margins"}


def _functions(tree, prefix=""):
    """(qualified name, node) for every function, methods as Class.method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _sides_functions():
    """The catalog's sides functions and every module function they reach by name."""
    tree = TREES["inequalities"]
    functions = dict(_functions(tree))
    todo = [node.args[1].id for node in ast.walk(tree) if isinstance(node, ast.Call)
            and _called_name(node) == "InequalityCase" and isinstance(node.args[1], ast.Name)]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        todo += [n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)]
    assert len(seen) > 26  # the catalog's 25 sides functions, FX3_raw's and helpers
    return {name: functions[name] for name in seen}


def _is_where(node):
    return isinstance(node, ast.Call) and _called_name(node) == "where"


def test_the_verdict_rule_has_one_home():
    """Sides functions return pairs; only InequalityCase.margin (and fx4_margins, for
    the coefficient conditions) calls rel_margin. No sides function or helper it
    reaches orients a claim by an np.where(...) sign multiplier: a claim that reverses
    swaps its pair instead."""
    sites = {f"{module}.{name}" for module, tree in TREES.items()
             for name, fn in _functions(tree)
             if any(isinstance(n, ast.Call) and _called_name(n) == RULE for n in ast.walk(fn))}
    assert sites == RULE_SITES
    multipliers = sorted(name for name, fn in _sides_functions().items()
                         for n in ast.walk(fn) if isinstance(n, ast.BinOp)
                         and isinstance(n.op, ast.Mult) and (_is_where(n.left) or _is_where(n.right)))
    assert multipliers == []


#: np.unique's keywords that take its path without numpy.ma: a bare call tests
#: np.ma.is_masked, and importing numpy.ma costs a fresh interpreter 14-17 ms.
UNIQUE_KEYWORDS = {"return_index", "return_inverse", "return_counts"}


def test_unique_calls_do_not_import_numpy_ma():
    """Every np.unique call in the package asks for an index, inverse or counts."""
    bare = sorted(f"{module}:{node.lineno}" for module, tree in TREES.items()
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and _called_name(node) == "unique"
                  and not {k.arg for k in node.keywords} & UNIQUE_KEYWORDS)
    assert bare == []
