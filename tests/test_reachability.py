"""Every definition in ``repro`` is reached from outside the tests.

The package keeps one code path per job; a definition that only tests
call is a second path nobody runs.  This scan fails when a function,
method or class under ``src/repro/`` is named nowhere in ``src/``,
``examples/``, ``benchmarks/`` or ``perfbench/`` except at its own
definition.  A name counts where code uses it: a bare name, an
attribute, an import, or a string that is exactly the identifier (what
``getattr`` and patch targets use).  Prose in docstrings and comments
does not count, nor do ``__all__`` lists or a package ``__init__``'s
imports (re-exports).

The scan matches names, not owners: a method stays "reached" while any
other definition of the same name is used, so such a pair is checked by
hand when one side goes.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "repro"
SEARCHED = ("src", "examples", "benchmarks", "perfbench")

# Reached only from tests, kept on purpose: name -> why.
KEPT = {
    "blas_threads": "tests read it to check that the OpenBLAS thread setter "
    "took effect",
    "is_trained": "IVFIndex.is_trained: tests read it to check that "
    "training took effect",
    "is_calibrated": "FactVerifier.is_calibrated: tests read it to check "
    "that calibration took effect",
    "string_of": "Dictionary.string_of: tests in six files decode CSR "
    "neighbour ids through it; the alternative is the private _strings_view",
    "configure": "logging.configure: tests point log output at a buffer "
    "through it to read what was logged",
    "current_span": "tracing.current_span: tests read it to check that span "
    "nesting and cross-thread context propagation took effect",
    "calls": "FaultPlan.calls: tests read it to check that a respawned or "
    "unpickled plan starts its per-site counts from zero",
    "evict": "TenantRegistry.evict: tests force an eviction with it to pin "
    "that a leased tenant refuses eviction; LRU overflow evicts through "
    "the same _evict_locked",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_all(statement: ast.stmt) -> bool:
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
        targets = [statement.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def used_names(tree: ast.Module, *, package_init: bool = False) -> Counter:
    """How often each identifier is used (not defined) in ``tree``.

    A module's ``__all__`` list does not count, nor, in a package
    ``__init__``, its imports: both only re-export a name.
    """
    body = [
        statement
        for statement in tree.body
        if not _is_all(statement)
        and not (package_init and isinstance(statement, (ast.Import, ast.ImportFrom)))
    ]
    used: Counter = Counter()
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIER.fullmatch(node.value)
        ):
            used[node.value] += 1
    return used


def definitions(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every non-dunder def/class in ``tree``."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def names_used_outside_tests(root: Path = ROOT) -> Counter:
    used: Counter = Counter()
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used += used_names(tree, package_init=path.name == "__init__.py")
    return used


def unreached(root: Path = ROOT) -> list[str]:
    used = names_used_outside_tests(root)
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for path in sorted((root / PACKAGE).rglob("*.py"))
        for name, line in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if used[name] == 0 and name not in KEPT
    ]


def test_every_definition_is_reached_outside_tests():
    assert unreached() == []


def test_kept_names_are_still_unreached():
    """A kept name that gained a caller no longer needs its exemption."""
    used = names_used_outside_tests()
    assert [name for name in KEPT if used[name]] == []


def test_the_scan_sees_a_test_only_method(tmp_path):
    """The scan itself works: a method only tests call is reported, and
    so is a function only ``__all__`` and a package re-export name."""
    for directory in SEARCHED:
        (tmp_path / directory).mkdir()
    package = tmp_path / "src" / "repro" / "serving"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.serving.registry import Registry, helper\n", encoding="utf-8"
    )
    (package / "registry.py").write_text(
        '__all__ = ["Registry", "helper"]\n'
        "class Registry:\n"
        "    def lease(self):\n"
        '        """Documented, not called: list_tenants."""\n'
        "    def list_tenants(self):\n"
        "        return []\n"
        "def helper():\n"
        "    return 0\n",
        encoding="utf-8",
    )
    (tmp_path / "examples" / "app.py").write_text(
        "from repro.serving.registry import Registry\n"
        "Registry().lease()\n",
        encoding="utf-8",
    )
    assert unreached(tmp_path) == [
        "src/repro/serving/registry.py:7 helper",
        "src/repro/serving/registry.py:5 list_tenants",
    ]
