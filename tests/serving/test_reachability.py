"""Every definition in ``repro.serving`` is reached from outside the tests.

The serving package keeps one code path per job; a definition that only
tests call is a second path nobody runs.  This scan fails when a
function, method or class under ``src/repro/serving/`` is named nowhere
in ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` except at
its own definition.  A name counts where code uses it: a bare name, an
attribute, an import, or a string that is exactly the identifier (what
``getattr`` and patch targets use).  Prose in docstrings and comments
does not count, nor do package ``__init__`` re-exports.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SERVING = ROOT / "src" / "repro" / "serving"
SEARCHED = ("src", "examples", "benchmarks", "perfbench")

# Reached only from tests, kept on purpose: name -> why.
KEPT = {
    "calls": "FaultPlan.calls: tests read it to check that a respawned or "
    "unpickled plan starts its per-site counts from zero",
    "evict": "TenantRegistry.evict: tests force an eviction with it to pin "
    "that a leased tenant refuses eviction; LRU overflow evicts through "
    "the same _evict_locked",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def used_names(tree: ast.AST) -> Counter:
    """How often each identifier is used (not defined) in ``tree``."""
    used: Counter = Counter()
    for node in ast.walk(tree):
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
            if path.name != "__init__.py":
                used += used_names(ast.parse(path.read_text(encoding="utf-8")))
    return used


def unreached(root: Path = ROOT) -> list[str]:
    used = names_used_outside_tests(root)
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for path in sorted((root / SERVING.relative_to(ROOT)).glob("*.py"))
        for name, line in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if used[name] == 0 and name not in KEPT
    ]


def test_every_serving_definition_is_reached_outside_tests():
    assert unreached() == []


def test_kept_names_are_still_unreached():
    """A kept name that gained a caller no longer needs its exemption."""
    used = names_used_outside_tests()
    assert [name for name in KEPT if used[name]] == []


def test_the_scan_sees_a_test_only_method(tmp_path):
    """The scan itself works: a method only tests call is reported."""
    for directory in SEARCHED:
        (tmp_path / directory).mkdir()
    package = tmp_path / "src" / "repro" / "serving"
    package.mkdir(parents=True)
    (package / "registry.py").write_text(
        "class Registry:\n"
        "    def lease(self):\n"
        '        """Documented, not called: list_tenants."""\n'
        "    def list_tenants(self):\n"
        "        return []\n",
        encoding="utf-8",
    )
    (tmp_path / "examples" / "app.py").write_text(
        "from repro.serving.registry import Registry\n"
        "Registry().lease()\n",
        encoding="utf-8",
    )
    assert unreached(tmp_path) == ["src/repro/serving/registry.py:4 list_tenants"]
