"""Every name the package exports is used by the program, not only by tests.

A name counts as used when some module under ``src/`` other than
``ecgauth/__init__.py``, a demo, or a benchmark file loads it (a bare name
or an attribute) or names it as a string, as the benchmark tracer does.
Definitions and imports do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "ecgauth" / "__init__.py"


def _exported():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return sorted(alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


def _used_names():
    files = [p for p in (ROOT / "src").rglob("*.py") if p != INIT]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_export_is_used_outside_tests():
    exported = _exported()
    assert exported, "found no `from .module import (...)` list"
    unused = sorted(set(exported) - _used_names())
    assert not unused, f"exported but used only by tests: {unused}"
