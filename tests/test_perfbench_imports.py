"""The benchmark under perfbench/ imports evflow names directly. Check each
one still exists, so that removing a public name cannot break the benchmark
without failing this suite."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def evflow_imports():
    """(file, module, name) for every `from evflow.<mod> import <name>` in perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("evflow."):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_perfbench_imports_exist():
    imports = list(evflow_imports())
    assert {m for _, m, _ in imports} >= {"evflow.events", "evflow.labels", "evflow.pipeline"}
    missing = [f"{f}: {m}.{n}" for f, m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []
