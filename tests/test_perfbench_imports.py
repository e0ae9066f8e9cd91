"""The benchmark under perfbench/ imports evflow names directly and calls
them. Check each name still exists and each call still binds to its
signature, so that removing a public name or renaming a parameter cannot
break the benchmark without failing this suite."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from evflow.events import EventStream, SensorGeometry
from evflow.sync import event_activity_sequence, to_common_raster

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.glob("*.py"))}


def evflow_imports(tree):
    """(module, name, local name) for every `from evflow.<mod> import <name>` in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("evflow."):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def evflow_calls(tree):
    """(line, module, name, positional count, keyword names, starred) for every
    call of an imported evflow name in tree."""
    imported = {local: (m, n) for m, n, local in evflow_imports(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            starred = len(positional) < len(node.args) or len(keywords) < len(node.keywords)
            yield (node.lineno, *imported[node.func.id], len(positional), keywords, starred)


def test_perfbench_imports_exist():
    imports = [(f, m, n) for f, tree in TREES.items() for m, n, _ in evflow_imports(tree)]
    assert {m for _, m, _ in imports} >= {"evflow.events", "evflow.labels", "evflow.pipeline"}
    missing = [f"{f}: {m}.{n}" for f, m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def test_perfbench_calls_bind_to_signatures():
    calls = [(f, *c) for f, tree in TREES.items() for c in evflow_calls(tree)]
    assert {n for _, _, _, n, _, _, _ in calls} >= {"PipelineConfig", "run_pipeline", "accumulate"}
    unbound = []
    for f, line, module, name, n_positional, keywords, starred in calls:
        sig = inspect.signature(getattr(importlib.import_module(module), name))
        # a *args or **kwargs call binds only partially: its count is not in the source
        bind = sig.bind_partial if starred else sig.bind
        try:
            bind(*[None] * n_positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{f}:{line} {name}: {exc}")
    assert unbound == []


def test_sync_job_gets_uint16_grids_it_can_slice_and_raster():
    # harness.sync_job slices event_activity_sequence's result to the RGB
    # grids' count and passes the slice to to_common_raster
    calls = {name for _, _, name, _, _, _ in evflow_calls(TREES["harness.py"])}
    assert {"event_activity_sequence", "to_common_raster"} <= calls
    s = EventStream(SensorGeometry(64, 48), [5, 40_000, 40_001], [1, 2, 2], [3, 4, 4], [1, 0, 1])
    ev = event_activity_sequence(s, 33_333, 3)
    assert type(ev) is list and len(ev) == 3
    for grid in ev:
        assert type(grid) is np.ndarray and grid.dtype == np.uint16 and grid.shape == (48, 64)
    assert ev[1][4, 2] == 2 and ev[1].sum() == 2 and ev[0].sum() == 1 and not ev[2].any()
    rasters = to_common_raster(ev[:2], (16, 12))
    assert len(rasters) == 2 and rasters[1].shape == (12, 16)
    assert rasters[1].sum() * 16 == 2  # 4x4 blocks: area averages keep sum / 16
