"""The benchmark's contract with the library, checked in tier-1.

``perfbench/*.py`` import what they use from :mod:`repro` inside
functions, so a refactor that renames or drops one of those names
would only show when the benchmark runs.  These tests walk each
script's AST and resolve every ``repro`` import, and they check that
the three ``repro.archive.ingest`` globals ``perfbench/collect.py
--trace 1`` wraps still exist and are still what a commit calls.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import repro.archive.ingest as ingest
from repro.archive import Archive, ingest_dataset
from repro.bench.harness import smoke_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The names ``collect.py`` wraps on ``repro.archive.ingest`` to time
#: index maintenance (``archive.index_delta``).
TRACED_INGEST_NAMES = ("apply_index_delta", "persist_index", "load_index")


def _repro_imports() -> list[tuple[str, str, str | None]]:
    """``(script, module, name)`` for every ``repro`` import in perfbench."""
    found = []
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text(), filename=str(script))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found.extend((script.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend(
                    (script.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_perfbench_repro_import_resolves():
    imports = _repro_imports()
    assert len({script for script, _, _ in imports}) >= 5  # the walk found the scripts
    unresolved = [
        f"{script}: from {module} import {name}"
        for script, module, name in imports
        if not _resolves(module, name)
    ]
    assert unresolved == []


def test_collect_trace_names_exist_on_ingest():
    source = (PERFBENCH / "collect.py").read_text()
    for name in TRACED_INGEST_NAMES:
        assert f'"{name}"' in source  # still the names collect.py wraps
        assert callable(getattr(ingest, name, None)), name


def test_commit_calls_the_traced_names(dataset, tmp_path, monkeypatch):
    """A first commit rebuilds through ``load_index``; a later one patches
    through ``apply_index_delta`` + ``persist_index`` — each looked up as
    a module global, which is what lets the tracer wrap them."""
    monkeypatch.setenv("REPRO_ARCHIVE_FSYNC", "0")
    calls: list[str] = []
    for name in TRACED_INGEST_NAMES:
        original = getattr(ingest, name)

        def traced(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ingest, name, traced)
    small = smoke_dataset(dataset)
    archive = Archive(tmp_path / "archive", create=True)
    ingest_dataset(archive, small, providers=small.providers[:1])
    assert calls == ["load_index"]
    ingest_dataset(archive, small)
    assert calls == ["load_index", "apply_index_delta", "persist_index"]

