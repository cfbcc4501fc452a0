"""The shared bench scaffold: gate tables, floor records and the writer.

Every suite's gates are data (:class:`repro.bench.harness.Gate` rows);
these tests run the tables against the committed ``BENCH_*.json``
records, so no suite has to be re-run to show that the tables, not the
suites, decide what fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
from pathlib import Path

import pytest

from repro.bench import (
    archive,
    ingest,
    perf,
    robustness,
    scale,
    scenario,
    serving,
)
from repro.bench import harness
from repro.bench.harness import BenchResult, Gate

REPO = Path(__file__).resolve().parents[1]

#: Each suite's declaration and the committed record it produced.
COMMITTED = [
    (perf.SUITE, "BENCH_ordination.json"),
    (archive.SUITE, "BENCH_archive.json"),
    (ingest.SUITE, "BENCH_ingest.json"),
    (serving.SUITE, "BENCH_serving.json"),
    (robustness.SUITE, "BENCH_robustness.json"),
    (scale.SUITE, "BENCH_scale.json"),
    (scenario.SUITE, "BENCH_scenario.json"),
]
IDS = [filename for _, filename in COMMITTED]

#: Every (suite, record, gate row) — correctness gates and floors alike.
ROWS = [
    (suite, filename, gate)
    for suite, filename in COMMITTED
    for gate in suite.gates + suite.floors
]


def _committed(filename: str) -> dict:
    return json.loads((REPO / filename).read_text())


def _set(results: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    target = results
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target[part]
    target[leaf] = value


def _violating_value(gate: Gate, results: dict):
    bound = gate.bound(results) if callable(gate.bound) else gate.bound
    if gate.op == "==":
        return (not bound) if isinstance(bound, bool) else bound + 1
    return bound - 1 if gate.op == ">=" else bound + 1


@pytest.mark.parametrize("suite, filename", COMMITTED, ids=IDS)
def test_committed_records_pass_their_tables(suite, filename):
    assert BenchResult(_committed(filename), None, suite).failures() == []


@pytest.mark.parametrize("suite, filename", COMMITTED, ids=IDS)
def test_floor_records_come_from_the_table(suite, filename):
    """``finish`` rebuilds every committed ``floor`` sub-dict exactly."""
    committed = _committed(filename)
    committed.pop("env", None)
    measured = {
        key: value
        for key, value in copy.deepcopy(committed).items()
        if key not in ("schema", "mode")
    }
    rebuilt = suite.finish(measured, smoke=False, output=None).results
    assert set(rebuilt.pop("env")) == {"nproc", "python", "numpy", "git_sha"}
    assert rebuilt == committed


@pytest.mark.parametrize(
    "suite, filename, gate",
    ROWS,
    ids=[f"{filename}:{gate.path}" for _, filename, gate in ROWS],
)
def test_each_row_is_what_fails(suite, filename, gate):
    """Break one gated value: ``failures()`` names that row, and only
    that row; take the row out of its table and nothing fails."""
    results = _committed(filename)
    _set(results, gate.path, _violating_value(gate, results))

    failures = BenchResult(results, None, suite).failures()
    assert len(failures) == 1
    assert failures[0].startswith(f"{gate.path} = ")
    assert gate.reason in failures[0]

    without = dataclasses.replace(
        suite,
        gates=tuple(g for g in suite.gates if g is not gate),
        floors=tuple(g for g in suite.floors if g is not gate),
    )
    assert BenchResult(results, None, without).failures() == []


@pytest.mark.parametrize("suite, filename", COMMITTED, ids=IDS)
def test_floors_are_full_mode_only(suite, filename):
    results = _committed(filename)
    for gate in suite.floors:
        _set(results, gate.path, _violating_value(gate, results))
    assert len(BenchResult(results, None, suite).failures()) == len(suite.floors)
    results["mode"] = "smoke"
    assert BenchResult(results, None, suite).failures() == []


def test_missing_value_fails():
    results = _committed("BENCH_serving.json")
    del results["daemon"]["levels"][2]
    (ladder,) = [g for g in serving.SUITE.gates if g.path.startswith("daemon.levels")]
    assert BenchResult(results, None, serving.SUITE).failures() == [
        f"{ladder.path} = missing, expected >= 1: {ladder.reason}"
    ]


def test_finish_writes_what_it_returns(tmp_path):
    output = tmp_path / "BENCH_ingest.json"
    result = ingest.SUITE.finish(
        {"speedup": 12.0, "floor": {}, "correctness": {}}, smoke=True, output=output
    )
    assert list(result.results)[:2] == ["schema", "mode"]
    assert result.results["mode"] == "smoke"
    assert result.results["floor"] == {"min_speedup": 10.0, "met": True}
    assert json.loads(output.read_text()) == result.results
    assert result.output_path == output


@pytest.mark.parametrize(
    "status, expected",
    [("", "0123abc"), (" M src/repro/bench/harness.py", "0123abc-dirty")],
)
def test_git_sha_marks_uncommitted_package_source(monkeypatch, status, expected):
    answers = {"rev-parse": "0123abc", "status": status}
    monkeypatch.setattr(harness, "_git", lambda cwd, command, *args: answers[command])
    assert harness.environment()["git_sha"] == expected


def test_git_sha_is_null_outside_a_checkout(monkeypatch):
    def no_checkout(cwd, *args):
        raise subprocess.CalledProcessError(128, ["git", *args])

    monkeypatch.setattr(harness, "_git", no_checkout)
    assert harness.environment()["git_sha"] is None
