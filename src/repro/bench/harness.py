"""The one scaffold every ``BENCH_*.json`` suite runs on.

A suite module measures; this module does everything around the
measuring, once for all of them:

- the smoke switch (:data:`SMOKE_ENV`, :func:`resolve_smoke`) and the
  smoke-size sub-corpus (:func:`smoke_dataset`, :func:`resolve_dataset`);
- best-of-rounds timing (:func:`timed`), which also lands each section
  in the ``repro_bench_section_seconds`` gauge;
- gates as data: each suite declares its correctness gates (checked in
  every mode) and its timing floors (checked in full mode only) as
  :class:`Gate` rows, and :meth:`BenchResult.failures` evaluates them;
- the one writer (:meth:`SuiteSpec.finish`), which records each floor's
  bound and verdict into the results, stamps the machine that produced
  them (``env``: CPU count, Python, numpy, git sha) and writes the JSON.

Timing uses ``time.perf_counter`` — the bench layer is the one place
the repository's "no wall-clock" rule does not apply, because wall
clock *is* the measurand.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs.instrument import set_gauge
from repro.store.history import Dataset, StoreHistory

#: Environment toggle: smoke-size inputs — wired into tier-1.
SMOKE_ENV = "REPRO_BENCH_SMOKE"
#: The smoke sub-corpus: the first providers, a few snapshots each.
SMOKE_PROVIDERS = 2
SMOKE_SNAPSHOTS_PER_PROVIDER = 6

_COMPARISONS = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">=": operator.ge}


def is_smoke_mode() -> bool:
    """Whether the environment requests the cheap smoke configuration."""
    return os.environ.get(SMOKE_ENV, "") == "1"


def resolve_smoke(smoke: bool | None) -> bool:
    """An explicit ``smoke`` wins; ``None`` reads :data:`SMOKE_ENV`."""
    return is_smoke_mode() if smoke is None else smoke


def smoke_dataset(
    dataset: Dataset,
    providers: int = SMOKE_PROVIDERS,
    snapshots: int = SMOKE_SNAPSHOTS_PER_PROVIDER,
) -> Dataset:
    """A tiny sub-corpus: the first ``providers``, ``snapshots`` each."""
    trimmed = Dataset()
    for provider in dataset.providers[:providers]:
        kept = list(dataset[provider].snapshots)[:snapshots]
        trimmed.add_history(StoreHistory(provider, snapshots=kept))
    return trimmed


def resolve_dataset(dataset: Dataset | None, *, smoke: bool) -> Dataset:
    """The dataset a suite measures: the default corpus unless given,
    cut to :func:`smoke_dataset` in smoke mode."""
    if dataset is None:
        from repro.simulation import default_corpus

        dataset = default_corpus().dataset
    return smoke_dataset(dataset) if smoke else dataset


def timed(
    fn: Callable[[], object],
    *,
    rounds: int = 1,
    suite: str | None = None,
    section: str | None = None,
) -> tuple[float, object]:
    """Best-of-``rounds`` wall time plus the last return value.

    When ``section`` is given, the best time is also recorded in the
    active telemetry registry as the ``repro_bench_section_seconds``
    gauge, so bench runs surface through ``obs report`` exactly like
    production timings.
    """
    best = float("inf")
    value: object = None
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    if section is not None:
        set_gauge(
            "repro_bench_section_seconds", best, suite=suite or "bench", section=section
        )
    return best, value


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, infinite when the denominator is 0."""
    return numerator / denominator if denominator > 0 else float("inf")


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


_MISSING = object()


def _lookup(results: dict, path: str):
    """The value at a dotted ``path``; integer segments index lists."""
    value: object = results
    for part in path.split("."):
        if isinstance(value, dict) and part in value:
            value = value[part]
        elif isinstance(value, list) and part.isdigit() and int(part) < len(value):
            value = value[int(part)]
        else:
            return _MISSING
    return value


@dataclass(frozen=True)
class Gate:
    """One row of a suite's gate table: ``results[path] <op> bound``.

    ``bound`` is a constant, or a function of the results for a gate
    that relates two measurements.  ``record`` names where the bound
    and its verdict are written into the results —
    ``(dotted dict path, bound key, verdict key)`` — for the floors the
    committed ``BENCH_*.json`` files carry as ``floor`` sub-dicts.
    """

    path: str
    op: str
    bound: object
    reason: str
    record: tuple[str, str, str] | None = None

    def _bound(self, results: dict):
        return self.bound(results) if callable(self.bound) else self.bound

    def holds(self, results: dict) -> bool:
        value = _lookup(results, self.path)
        return value is not _MISSING and bool(
            _COMPARISONS[self.op](value, self._bound(results))
        )

    def failure(self, results: dict) -> str | None:
        """``None`` when the gate holds, else a one-line explanation."""
        if self.holds(results):
            return None
        value = _lookup(results, self.path)
        shown = "missing" if value is _MISSING else repr(value)
        return (
            f"{self.path} = {shown}, expected {self.op} "
            f"{self._bound(results)!r}: {self.reason}"
        )


@dataclass(frozen=True)
class BenchResult:
    """One run of a suite: its results, where they were written, and
    the gate tables they are judged by."""

    results: dict
    output_path: Path | None
    spec: SuiteSpec

    def summary_lines(self) -> list[str]:
        """Human-readable rendering for the CLI."""
        return self.spec.render(self.results)

    def failures(self) -> list[str]:
        """Every violated gate, plus every violated floor in full mode."""
        checked = self.spec.gates
        if self.results["mode"] == "full":
            checked += self.spec.floors
        return [
            message for gate in checked if (message := gate.failure(self.results))
        ]


@dataclass(frozen=True)
class SuiteSpec:
    """A suite's declaration: its renderer and its gate tables."""

    render: Callable[[dict], list[str]]
    gates: tuple[Gate, ...]
    floors: tuple[Gate, ...]

    def finish(
        self, measured: dict, *, smoke: bool, output: Path | str | None
    ) -> BenchResult:
        """Stamp the schema, mode, floor verdicts and machine onto the
        ``measured`` sections, then write them to ``output`` if given."""
        results = {"schema": 1, "mode": "smoke" if smoke else "full", **measured}
        for gate in self.floors:
            if gate.record is not None:
                where, bound_key, met_key = gate.record
                target = results
                for part in where.split("."):
                    target = target.setdefault(part, {})
                target[bound_key] = gate.bound
                target[met_key] = gate.holds(results)
        results["env"] = environment()
        output_path = Path(output) if output is not None else None
        if output_path is not None:
            output_path.write_text(json.dumps(results, indent=2) + "\n")
        return BenchResult(results=results, output_path=output_path, spec=self)


def environment() -> dict:
    """The machine fingerprint every BENCH file carries."""
    return {
        "nproc": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def _git_sha() -> str | None:
    """The checkout's ``HEAD`` commit, or ``None`` outside a checkout.

    The sha gains a ``-dirty`` suffix when the ``repro`` package source
    differs from ``HEAD`` (modified, staged or untracked files), so a
    record made from uncommitted code is never attributed to the commit
    it started from.
    """
    package = Path(__file__).resolve().parent.parent
    try:
        sha = _git(package, "rev-parse", "HEAD")
        changed = _git(package, "status", "--porcelain", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return None
    if not sha:
        return None
    return f"{sha}-dirty" if changed else sha


def _git(cwd: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()
