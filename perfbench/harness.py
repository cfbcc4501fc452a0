"""Shared machinery of the benchmark: environment, timing, tracing, output.

Nothing here imports :mod:`repro` at module level: :func:`prepare`
must point the key pool and the temp directory into the run's work
directory *before* the program is first imported.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KEYPOOL = SRC / "repro" / "simulation" / "_keypool.json"
WORK_PARENT = Path(__file__).resolve().parent / "_work"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


@dataclass
class Context:
    """One benchmark run: its seed, time budget, mode and scratch space."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    _counter: int = 0

    def fresh_dir(self, label: str) -> Path:
        """A new, empty directory under the run's work directory."""
        self._counter += 1
        path = self.work / f"{label}-{self._counter}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    #: named check -> passed; a failed check counts as a failed operation
    checks: dict = field(default_factory=dict)
    #: workload-specific figures printed in the report line only
    report: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)
        self.attempted += 1
        if not passed:
            self.failed += 1


def prepare(workload: str, seed: int, seconds: float, trace: bool) -> Context:
    """Check the program is present and isolate this run's side effects.

    - the key pool is a copy in the work directory, so no run can
      rewrite the committed ``_keypool.json``;
    - temp files and bytecode caches stay out of the source tree.
    """
    if not (SRC / "repro" / "__init__.py").is_file() or not KEYPOOL.is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    work = WORK_PARENT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    shutil.copyfile(KEYPOOL, work / "keypool.json")
    os.environ["REPRO_KEYPOOL"] = str(work / "keypool.json")
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    return Context(workload=workload, seed=seed, seconds=seconds, trace=trace, work=work)


def cleanup(ctx: Context) -> None:
    shutil.rmtree(ctx.work, ignore_errors=True)
    try:
        WORK_PARENT.rmdir()  # only if no concurrent run still uses it
    except OSError:
        pass


# -- statistics -------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def repeat_setup(setup, repetitions: int, dispose=None):
    """Run ``setup`` ``repetitions`` times; (median seconds, last result).

    ``dispose`` releases every result but the last (a daemon to stop,
    a directory to drop) before the next repetition starts.
    """
    durations = []
    result = None
    for index in range(repetitions):
        if index and dispose is not None:
            dispose(result)
        start = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - start)
    return median(durations), result


# -- memory -----------------------------------------------------------------


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (or its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# -- tracing ----------------------------------------------------------------


class Tracer:
    """Times calls into the program's public functions from outside.

    :meth:`span` times a call the benchmark itself makes; :meth:`wrap`
    swaps a module or class attribute for a timing wrapper (for calls
    the program makes internally, such as ``os.fsync``) and the context
    exit puts every original back, so untraced runs execute the program
    untouched.  A *layer* interval adds to :attr:`layer_s` only when no
    other layer interval is open, so layers never count one interval
    twice and ``wall - layer_s`` is the unattributed rest.  A *detail*
    interval (nested work such as fsync) is reported on its own and
    never summed.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.layer_s = 0.0
        self._layer_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, *, layer: bool = True):
        if layer:
            self._layer_depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] += elapsed
            self.calls[name] += 1
            if layer:
                self._layer_depth -= 1
                if self._layer_depth == 0:
                    self.layer_s += elapsed

    def wrap(self, owner, attr: str, name: str, *, layer: bool = False) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed_call(*args, **kwargs):
            with self.span(name, layer=layer):
                return original(*args, **kwargs)

        setattr(owner, attr, timed_call)
        self._undo.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class NullTracer:
    """The untraced run's tracer: spans cost one no-op context."""

    @contextmanager
    def span(self, name: str, *, layer: bool = True):
        yield


NULL_TRACER = NullTracer()


def histogram_sum(registry, name: str, **labels) -> float:
    """Sum of one histogram's observations over matching series."""
    return _series_total(registry, name, "sum", labels)


def counter_total(registry, name: str, **labels) -> float:
    """Total of one counter over matching series."""
    return _series_total(registry, name, "value", labels)


def _series_total(registry, name: str, key: str, labels: dict) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    return dumped_total([family.to_dict()], name, key, **labels)


def dumped_total(families: list[dict], name: str, key: str, **labels) -> float:
    """Total of ``key`` (``sum`` or ``value``) over one family's matching
    series, in a registry dump such as a serving worker's ``/metrics``."""
    return float(
        sum(
            series[key]
            for family in families
            if family["name"] == name
            for series in family["series"]
            if all(series["labels"].get(k) == v for k, v in labels.items())
        )
    )


def hit_rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def manifest_cache_hit_rate(registry) -> float:
    """Hit rate of ``ArchiveQuery``'s manifest LRU, from its counters."""
    return hit_rate(
        counter_total(registry, "repro_archive_cache_total", cache="manifest", outcome="hit"),
        counter_total(registry, "repro_archive_cache_total", cache="manifest", outcome="miss"),
    )


# -- provenance and output --------------------------------------------------


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` inside it (no subprocess)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_sha256() -> str:
    """Content hash of the program sources: identifies a non-git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(ctx: Context) -> dict:
    import numpy

    from repro.archive import fsync_enabled

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "fsync_default": fsync_enabled(),
    }


def emit(ctx: Context, outcome: Outcome, metrics_spec: list[dict], env: dict) -> None:
    """Print the human report line, then the result object as the last line."""
    metrics = {}
    source = outcome.per_layer if ctx.trace else outcome.end_to_end
    for spec in metrics_spec:
        value = source[spec["name"]]
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    report = {
        "environment": env,
        "checks": outcome.checks,
        "figures": outcome.report,
    }
    print(json.dumps(report, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and all(outcome.checks.values()),
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
