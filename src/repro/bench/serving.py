"""Serving-layer benchmarks — the numbers behind ``BENCH_serving.json``.

The serving layer exists for two measurable promises:

- **cold start**: opening the persisted index (``trust.bin``) is a
  header read, an mmap and one payload checksum, not the manifest scan
  of :func:`~repro.archive.index.build_index` that is the only other
  way to get an index — the full-mode floor demands ≥ 10x.
- **serving overhead**: a batched daemon round trip must stay within
  5x of the same warm in-process ``trusted_on_many`` batch — the
  price of HTTP + JSON + process hop, amortized by batching.

The suite measures both, plus the daemon under a concurrency ladder
(p50/p99 per level, ≥ 3 levels), startup time, and per-worker RSS
(via ``/proc``, ``None`` off-Linux).  Correctness is gated in *every*
mode: the mmap-backed index must decode to exactly the
:class:`~repro.archive.index.ArchiveIndex` rebuilt from the manifests,
and the query surface (``trusted_on_many`` across every archived date,
``ever_shipped`` for every fingerprint, in-force resolution for every
provider × date) must be element-wise identical between the mapped
file and an engine over ``index_loader=build_index``.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus and ladder to ride inside
tier-1.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro.archive import Archive, ingest_dataset
from repro.archive.binindex import read_binary_index
from repro.archive.index import build_index
from repro.archive.query import ArchiveQuery
from repro.bench.harness import (
    BenchResult,
    Gate,
    SuiteSpec,
    percentile,
    ratio,
    resolve_dataset,
    resolve_smoke,
    timed,
)
from repro.serving import ServingClient, ServingConfig, ServingDaemon, worker_rss_bytes
from repro.store.history import Dataset

#: The concurrency ladder (≥ 3 levels, per the acceptance criteria).
CONCURRENCY_LEVELS = (1, 2, 4)


def _summary_lines(r: dict) -> list[str]:
    lines = [
        f"mode            : {r['mode']} ({r['providers']} providers, "
        f"{r['fingerprints']} fingerprints)",
        f"cold start      : rebuild {r['cold_start']['rebuild_s'] * 1e3:.2f} ms, "
        f"binary {r['cold_start']['binary_s'] * 1e3:.3f} ms "
        f"({r['cold_start']['speedup']:.0f}x, floor "
        f"{r['cold_start']['floor']['min_speedup']:.0f}x, "
        f"met={r['cold_start']['floor']['met']})",
        f"equivalence     : identical={r['equivalence']['ok']} "
        f"({r['equivalence']['trusted_on_checked']} trusted_on dates, "
        f"{r['equivalence']['ever_shipped_checked']} fingerprints)",
        f"warm in-process : {r['warm']['per_fp_us']:.2f} us/fingerprint "
        f"(batch {r['warm']['batch']})",
        f"daemon          : {r['daemon']['workers']} workers, "
        f"startup {r['daemon']['startup_s'] * 1e3:.0f} ms, "
        f"rss/worker {_fmt_rss(r['daemon']['rss_bytes_per_worker'])}",
    ]
    for level in r["daemon"]["levels"]:
        lines.append(
            f"  c={level['concurrency']:<2d}          : "
            f"p50 {level['p50_ms']:.2f} ms, p99 {level['p99_ms']:.2f} ms, "
            f"{level['throughput_rps']:.0f} req/s "
            f"({level['per_fp_us']:.2f} us/fingerprint)"
        )
    overhead = r["daemon"]["overhead"]
    lines.append(
        f"daemon overhead : {overhead['ratio']:.2f}x warm in-process "
        f"(floor {overhead['floor']['max_ratio']:.0f}x, "
        f"met={overhead['floor']['met']})"
    )
    return lines


SUITE = SuiteSpec(
    render=_summary_lines,
    gates=(
        Gate("equivalence.index_identical", "==", True, "trust.bin decodes to the rebuild"),
        Gate("equivalence.trusted_on_identical", "==", True, "trusted_on_many matches"),
        Gate("equivalence.ever_shipped_identical", "==", True, "ever_shipped matches"),
        Gate("equivalence.in_force_identical", "==", True, "in-force resolution matches"),
        Gate("equivalence.ok", "==", True, "trust.bin answers exactly like a manifest rebuild"),
        Gate("daemon.levels.2.concurrency", ">=", 1, "the ladder has at least three levels"),
    ),
    floors=(
        Gate(
            "cold_start.speedup", ">=", 10.0, "mapping trust.bin vs rebuilding from manifests",
            record=("cold_start.floor", "min_speedup", "met"),
        ),
        # Like with like: one daemon batch at concurrency 1 vs. the same
        # warm in-process batch.
        Gate(
            "daemon.overhead.ratio", "<=", 5.0, "daemon round trip vs warm in-process batch",
            record=("daemon.overhead.floor", "max_ratio", "met"),
        ),
    ),
)


def _fmt_rss(value) -> str:
    return f"{value / 1e6:.1f} MB" if value else "n/a"


def _probe_space(query: ArchiveQuery) -> tuple[list[str], list]:
    """Every fingerprint and every distinct release date in the archive."""
    fingerprints = sorted(query.index.postings)
    dates = sorted(
        {
            entry.taken_at
            for timeline in query.index.timelines.values()
            for entry in timeline
        }
    )
    return fingerprints, dates


def _bench_cold_start(archive: Archive, *, rounds: int) -> dict:
    """Rebuild-from-manifests vs. map-the-binary, best of ``rounds`` each."""
    catalog_hash = archive.catalog_hash()
    rebuild_s, _ = timed(
        lambda: build_index(archive),
        rounds=rounds,
        suite="serving",
        section="cold_rebuild",
    )

    def open_binary():
        index = read_binary_index(archive, catalog_hash)
        assert index is not None, "trust.bin must be fresh after ingest"
        index.close()
        return index

    binary_s, _ = timed(
        open_binary, rounds=rounds, suite="serving", section="cold_binary"
    )
    return {
        "rebuild_s": rebuild_s,
        "binary_s": binary_s,
        "speedup": ratio(rebuild_s, binary_s),
    }


def _check_equivalence(archive: Archive) -> dict:
    """Element-wise identity between ``trust.bin`` and a manifest rebuild."""
    rebuilt_engine = ArchiveQuery(archive, index_loader=build_index)
    binary_engine = ArchiveQuery(archive)  # default loader: trust.bin
    fingerprints, dates = _probe_space(rebuilt_engine)

    index_identical = binary_engine.index.to_archive_index() == rebuilt_engine.index
    trusted_identical = all(
        rebuilt_engine.trusted_on_many(fingerprints, when)
        == binary_engine.trusted_on_many(fingerprints, when)
        for when in dates
    )
    shipped_identical = all(
        rebuilt_engine.ever_shipped(fp) == binary_engine.ever_shipped(fp)
        for fp in fingerprints
    )
    in_force_identical = all(
        rebuilt_engine.index.in_force(provider, when)
        == binary_engine.index.in_force(provider, when)
        for provider in rebuilt_engine.providers
        for when in dates
    )
    return {
        "index_identical": index_identical,
        "trusted_on_checked": len(dates),
        "trusted_on_identical": trusted_identical,
        "ever_shipped_checked": len(fingerprints),
        "ever_shipped_identical": shipped_identical,
        "in_force_identical": in_force_identical,
        "ok": index_identical
        and trusted_identical
        and shipped_identical
        and in_force_identical,
    }


def _bench_warm(archive: Archive, batch: list[str], dates, *, iters: int) -> dict:
    """p50 of a warm in-process ``trusted_on_many`` batch (``trust.bin``)."""
    engine = ArchiveQuery(archive)
    engine.trusted_on_many(batch, dates[0])  # prime caches
    latencies = []
    for k in range(iters):
        when = dates[k % len(dates)]
        start = time.perf_counter()
        engine.trusted_on_many(batch, when)
        latencies.append(time.perf_counter() - start)
    p50 = percentile(latencies, 0.50)
    return {
        "batch": len(batch),
        "iters": iters,
        "p50_s": p50,
        "per_fp_us": p50 / len(batch) * 1e6,
    }


def _drive_level(
    host: str,
    port: int,
    payloads: list[list[dict]],
    *,
    concurrency: int,
    per_thread: int,
    batch: int,
) -> dict:
    """``concurrency`` clients, ``per_thread`` batches each; latency ladder."""
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)

    def drive(slot: int) -> None:
        with ServingClient(host, port) as client:
            barrier.wait()
            for k in range(per_thread):
                start = time.perf_counter()
                client.batch(payloads[k % len(payloads)])
                latencies[slot].append(time.perf_counter() - start)

    threads = [
        threading.Thread(target=drive, args=(slot,)) for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    flat = [latency for per_client in latencies for latency in per_client]
    p50 = percentile(flat, 0.50)
    return {
        "concurrency": concurrency,
        "requests": len(flat),
        "batch": batch,
        "p50_ms": p50 * 1e3,
        "p99_ms": percentile(flat, 0.99) * 1e3,
        "per_fp_us": p50 / batch * 1e6,
        "throughput_rps": len(flat) / wall if wall > 0 else float("inf"),
    }


def _bench_daemon(
    root: Path,
    batch: list[str],
    dates,
    *,
    workers: int,
    per_thread: int,
    warm_batch_p50_s: float,
) -> dict:
    daemon = ServingDaemon(ServingConfig(root=root, workers=workers))
    start = time.perf_counter()
    host, port = daemon.start()
    startup_s = time.perf_counter() - start
    try:
        rss = [worker_rss_bytes(pid) for pid in daemon.pids]
        rss_known = [r for r in rss if r is not None]
        payloads = [
            [
                {
                    "op": "trusted_on",
                    "fingerprints": batch,
                    "when": when.isoformat(),
                }
            ]
            for when in dates
        ]
        levels = [
            _drive_level(
                host,
                port,
                payloads,
                concurrency=concurrency,
                per_thread=per_thread,
                batch=len(batch),
            )
            for concurrency in CONCURRENCY_LEVELS
        ]
    finally:
        daemon.stop()
    return {
        "workers": workers,
        "startup_s": startup_s,
        "rss_bytes_per_worker": max(rss_known) if rss_known else None,
        "levels": levels,
        "overhead": {"ratio": ratio(levels[0]["p50_ms"] / 1e3, warm_batch_p50_s)},
    }


def run_serving_suite(
    dataset: Dataset | None = None,
    *,
    smoke: bool | None = None,
    rounds: int | None = None,
    workers: int = 2,
    output: Path | str | None = None,
) -> BenchResult:
    """Run every section and optionally write ``BENCH_serving.json``.

    ``rounds=None`` takes one round in smoke mode and five in full.
    """
    smoke = resolve_smoke(smoke)
    if rounds is None:
        rounds = 1 if smoke else 5
    dataset = resolve_dataset(dataset, smoke=smoke)

    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as tmp:
        root = Path(tmp) / "archive"
        archive = Archive(root, create=True)
        ingest_dataset(archive, dataset)  # persists trust.bin

        probe_engine = ArchiveQuery(archive)
        fingerprints, dates = _probe_space(probe_engine)
        batch = fingerprints[: min(len(fingerprints), 32 if smoke else 256)]

        cold = _bench_cold_start(archive, rounds=max(rounds, 3))
        equivalence = _check_equivalence(archive)
        warm = _bench_warm(
            archive, batch, dates, iters=16 if smoke else 128
        )
        daemon = _bench_daemon(
            root,
            batch,
            dates,
            workers=workers,
            per_thread=8 if smoke else 64,
            warm_batch_p50_s=warm["p50_s"],
        )

        results = {
            "providers": len(probe_engine.providers),
            "snapshots": sum(
                len(timeline) for timeline in probe_engine.index.timelines.values()
            ),
            "fingerprints": len(fingerprints),
            "cold_start": cold,
            "equivalence": equivalence,
            "warm": warm,
            "daemon": daemon,
        }
    return SUITE.finish(results, smoke=smoke, output=output)
