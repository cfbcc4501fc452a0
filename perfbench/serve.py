"""``serve``: open- and closed-loop point queries against the serving daemon.

Why this workload: it is the only one on ``repro.serving`` and the
``trust.bin`` read path.  Its working set (the 649 paper-corpus
manifests) fits the 1024-entry manifest LRU, so it measures the warm
serving path, not disk.

The daemon (2 pre-forked workers over the paper-corpus archive) runs in
its own process (``daemon_host.py``), so worker memory is the server's
alone.  The load generator is this process, with one keep-alive
connection to each worker.  It speaks the daemon's wire format with
pre-encoded requests and keeps answers as bytes until a window ends, so
it needs microseconds per request and leaves the CPUs to the workers.
Requests are due on a fixed schedule at each rate; latency is timed
from when a request was *due* (a stall delays everything queued behind
it), and lateness -- how long after its due time a request was sent --
is reported for the generator itself.

The seeded request stream.  Fingerprint popularity is the program's own
traffic model, ``repro.analysis.zipf_traffic`` (Zipf, exponent 2.0,
over the TLS-trusted roots of a store, grounded in Braun et al. and
Smith et al.): each request picks one provider's latest store, as one
client would, and draws its fingerprints from that store's model,
ranked by a seed-dependent shuffle.  The rest of the mix has no
measured source -- only its shape ("mostly" small batches, "a few"
audits) is given -- so these figures are assumptions, not
measurements, and a change to them changes the benchmark:

- 85% ``trusted_on`` batches of 1-3 fingerprints, as a TLS client
  checking one chain sends;
- 1% 256-fingerprint audit batches;
- 7% ``ever_shipped``, 4% ``snapshot_at`` and 3% ``diff``;
- dates lean recent: ``last - span * u**2`` for a uniform ``u``.

Every block of ``BLOCK`` requests holds exactly these shares, so every
window of one block does the same work whatever the seed.

The whole stream runs once closed-loop before anything is timed; the
first cold pass shows a p99 many times the warm one.  Then windows of
``CLOSED_BLOCKS`` blocks closed-loop fill ``CLOSED_SHARE`` of
``--seconds``, and one window at ``LIGHT_RPS`` and one at ``HEAVY_RPS``
follow.

``throughput_per_s`` is the median over windows of the rate at which
both connections complete the closed-loop blocks back to back, and
``latency_p50_ms`` the median over windows of those requests' p50.  The
open-loop p50 at a fixed rate is not the end-to-end latency: between
requests the workers' virtual CPUs go idle, and waking them costs the
host, not the program, 0.5-1 ms that varied with the host's load: over
five runs of the same code the p50 at 600 req/s spread 37% of its
median, and over the next five the closed-loop p50, with the workers
busy, 19%.
The fixed-rate figures are in the report line, and so is ``max_rps``
-- the highest ladder rate whose p90 stays under ``P90_LIMIT_MS`` with
every answer correct and no growing backlog: on a shared 2-CPU host the
p90 near the knee swings several-fold between runs, so it cannot carry
a bound.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from datetime import date, timedelta
from pathlib import Path

from harness import SRC, Context, Outcome, hit_rate, median, quantile
from harness import dumped_total, repeat_setup, timed
from inputs import CORPUS_CATALOG_HASH, corpus_archive, seed_label

SETUP_REPETITIONS = 2
CONNECTIONS = 2
#: One block of the seeded stream: 85% small ``trusted_on`` batches
#: (1, 2 and 3 fingerprints in near-equal parts), 1% audits, 7%
#: ``ever_shipped``, 4% ``snapshot_at`` and 3% ``diff``.
BLOCK_MIX = (
    ("trusted_on/1", 114),
    ("trusted_on/2", 113),
    ("trusted_on/3", 113),
    ("audit", 4),
    ("ever_shipped", 28),
    ("snapshot_at", 16),
    ("diff", 12),
)
BLOCK = sum(count for _, count in BLOCK_MIX)
#: Blocks in the seeded stream (the windows cycle through it).
STREAM_BLOCKS = 6
#: Closed-loop blocks per window, windows per run at least, and the
#: share of --seconds the closed-loop windows fill.  The end-to-end
#: metrics come from them: one window's rate varies by about 20% with
#: where the host stalls and the audits fall, so the run takes the
#: median over many short windows.
CLOSED_BLOCKS = 2
MIN_WINDOWS = 12
CLOSED_SHARE = 0.7
#: A lightly loaded server, and its requests, in one window after the
#: closed-loop ones.
LIGHT_RPS = 100.0
LIGHT_REQUESTS = 100
#: The heavy rate, between a quarter and a third of the closed-loop
#: capacity on 2 CPUs, and its blocks, in one window after the light one.
HEAVY_RPS = 600.0
HEAVY_BLOCKS = 2
#: The p90 limit that defines max_rps: above a 256-fingerprint audit's
#: own service time, so only queueing -- not the mix -- breaks it.
P90_LIMIT_MS = 25.0
#: How much later the last tenth of a window may run than the first.
BACKLOG_GROWTH_MS = 5.0
#: Fixed ladder: 10% apart from 150 req/s; rungs tried per run, and
#: how long each is driven.
LADDER = tuple(round(150 * 1.1**k) for k in range(50))
MAX_PROBES = 4
PROBE_S = 0.5
#: Requests in the traced sequential replay.
REPLAY = 2000


# -- the seeded request stream ------------------------------------------------


def request_stream(query, dataset, seed: int, blocks: int = STREAM_BLOCKS) -> list[dict]:
    """``blocks`` blocks of ``BLOCK`` requests, each holding exactly
    ``BLOCK_MIX`` in a seeded order.

    The mix is fixed per block rather than drawn per request: an audit
    costs about 60 small lookups, so a random draw put 24-33 audits in
    3,000 requests and the work of a window varied with the seed.
    """
    from repro.analysis import zipf_traffic

    rng = random.Random(seed_label(seed, "serve"))
    providers = sorted(query.providers)
    traffic = {}
    for provider in providers:
        model = zipf_traffic(
            dataset[provider].latest(), seed=seed_label(seed, f"serve/traffic/{provider}")
        )
        fingerprints, weights = zip(*model.weights)
        traffic[provider] = (fingerprints, list(itertools.accumulate(weights)))
    first = {p: query.timeline(p)[0].taken_at for p in providers}
    last = max(entry.taken_at for p in providers for entry in query.timeline(p))
    start = min(first.values())

    def recent(since: date) -> str:
        span = (last - since).days
        return (last - timedelta(days=int(span * rng.random() ** 2))).isoformat()

    def pick(k: int) -> list[str]:
        fingerprints, cumulative = traffic[rng.choice(providers)]
        return rng.choices(fingerprints, cum_weights=cumulative, k=k)

    stream = []
    for _ in range(blocks):
        kinds = [kind for kind, count in BLOCK_MIX for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "audit":
                request = {"op": "trusted_on", "fingerprints": pick(256)}
            elif kind.startswith("trusted_on"):
                request = {"op": "trusted_on", "fingerprints": pick(int(kind[-1]))}
            elif kind == "ever_shipped":
                request = {"op": "ever_shipped", "fingerprint": pick(1)[0]}
            elif kind == "snapshot_at":
                request = {"op": "snapshot_at", "provider": rng.choice(providers)}
            else:
                a, b = rng.sample(providers, 2)
                request = {"op": "diff", "provider_a": a, "provider_b": b}
                request["when"] = recent(max(first[a], first[b]))
            if request["op"] in ("trusted_on", "snapshot_at"):
                request["when"] = recent(start)
            stream.append(request)
    return stream


def wire_request(request: dict) -> bytes:
    """One ``POST /v1/query`` carrying ``request``, ready to send."""
    body = json.dumps({"requests": [request]}, separators=(",", ":")).encode()
    head = (
        "POST /v1/query HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


# -- the daemon, in its own process -----------------------------------------


class DaemonProcess:
    """``daemon_host.py`` in a child process, stopped through its stdin."""

    def __init__(self, root):
        args = [sys.executable, str(Path(__file__).with_name("daemon_host.py")), str(root)]
        self._process = subprocess.Popen(
            args,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
        )
        line = self._process.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("serving daemon exited during start-up")
        started = json.loads(line)
        self.host, self.port = started["host"], started["port"]
        self.startup_s = started["startup_s"]
        self.worker_peak_rss: list[int] = []

    def close(self) -> None:
        try:
            self._process.stdin.write("stop\n")
            self._process.stdin.close()
            line = self._process.stdout.readline()
            if line:
                self.worker_peak_rss = json.loads(line)["worker_peak_rss"]
            self._process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._process.kill()
            self._process.wait(timeout=10)
        finally:
            self._process.stdout.close()


# -- the generator's connections ----------------------------------------------

_CONTENT_LENGTH = re.compile(rb"(?im)^content-length:\s*(\d+)\s*$")


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, host, port):
        self.address = (host, port)
        self._sock: socket.socket | None = None
        self._buffer = bytearray()

    def exchange(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; (HTTP status, body).  Raises ``OSError``."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(self.address, timeout=30)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(raw)
            while (end := self._buffer.find(b"\r\n\r\n")) < 0:
                self._fill()
            head = bytes(self._buffer[:end])
            match = _CONTENT_LENGTH.search(head)
            if match is None:
                raise ConnectionError(f"response without Content-Length: {head[:80]!r}")
            del self._buffer[: end + 4]
            length = int(match.group(1))
            while len(self._buffer) < length:
                self._fill()
            body = bytes(self._buffer[:length])
            del self._buffer[:length]
            return int(head.split(b" ", 2)[1]), body
        except OSError:
            self.close()  # the next exchange reconnects
            raise

    def _fill(self) -> None:
        chunk = self._sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buffer += chunk

    def health(self) -> dict:
        return json.loads(self.exchange(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n")[1])

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
        self._sock = None
        self._buffer.clear()


def worker_connections(host, port) -> list[Connection]:
    """One keep-alive connection per worker.

    The kernel hands a new connection to whichever worker is waiting in
    ``accept``, so two connections can land on the same worker and
    halve the capacity the generator sees.  A connection that lands on
    a worker already taken is replaced, like a client-side balancer.
    """
    connections, pids = [], set()
    for _ in range(50):
        connection = Connection(host, port)
        pid = connection.health()["pid"]
        if pid in pids:
            connection.close()
            continue
        connections.append(connection)
        pids.add(pid)
        if len(connections) == CONNECTIONS:
            return connections
    for connection in connections:
        connection.close()
    raise RuntimeError(f"could not reach {CONNECTIONS} distinct serving workers")


# -- open and closed loops ----------------------------------------------------


class Step:
    """One window: what was due, when it went out, how it ended."""

    def __init__(self, count: int):
        self.due = [0.0] * count
        self.sent = [0.0] * count
        self.done = [0.0] * count
        self.index = [0] * count
        #: (status, body) per request, None when the connection failed
        self.answers: list = [None] * count

    @property
    def latencies_ms(self) -> list[float]:
        return [(d - due) * 1e3 for d, due in zip(self.done, self.due)]

    @property
    def lateness_ms(self) -> list[float]:
        return [(s - due) * 1e3 for s, due in zip(self.sent, self.due)]


def _exchange(connection: Connection, raw: bytes):
    try:
        return connection.exchange(raw)
    except OSError:
        return None


def _run_threads(target, items) -> None:
    """``target(item)`` on one thread per item, joined before returning."""
    threads = [threading.Thread(target=target, args=(item,)) for item in items]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def drive(connections, wire, count: int, offset: int, rate: float | None = None) -> Step:
    """``count`` requests of the stream from ``offset``, spread over the
    connections.

    Open loop at ``rate`` req/s: each request is due on a fixed
    schedule.  Closed loop when ``rate`` is None: a connection sends its
    next request as soon as its answer is in, and a request is due when
    it is sent.
    """
    step = Step(count)
    lock = threading.Lock()
    cursor = iter(range(count))
    start = time.perf_counter() + 0.01

    def send(connection) -> None:
        while True:
            with lock:
                k = next(cursor, None)
            if k is None:
                return
            if rate is None:
                due = time.perf_counter()
            else:
                due = start + k / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
            position = (offset + k) % len(wire)
            step.due[k], step.index[k] = due, position
            step.sent[k] = time.perf_counter()
            step.answers[k] = _exchange(connection, wire[position])
            step.done[k] = time.perf_counter()

    _run_threads(send, connections)
    return step


def closed_loop(connections, wire, count: int, offset: int) -> tuple[float, Step]:
    """``count`` requests closed-loop: (completed req/s, step)."""
    start = time.perf_counter()
    step = drive(connections, wire, count, offset)
    return count / (time.perf_counter() - start), step


# -- set-up, checks and the run ---------------------------------------------


def _setup(ctx: Context, corpus):
    """A fresh paper-corpus archive and a started daemon over it."""
    archive = corpus_archive(ctx, corpus.dataset)
    return archive.root, DaemonProcess(archive.root)


def _dispose(state) -> None:
    root, daemon = state
    daemon.close()
    shutil.rmtree(root)


def expected_answers(root, stream) -> list[dict]:
    """In-process ``QueryService`` answers, as they look after the wire."""
    from repro.serving import QueryService

    service = QueryService(root)
    return [
        json.loads(json.dumps(service.handle_batch({"requests": [request]})))
        for request in stream
    ]


class Ledger:
    """Counts every request sent and every way one can fail."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = self.failed = 0
        self.transport_errors = self.shed = self.slot_errors = self.mismatches = 0

    def settle(self, step: Step) -> int:
        """Check a finished window's answers; returns its failures."""
        failed = 0
        for k, answer in enumerate(step.answers):
            if answer is None or answer[0] not in (200, 503):
                self.transport_errors += 1
            elif answer[0] == 503:
                self.shed += 1
            else:
                document = json.loads(answer[1])
                if any("error" in slot for slot in document["responses"]):
                    self.slot_errors += 1
                elif document != self.expected[step.index[k]]:
                    self.mismatches += 1
                else:
                    continue
            failed += 1
        step.answers = []  # drop the bodies once checked
        self.attempted += len(step.due)
        self.failed += failed
        return failed


def _step_quantile(steps, q: float) -> float:
    """The median over windows of each window's latency quantile."""
    return median([quantile(step.latencies_ms, q) for step in steps])


def _passes(step: Step, failed: int) -> bool:
    """Nothing failed, p90 under the limit, and the backlog not growing:
    the generator is no later in the last tenth of the window than in
    the first."""
    tenth = max(1, len(step.due) // 10)
    lateness = step.lateness_ms
    growth = median(lateness[-tenth:]) - median(lateness[:tenth])
    return (
        failed == 0
        and quantile(step.latencies_ms, 0.9) <= P90_LIMIT_MS
        and growth <= BACKLOG_GROWTH_MS
    )


def max_rps(connections, wire, ledger: Ledger, capacity: float, log: list):
    """The highest ladder rung that passes, searched from 65% of capacity:
    up while rungs pass, down while they fail.

    At most ``MAX_PROBES`` rungs of ``PROBE_S`` each, so the search
    costs a bounded time; 0 if no rung tried passed.
    """
    offset = 0
    k = max([0] + [i for i, r in enumerate(LADDER) if r <= 0.65 * capacity])
    best, direction = 0.0, 0
    for _ in range(MAX_PROBES):
        rate = LADDER[k]
        step = drive(connections, wire, int(rate * PROBE_S), offset, rate)
        offset += len(step.due)
        passed = _passes(step, ledger.settle(step))
        log.append((rate, round(quantile(step.latencies_ms, 0.9), 3), passed))
        if passed:
            best = max(best, rate)
            if direction < 0 or k + 1 == len(LADDER):
                break
            direction, k = 1, k + 1
        else:
            if direction > 0 or k == 0:
                break
            direction, k = -1, k - 1
    return best


def run(ctx: Context) -> Outcome:
    from repro.archive import ArchiveQuery, load_binary_index
    from repro.simulation import default_corpus

    corpus = default_corpus()
    outcome = Outcome()
    reps = 1 if ctx.trace else SETUP_REPETITIONS
    setup_s, (root, daemon) = repeat_setup(lambda: _setup(ctx, corpus), reps, _dispose)
    connections: list[Connection] = []
    try:
        query = ArchiveQuery(root, index_loader=load_binary_index)
        stream = request_stream(query, corpus.dataset, ctx.seed)
        wire = [wire_request(request) for request in stream]
        ledger = Ledger(expected_answers(root, stream))
        connections = worker_connections(daemon.host, daemon.port)
        # Warm-up: the whole stream once, closed loop.
        ledger.settle(closed_loop(connections, wire, len(wire), 0)[1])
        # Every window starts on a block boundary, so closed-loop and
        # heavy windows always carry the exact block mix.
        closed, closed_rates = [], []
        start = time.perf_counter()
        while (
            len(closed) < MIN_WINDOWS or time.perf_counter() - start < CLOSED_SHARE * ctx.seconds
        ):
            offset = len(closed) % STREAM_BLOCKS * BLOCK
            rps, step = closed_loop(connections, wire, CLOSED_BLOCKS * BLOCK, offset)
            closed.append(step)
            closed_rates.append(rps)
            ledger.settle(step)
        light = drive(connections, wire, LIGHT_REQUESTS, 0, LIGHT_RPS)
        heavy = drive(connections, wire, HEAVY_BLOCKS * BLOCK, 0, HEAVY_RPS)
        for step in (light, heavy):
            ledger.settle(step)
        capacity = median(closed_rates)
        probes: list = []
        best = max_rps(connections, wire, ledger, capacity, probes)
        if ctx.trace:
            _trace(outcome, wire, ledger, connections[0])
    finally:
        for connection in connections:
            connection.close()
        daemon.close()

    outcome.attempted += ledger.attempted
    outcome.failed += ledger.failed
    outcome.check("catalog_hash_pinned", ledger.expected[0]["catalog_hash"] == CORPUS_CATALOG_HASH)
    outcome.check("answers_match_in_process", ledger.mismatches == 0)
    outcome.check("no_slot_errors", ledger.slot_errors == 0)
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": max(daemon.worker_peak_rss) / 2**20,
        "throughput_per_s": capacity,
        "latency_p50_ms": _step_quantile(closed, 0.5),
    }
    outcome.report.update({
        "serve.closed_loop_rps": closed_rates,
        "serve.closed_loop.p90_ms": _step_quantile(closed, 0.9),
        "serve.closed_loop.windows": len(closed),
        "serve.max_rps": best,
        "serve.ladder": probes,
        "serve.p90_limit_ms": P90_LIMIT_MS,
        "serve.light.rate": LIGHT_RPS,
        "serve.light.requests": len(light.due),
        "serve.light.p50_ms": quantile(light.latencies_ms, 0.5),
        "serve.light.p90_ms": quantile(light.latencies_ms, 0.9),
        "serve.heavy.rate": HEAVY_RPS,
        "serve.heavy.requests": len(heavy.due),
        "serve.heavy.p50_ms": quantile(heavy.latencies_ms, 0.5),
        "serve.heavy.p90_ms": quantile(heavy.latencies_ms, 0.9),
        "serving.startup_s": daemon.startup_s,
        "serving.worker_peak_rss_mb": [rss / 2**20 for rss in daemon.worker_peak_rss],
        "serving.shed": ledger.shed,
        "serving.slot_errors": ledger.slot_errors,
        "serving.transport_errors": ledger.transport_errors,
        "loadgen.lateness_p90_ms": quantile(light.lateness_ms + heavy.lateness_ms, 0.9),
        "loadgen.connections": CONNECTIONS,
        "fsync": "off while ingesting the archive in set-up",
        "setup_repetitions": reps,
    })
    return outcome


def _worker_metrics(connection: Connection) -> list[dict]:
    """The metric families of the worker behind ``connection``."""
    status, body = connection.exchange(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return json.loads(body)["metrics"]


def _trace(outcome: Outcome, wire, ledger: Ledger, connection: Connection) -> None:
    """Split a sequential replay on one connection into service and transport.

    The same requests go three times back to back through the daemon:
    untraced, with each round trip timed, untraced again (the overhead
    is against the faster untraced pass, so a host stall in one of them
    does not read as negative overhead).  The worker's own
    ``repro_serving_request_seconds{op}`` histogram and manifest-cache
    counters, read from its ``GET /metrics`` before and after the timed
    replay, give the time the daemon spent answering each op; the round
    trips minus that are transport (HTTP, JSON and the network).
    """
    from repro.serving import OPS

    replay = range(REPLAY)

    def untraced() -> float:
        return timed(lambda: [connection.exchange(wire[i]) for i in replay])[0]

    untraced_s = untraced()
    before = _worker_metrics(connection)
    step = Step(REPLAY)

    def traced():
        for i in replay:
            step.index[i] = i
            step.due[i] = step.sent[i] = time.perf_counter()
            step.answers[i] = _exchange(connection, wire[i])
            step.done[i] = time.perf_counter()

    wall, _ = timed(traced)
    after = _worker_metrics(connection)
    untraced_s = min(untraced_s, untraced())

    def delta(name: str, key: str, **labels) -> float:
        return dumped_total(after, name, key, **labels) - dumped_total(before, name, key, **labels)

    op_s = {op: delta("repro_serving_request_seconds", "sum", op=op) for op in OPS}
    service_s = sum(op_s.values())
    rt = sum(done - sent for sent, done in zip(step.sent, step.done))
    hits, misses = (
        delta("repro_archive_cache_total", "value", cache="manifest", outcome=result)
        for result in ("hit", "miss")
    )
    ledger.settle(step)
    outcome.per_layer.update(
        {
            "serving.service_frac": service_s / wall,
            "serving.transport_frac": (rt - service_s) / wall,
            **{f"archive.query.{op}_frac": seconds / wall for op, seconds in op_s.items()},
            "archive.manifest_cache_hit_rate": hit_rate(hits, misses),
            "serving.slot_errors": ledger.slot_errors,
            "serving.shed": ledger.shed,
            "wall_s": wall,
            "unattributed_s": wall - rt,
            "unattributed_frac": (wall - rt) / wall,
            "trace_overhead_frac": wall / untraced_s - 1.0,
        }
    )
    outcome.report["trace.service_us"] = service_s / REPLAY * 1e6
    outcome.report["trace.transport_us"] = (rt - service_s) / REPLAY * 1e6
    outcome.report["trace.op_us"] = {op: s / REPLAY * 1e6 for op, s in op_s.items()}
