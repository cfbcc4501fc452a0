"""Host one ``ServingDaemon`` for the ``serve`` workload.

Usage: ``python3 perfbench/daemon_host.py ARCHIVE``.  Prints one JSON
line with the daemon's address and start-up time once a worker answers
``/healthz``; on any line (or end of file) on standard input it prints
each worker's peak resident set size and stops the daemon.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True


def peak_rss_bytes(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one live process; 0 if unreadable."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024  # kB
    return 0


def main(argv) -> int:
    from repro.serving import ServingConfig, ServingDaemon

    daemon = ServingDaemon(ServingConfig(root=Path(argv[1]), workers=2))
    start = time.perf_counter()
    host, port = daemon.start()
    try:
        startup_s = time.perf_counter() - start
        print(json.dumps({"host": host, "port": port, "startup_s": startup_s}), flush=True)
        sys.stdin.readline()
        rss = [peak_rss_bytes(pid) for pid in daemon.pids]
        print(json.dumps({"worker_peak_rss": rss}), flush=True)
    finally:
        daemon.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
