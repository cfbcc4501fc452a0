"""Durable atomic writes and the crash-site instrumentation hook.

Every file the archive persists — objects, manifests, the catalog,
``index/trust.bin``, journal appends — goes through this module, which supplies
the two properties "temp file + ``os.replace``" alone does not:

- **Durability.**  File contents are flushed and ``fsync``'d before the
  rename, and the parent directory is fsync'd after it, so a commit
  survives a power loss, not just a process death.  A unique per-writer
  temp name (pid + per-process counter) means two concurrent writers of
  the same object can never clobber each other's half-written temp —
  the loser of the ``os.replace`` race simply installs an identical
  byte-for-byte object a second time.
- **Observability for fault injection.**  Each durable step announces a
  named *write site* through a process-wide hook just before (and just
  after) it becomes visible on disk.  The chaos harness
  (:mod:`repro.archive.chaos`) uses the hook to kill an ingest at every
  such site, optionally tearing or flipping the pending bytes first;
  production runs leave the hook unset and pay one indirect call per
  write.

``fsync`` can be disabled process-wide (``REPRO_ARCHIVE_FSYNC=0`` or
:func:`set_fsync`) for benchmarks that need the PR-3 baseline and for
test suites on filesystems where it is pure overhead; atomicity and
crash-site firing are unaffected.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Callable, Iterable

#: Environment toggle: set to ``"0"`` to skip fsync (atomicity remains).
FSYNC_ENV = "REPRO_ARCHIVE_FSYNC"

_FSYNC = os.environ.get(FSYNC_ENV, "1") != "0"

#: The crash-site hook: ``hook(site, path, data)`` called at each write
#: site.  ``path``/``data`` are the final destination and pending bytes
#: (``None`` for purely sequencing sites), letting an injector model a
#: torn or bit-flipped write before simulating the kill.
CrashHook = Callable[[str, Path | None, bytes | None], None]

_crash_hook: CrashHook | None = None

_TMP_COUNTER = itertools.count()


def set_fsync(enabled: bool) -> bool:
    """Toggle fsync process-wide; returns the previous setting."""
    global _FSYNC
    previous = _FSYNC
    _FSYNC = enabled
    return previous


def fsync_enabled() -> bool:
    return _FSYNC


def set_crash_hook(hook: CrashHook | None) -> None:
    """Install (or clear, with ``None``) the process-wide crash hook."""
    global _crash_hook
    _crash_hook = hook


def clear_crash_hook() -> None:
    set_crash_hook(None)


def fire_site(site: str, path: Path | None = None, data: bytes | None = None) -> None:
    """Announce one named write site to the installed hook, if any."""
    if _crash_hook is not None:
        _crash_hook(site, path, data)


def unique_tmp(path: Path) -> Path:
    """A temp name no other writer (process or thread) can collide on."""
    return path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")


def _fsync_file(fd: int) -> None:
    if _FSYNC:
        os.fsync(fd)


def fsync_dir(directory: Path) -> None:
    """Persist a directory entry (the rename itself) to stable storage."""
    if not _FSYNC:
        return
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds: nothing more we can do
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes, *, site: str) -> None:
    """Durably install ``data`` at ``path`` via a unique temp + replace.

    Fires ``{site}:replace`` after the temp file is written (and synced)
    but before the rename — a crash here leaves only a stale ``*.tmp``
    for ``gc``/``repair`` to sweep — and ``{site}:replaced`` immediately
    after the rename lands, the window where the file exists but every
    later step of the ingest is missing.
    """
    tmp = unique_tmp(path)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            _fsync_file(handle.fileno())
    except Exception:
        # A failed temp write never leaves a final-name artifact; the
        # stale temp itself is swept by gc/repair.
        raise
    fire_site(f"{site}:replace", path, data)
    os.replace(tmp, path)
    fsync_dir(path.parent)
    fire_site(f"{site}:replaced", path, data)


class AppendFile:
    """An fsync-per-record append handle (the journal's write primitive)."""

    def __init__(self, path: Path, *, exclusive: bool = True):
        flags = os.O_WRONLY | os.O_CREAT | (os.O_EXCL if exclusive else os.O_APPEND)
        self.path = path
        self._fd = os.open(path, flags, 0o644)
        fsync_dir(path.parent)  # the journal file's own creation is durable

    def append(self, line: bytes, *, site: str) -> None:
        """Fire ``site``, then durably append one record line."""
        fire_site(site, self.path, line)
        os.write(self._fd, line)
        _fsync_file(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def stray_tmp_files(root: Path) -> list[Path]:
    """Every ``*.tmp`` under ``root`` — debris of crashed writers."""
    if not root.is_dir():
        return []
    return sorted(p for p in root.rglob("*.tmp") if p.is_file())


def remove_all(paths: Iterable[Path]) -> int:
    """Unlink each path (ignoring racers); the number actually removed."""
    removed = 0
    for path in paths:
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        removed += 1
    return removed
