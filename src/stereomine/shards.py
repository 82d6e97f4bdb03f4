"""Split a corpus file at record boundaries and work on the pieces in
forked processes.

A shard is a byte range of the file that starts at offset 0 or just
after a ``\\n``, so reading it as UTF-8 with universal newlines yields
exactly the lines the whole file yields there.  A caller can also ask
that every cut be at a line that starts a record (a ``#doc`` header for
vertical documents), so that no record straddles two shards.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import re
import signal
from contextlib import contextmanager
from pathlib import Path

# below about this many bytes a shard costs more to fork than it saves
MIN_SHARD_BYTES = 1 << 20

# matches the newline before every line
ANY_LINE = re.compile(b"\n")


def shard_count(path: Path) -> int:
    """One shard per core this process may run on, but none smaller than
    ``MIN_SHARD_BYTES``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, os.path.getsize(path) // MIN_SHARD_BYTES))


def split_ranges(
    path: Path, shards: int, record_start: re.Pattern[bytes] = ANY_LINE
) -> list[tuple[int, int]]:
    """Cut the file into at most ``shards`` byte ranges of about equal
    size.  Each cut lies just after the ``\\n`` at which a match of
    ``record_start`` begins; where no such cut is left, fewer ranges come
    back."""
    size = os.path.getsize(path)
    if shards <= 1 or size == 0:
        return [(0, size)]
    cuts = [0]
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
        for k in range(1, shards):
            found = record_start.search(data, max(cuts[-1], size * k // shards))
            if found is None or found.start() + 1 >= size:
                break
            cuts.append(found.start() + 1)
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


class _Window(io.RawIOBase):
    """The next ``length`` bytes of a binary file, then end of file."""

    def __init__(self, raw, length: int):
        self._raw = raw
        self._left = length

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n


@contextmanager
def open_range(path: Path, start: int, end: int):
    """Bytes ``[start, end)`` of a file as text, decoded the way
    ``errors.open_text`` decodes the whole file.  ``start`` must be a
    cut from ``split_ranges``."""
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        window = io.BufferedReader(_Window(raw, end - start))
        with io.TextIOWrapper(window, encoding="utf-8") as text:
            yield text


def _fork(work, start: int, end: int):
    """Start a child that pickles ``work(start, end)`` into a pipe; returns
    its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            result = work(start, end)
            with open(write_fd, "wb") as out:
                pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            # never return into the caller's code, and skip its exit handlers
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_forked(work, ranges: list[tuple[int, int]]) -> list | None:
    """``work(start, end)`` for every range: the first in this process,
    each other one in a forked child.  Returns the results in range order,
    or None when any of them raised or a child did not exit cleanly.

    Forking shares what the caller built before the call (lexicons, the
    phrase automaton) without rebuilding it; the caller must not be
    running threads.  Every child is reaped before this returns or raises.
    """
    children = []
    done = False
    try:
        try:
            for start, end in ranges[1:]:
                children.append(_fork(work, start, end))
            results = [work(*ranges[0])]
            # read every pipe before waiting, or a child blocked on a full pipe never exits
            results += [pickle.load(reader) for _, reader in children]
            done = True
        except Exception:
            pass  # the caller redoes the whole file in one process, which reports the error
    finally:
        for pid, reader in children:
            reader.close()
            if not done:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _, status = os.waitpid(pid, 0)
            done = done and os.waitstatus_to_exitcode(status) == 0
    return results if done else None
