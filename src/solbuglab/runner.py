"""Parse and detect a batch of files, split across the CPUs the process may use.

A batch is dealt, largest file first, into one group per usable CPU, but
never into more groups than it holds ``SPLIT_FLOOR_BYTES`` of input, nor
more than it holds files.  The first group runs in the calling
process, and every other group in a forked worker of its own.

A worker sends its per-file results back through a pipe as a pickle and
leaves with ``os._exit``.  When a worker cannot be started, exits non-zero
or sends a short result, the caller scans that group itself, so the results
are the same whichever way a batch runs.  Small batches, one-CPU masks,
platforms without ``fork`` or ``sched_getaffinity``, and processes that run
other threads (where ``fork`` is unsafe) scan in process without forking.
"""

import os
import threading
from typing import List, Optional, Sequence, Tuple

from .detectors import Finding, detect_all
from .parser import parse_file

# Input bytes a batch must hold per group.  On a 2-CPU host a two-way
# split of many small files broke even at 20-24 KiB in all, about 18 ms of
# fork, pickle and reap against the parsing it moves off the caller; the
# floor keeps a margin of about 3x over that.
SPLIT_FLOOR_BYTES = 32 * 1024

FileResult = Tuple[Optional[OSError], List[Finding]]


def _scan_group(paths: Sequence[str], enabled: Optional[Sequence[str]]) -> List[FileResult]:
    results: List[FileResult] = []
    for path in paths:
        try:
            model = parse_file(path)
        except OSError as exc:
            results.append((exc, []))
            continue
        results.append((None, detect_all(model, enabled=enabled)))
    return results


def _usable_cpus() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def plan_groups(sizes: Sequence[int], cpus: int) -> List[List[int]]:
    """Indexes of the files in each group: largest first, each file to the
    group with the fewest bytes so far, and at most one group per CPU and
    per ``SPLIT_FLOOR_BYTES`` of input."""
    count = max(1, min(cpus, len(sizes), sum(sizes) // SPLIT_FLOOR_BYTES))
    groups: List[List[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for index in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        least = loads.index(min(loads))
        groups[least].append(index)
        loads[least] += sizes[index]
    return groups


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0  # parse_file reports it


class _Worker:
    """A forked process that scans one group."""

    def __init__(self, group: List[str], enabled: Optional[Sequence[str]]):
        import pickle

        self.group = group
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:  # the worker: never returns into the caller's code
            code = 1
            try:
                os.close(read_fd)
                data = pickle.dumps(_scan_group(group, enabled), pickle.HIGHEST_PROTOCOL)
                with open(write_fd, "wb") as out:
                    out.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def results(self) -> Optional[List[FileResult]]:
        """The worker's results, or None when it failed; reaps the worker."""
        import pickle

        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if status != 0:
            return None
        try:
            results = pickle.loads(data)  # bytes our own worker wrote
        except Exception:
            return None
        if not isinstance(results, list) or len(results) != len(self.group):
            return None
        return results

    def kill(self) -> None:
        """Stop and reap the worker if results() has not."""
        import signal

        self.pipe.close()
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


def scan_files(paths: Sequence[str], enabled: Optional[Sequence[str]] = None
               ) -> List[FileResult]:
    """``(error, findings)`` for each path, in the order given: ``error`` is
    the ``OSError`` that reading the file raised, else ``findings`` is what
    ``detect_all(parse_file(path), enabled)`` returns.  Rule ids must already
    be known to ``detect_all``."""
    cpus = _usable_cpus()
    groups = plan_groups([_size(p) for p in paths], cpus) if cpus > 1 else []
    if len(groups) < 2 or threading.active_count() > 1:
        return _scan_group(paths, enabled)

    results: List[Optional[FileResult]] = [None] * len(paths)
    workers: List[Tuple[List[int], Optional[_Worker]]] = []
    try:
        for indexes in groups[1:]:
            try:
                worker: Optional[_Worker] = _Worker([paths[i] for i in indexes], enabled)
            except OSError:
                worker = None
            workers.append((indexes, worker))
        for indexes, worker in [(groups[0], None)] + workers:
            got = worker.results() if worker is not None else None
            if got is None:
                got = _scan_group([paths[i] for i in indexes], enabled)
            for index, result in zip(indexes, got):
                results[index] = result
    finally:
        for _, worker in workers:
            if worker is not None:
                worker.kill()
    return results
