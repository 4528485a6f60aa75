"""Chunked work on the CPUs that BLAS leaves idle.

`map_chunks(fn, n)` runs fn(0), ..., fn(n - 1) on the calling thread and on
helper threads from one process-wide pool. Every thread, the caller
included, claims the next unclaimed chunk from one shared counter, so a
helper that is kept off its CPU delays only a chunk it has already claimed:
the caller runs every chunk that no helper takes. Helpers run each chunk in
a copy of the caller's `contextvars` context, where numpy keeps its error
state. The pool starts helpers when they are first needed and is replaced in
a forked child, where its threads do not exist.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading

# numpy loads BLAS on import, and BLAS reads its thread count from the
# environment then; importing numpy first makes `_BLAS_THREADS` below read
# the same environment
import numpy  # noqa: F401


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads BLAS runs a large matmul on, read as OpenBLAS (the BLAS that
    numpy's wheels bundle) reads it when it loads: the first positive number
    in these variables, else one thread per CPU, never more than the CPUs."""
    cpus = _usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), cpus)
    return cpus


_BLAS_THREADS = _blas_threads()


def _pool_size(chunks: int) -> int:
    """Threads, the caller included, for `chunks` chunks: the usable CPUs
    that BLAS leaves free, at least one and at most one per chunk.

    Every chunk's matmuls run on BLAS's own threads, and threads beside them
    compete with them for the CPUs: on a 2-CPU VM with BLAS on two threads,
    two threads transformed 100k x 64 rows in about 1.1 s and one in 0.8 s;
    with BLAS on one thread, two took 0.4 s.
    """
    if chunks <= 1:
        return 1
    return max(1, min(_usable_cpus() // _BLAS_THREADS, chunks))


class _Task:
    """fn(i) for i in range(n), each run by the first thread to claim i."""

    def __init__(self, fn, n: int):
        self.fn = fn
        self.n = n
        self.results = [None] * n
        self.errors: list[Exception | None] = [None] * n
        self._claimed = 0
        self._left = n
        self._lock = threading.Lock()
        self._done = threading.Event()

    def run(self) -> None:
        """Claim and run chunks until none is left unclaimed."""
        while True:
            with self._lock:
                i = self._claimed
                if i == self.n:
                    return
                self._claimed += 1
            try:
                self.results[i] = self.fn(i)
            except Exception as exc:  # map_chunks raises it; an interrupt propagates
                self.errors[i] = exc
            finally:
                with self._lock:
                    self._left -= 1
                    if not self._left:
                        self._done.set()

    def wait(self) -> None:
        """Return once every chunk has run."""
        if self._left:
            self._done.wait()


class _Pool:
    """Helper threads that serve tasks in the order they were offered."""

    def __init__(self):
        self._offers: queue.SimpleQueue = queue.SimpleQueue()
        self._helpers = 0
        self._lock = threading.Lock()

    def offer(self, task: _Task, helpers: int) -> None:
        """Wake up to `helpers` idle helpers on `task`, starting them first
        if the pool has fewer; a helper that is busy takes it up later, by
        when the task may have no chunk left."""
        with self._lock:
            while self._helpers < helpers:
                threading.Thread(target=self._serve, name="assocrank-helper", daemon=True).start()
                self._helpers += 1
        context = contextvars.copy_context()
        for _ in range(helpers):
            self._offers.put((task, context))

    def _serve(self) -> None:
        while True:
            task, context = self._offers.get()
            # a Context can be entered by one thread at a time
            context.copy().run(task.run)


_POOL = _Pool()


def _replace_pool() -> None:
    global _POOL
    _POOL = _Pool()


os.register_at_fork(after_in_child=_replace_pool)


def map_chunks(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], run by the caller and up to `_pool_size(n) - 1`
    helpers. The lowest failing chunk's exception is raised: with helpers,
    once every chunk has run; without, at once, in chunk order."""
    helpers = _pool_size(n) - 1
    if not helpers:
        return [fn(i) for i in range(n)]
    task = _Task(fn, n)
    _POOL.offer(task, helpers)
    task.run()
    task.wait()
    for error in task.errors:
        if error is not None:
            raise error
    return task.results
