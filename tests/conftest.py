import pytest

from assocrank import parallel


@pytest.fixture
def pool_of(monkeypatch):
    """`pool_of(n)` makes `parallel.map_chunks` use up to n threads, the
    caller included, whatever this machine's CPUs and BLAS, and starts the
    pool's helpers, so that a test sees no thread start."""

    def force(threads):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: threads)
        monkeypatch.setattr(parallel, "_BLAS_THREADS", 1)
        parallel.map_chunks(lambda chunk: None, threads)

    return force
