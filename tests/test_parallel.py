"""The shared pool behind chunked search and the transform."""

import sys
import threading

import pytest

from assocrank import parallel


def test_concurrent_callers_run_every_chunk_once(pool_of):
    pool_of(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        runs = [[] for _ in range(6)]
        results = [None] * 6

        def call(caller):
            results[caller] = parallel.map_chunks(lambda chunk: runs[caller].append(chunk) or -chunk, 300)

        callers = [threading.Thread(target=call, args=(c,)) for c in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    for caller in range(6):
        assert sorted(runs[caller]) == list(range(300))
        assert results[caller] == [-chunk for chunk in range(300)]


@pytest.mark.parametrize("threads", [1, 3])
def test_the_lowest_failing_chunk_is_raised(pool_of, threads):
    pool_of(threads)
    ran = []

    def fail_some(chunk):
        ran.append(chunk)
        if chunk in (7, 3, 12):
            raise ValueError(f"chunk {chunk}")

    with pytest.raises(ValueError, match="^chunk 3$"):
        parallel.map_chunks(fail_some, 16)
    # with helpers every chunk has run; without, the chunks after it have not
    assert sorted(ran) == (list(range(16)) if threads > 1 else [0, 1, 2, 3])


def test_an_interrupt_in_the_callers_chunk_is_raised_at_once(pool_of):
    class Interrupt(BaseException):
        pass

    pool_of(2)
    caller = threading.get_ident()

    def interrupted(chunk):
        if threading.get_ident() == caller:
            raise Interrupt

    with pytest.raises(Interrupt):
        parallel.map_chunks(interrupted, 4)
    assert parallel.map_chunks(lambda chunk: chunk, 4) == [0, 1, 2, 3]
