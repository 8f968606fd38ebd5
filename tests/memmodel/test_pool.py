"""Buffer pool: fixed allocation, blocking acquire, misuse detection."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.memmodel.pool import BufferPool, PlaneFreeList, PoolExhausted


class TestBufferPool:
    def test_acquire_release_cycle(self):
        pool = BufferPool(2, (4, 4))
        a = pool.acquire()
        b = pool.acquire()
        assert {a, b} == {0, 1}
        assert pool.free_count == 0
        pool.release(a)
        assert pool.free_count == 1

    def test_arrays_are_distinct_and_stable(self):
        pool = BufferPool(3, (8, 8))
        arrays = [pool.array(i) for i in range(3)]
        arrays[0][...] = 7
        assert arrays[1].sum() != arrays[0].sum() or not np.shares_memory(arrays[0], arrays[1])
        assert pool.array(0) is arrays[0]

    def test_nonblocking_exhaustion(self):
        pool = BufferPool(1, (2, 2))
        pool.acquire()
        with pytest.raises(PoolExhausted):
            pool.acquire(blocking=False)

    def test_blocking_acquire_waits_for_release(self):
        pool = BufferPool(1, (2, 2))
        idx = pool.acquire()
        got = []

        def waiter():
            got.append(pool.acquire())

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not got
        pool.release(idx)
        t.join(timeout=2)
        assert got == [idx]

    def test_acquire_timeout(self):
        pool = BufferPool(1, (2, 2))
        pool.acquire()
        with pytest.raises(TimeoutError, match="pool exhausted"):
            pool.acquire(timeout=0.05)

    def test_double_release_rejected(self):
        pool = BufferPool(2, (2, 2))
        idx = pool.acquire()
        pool.release(idx)
        with pytest.raises(ValueError, match="double release"):
            pool.release(idx)

    def test_bad_index_rejected(self):
        pool = BufferPool(2, (2, 2))
        with pytest.raises(ValueError):
            pool.release(5)
        with pytest.raises(ValueError):
            pool.array(-1)

    def test_telemetry(self):
        pool = BufferPool(4, (2, 2))
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        pool.acquire()
        assert pool.peak_in_use == 2
        assert pool.total_acquires == 3

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(0, (2, 2))

    def test_never_allocates_after_init(self):
        """The paper's one-time-allocation rule: the backing arrays are
        identity-stable across acquire/release cycles."""
        pool = BufferPool(2, (4, 4))
        before = {i: id(pool.array(i)) for i in range(2)}
        for _ in range(10):
            i = pool.acquire()
            pool.release(i)
        after = {i: id(pool.array(i)) for i in range(2)}
        assert before == after


def test_plane_free_list_never_hands_one_plane_to_two_threads():
    """Threads take, stamp, yield and give back planes: no plane is held
    by two at once, none is lost, and the list never grows past the
    number of threads."""
    planes = PlaneFreeList()
    n_threads, rounds = 8, 200
    clashes = []

    def worker(k):
        for _ in range(rounds):
            plane = planes.take((4, 4))
            plane.fill(k)
            time.sleep(0)
            if not (plane == k).all():
                clashes.append(k)
            planes.give(plane)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(k,))
                for k in range(n_threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
    assert clashes == []
    free = planes._free[(4, 4)]
    assert 1 <= planes.allocated <= n_threads
    assert len(free) == planes.allocated
    assert len({id(p) for p in free}) == len(free)
