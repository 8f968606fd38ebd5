"""Monitor queues: FIFO, bounding, close semantics, concurrency."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.queues import MonitorQueue, QueueClosed


class TestBasics:
    def test_fifo_order(self):
        q = MonitorQueue()
        for i in range(10):
            q.put(i)
        assert [q.get() for _ in range(10)] == list(range(10))

    def test_len(self):
        q = MonitorQueue()
        q.put("a")
        q.put("b")
        assert len(q) == 2
        q.get()
        assert len(q) == 1

    def test_bounded_put_blocks_until_get(self):
        q = MonitorQueue(maxsize=1)
        q.put(1)
        done = threading.Event()

        def producer():
            q.put(2)
            done.set()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not done.is_set()  # blocked while full
        assert q.get() == 1
        t.join(timeout=2)
        assert done.is_set()

    def test_telemetry(self):
        q = MonitorQueue(maxsize=4, name="telemetry")
        for i in range(3):
            q.put(i)
        q.get()
        q.put(99)
        assert q.total_put == 4
        assert q.total_get == 1


class TestClose:
    def test_put_after_close_raises(self):
        q = MonitorQueue()
        q.close()
        with pytest.raises(QueueClosed):
            q.put(1)

    def test_get_drains_then_raises(self):
        q = MonitorQueue()
        q.put(1)
        q.put(2)
        q.close()
        assert q.get() == 1
        assert q.get() == 2
        with pytest.raises(QueueClosed):
            q.get()

    def test_close_unblocks_waiting_consumers(self):
        q = MonitorQueue()
        results = []

        def consumer():
            try:
                q.get()
            except QueueClosed:
                results.append("closed")

        threads = [threading.Thread(target=consumer, daemon=True) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        q.close()
        for t in threads:
            t.join(timeout=2)
        assert results == ["closed"] * 3

    def test_close_unblocks_waiting_producer(self):
        q = MonitorQueue(maxsize=1)
        q.put(1)
        result = []

        def producer():
            try:
                q.put(2)
            except QueueClosed:
                result.append("closed")

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=2)
        assert result == ["closed"]

    def test_close_idempotent(self):
        q = MonitorQueue()
        q.close()
        q.close()
        assert q.closed


class TestConcurrency:
    @settings(max_examples=5, deadline=None)
    @given(
        n_producers=st.integers(1, 4),
        n_consumers=st.integers(1, 4),
        items_each=st.integers(1, 50),
        maxsize=st.sampled_from([0, 1, 3, 16]),
    )
    def test_no_loss_no_duplication(self, n_producers, n_consumers, items_each, maxsize):
        """Every produced item is consumed exactly once under contention."""
        q = MonitorQueue(maxsize=maxsize)
        consumed: list = []
        lock = threading.Lock()

        def producer(pid):
            for i in range(items_each):
                q.put((pid, i))

        def consumer():
            while True:
                try:
                    item = q.get()
                except QueueClosed:
                    return
                with lock:
                    consumed.append(item)

        producers = [threading.Thread(target=producer, args=(p,)) for p in range(n_producers)]
        consumers = [threading.Thread(target=consumer) for _ in range(n_consumers)]
        for t in producers + consumers:
            t.start()
        for t in producers:
            t.join()
        q.close()
        for t in consumers:
            t.join()
        expected = {(p, i) for p in range(n_producers) for i in range(items_each)}
        assert set(consumed) == expected
        assert len(consumed) == len(expected)

    def test_per_producer_order_preserved(self):
        q = MonitorQueue(maxsize=2)
        out = []

        def producer():
            for i in range(100):
                q.put(i)

        def consumer():
            while True:
                try:
                    out.append(q.get())
                except QueueClosed:
                    return

        tp = threading.Thread(target=producer)
        tc = threading.Thread(target=consumer)
        tp.start(); tc.start()
        tp.join(); q.close(); tc.join()
        assert out == list(range(100))

