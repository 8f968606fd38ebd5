"""Monitor-queue stress: N producers x M consumers under contention.

The pipeline's correctness rests on the queue's monitor semantics; these
tests hammer one queue from many threads with randomized timing jitter
and assert the invariants that matter to the stitcher: nothing lost,
nothing duplicated, per-producer FIFO, truthful telemetry, and a
``close()`` that wakes every blocked thread promptly.
"""

import random
import threading

import pytest

from repro.pipeline.queues import MonitorQueue, QueueClosed

JOIN_TIMEOUT = 20.0


def _run_stress(n_producers, n_consumers, items_each, maxsize, seed):
    q = MonitorQueue(maxsize=maxsize, name="stress")
    per_consumer = [[] for _ in range(n_consumers)]
    errors = []

    def producer(pid):
        rng = random.Random(f"{seed}-p{pid}")
        try:
            for i in range(items_each):
                q.put((pid, i))
                if rng.random() < 0.05:
                    threading.Event().wait(rng.random() * 0.001)
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    def consumer(cid):
        rng = random.Random(f"{seed}-c{cid}")
        out = per_consumer[cid]
        while True:
            try:
                out.append(q.get())
            except QueueClosed:
                return
            if rng.random() < 0.05:
                threading.Event().wait(rng.random() * 0.001)

    producers = [
        threading.Thread(target=producer, args=(p,)) for p in range(n_producers)
    ]
    consumers = [
        threading.Thread(target=consumer, args=(c,)) for c in range(n_consumers)
    ]
    for t in producers + consumers:
        t.start()
    for t in producers:
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive(), "producer failed to finish (lost wakeup?)"
    q.close()
    for t in consumers:
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive(), "consumer failed to drain after close()"
    assert not errors, errors
    return q, per_consumer


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "n_producers,n_consumers,maxsize",
    [(1, 1, 2), (4, 1, 3), (1, 4, 3), (4, 4, 2), (8, 3, 5)],
)
def test_no_loss_no_duplication(n_producers, n_consumers, maxsize, seed):
    items_each = 200
    q, per_consumer = _run_stress(
        n_producers, n_consumers, items_each, maxsize, seed
    )
    consumed = [item for out in per_consumer for item in out]
    expected = {(p, i) for p in range(n_producers) for i in range(items_each)}
    assert len(consumed) == len(expected), "items lost or duplicated"
    assert set(consumed) == expected


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("n_producers,n_consumers", [(4, 1), (4, 4)])
def test_fifo_per_producer(n_producers, n_consumers, seed):
    """Each consumer sees any one producer's items in send order.

    The queue dequeues in global FIFO order and every consumer's gets are
    a subsequence of that order, so within a single consumer's stream the
    per-producer sequence numbers must be strictly increasing.
    """
    _, per_consumer = _run_stress(n_producers, n_consumers, 300, 4, seed)
    for out in per_consumer:
        last = {}
        for pid, i in out:
            assert i > last.get(pid, -1), (
                f"producer {pid} item {i} out of order after {last.get(pid)}"
            )
            last[pid] = i


@pytest.mark.parametrize("seed", [5, 6])
def test_telemetry_exact_under_contention(seed):
    n_producers, n_consumers, items_each, maxsize = 4, 4, 250, 3
    q, _ = _run_stress(n_producers, n_consumers, items_each, maxsize, seed)
    total = n_producers * items_each
    assert q.total_put == total
    assert q.total_get == total
    assert len(q) == 0


def test_close_wakes_every_blocked_producer_and_consumer():
    full = MonitorQueue(maxsize=1, name="full")
    full.put("plug")
    empty = MonitorQueue(name="empty")
    raised = []
    lock = threading.Lock()

    def blocked_put():
        try:
            full.put("never fits")
        except QueueClosed:
            with lock:
                raised.append("put")

    def blocked_get():
        try:
            empty.get()
        except QueueClosed:
            with lock:
                raised.append("get")

    threads = [threading.Thread(target=blocked_put) for _ in range(3)]
    threads += [threading.Thread(target=blocked_get) for _ in range(3)]
    for t in threads:
        t.start()
    # Let them all reach their condition wait, then close.
    threading.Event().wait(0.1)
    full.close()
    empty.close()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive(), "close() left a thread blocked"
    assert sorted(raised) == ["get"] * 3 + ["put"] * 3


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_abort_storm_close_while_puts_blocked(seed):
    """Watchdog-abort teardown: close() fired from a third thread while
    producers are blocked mid-``put`` on a full queue and consumers have
    stopped draining.  Nobody deadlocks, every producer sees
    :class:`QueueClosed`, and telemetry stays consistent.
    """
    rng = random.Random(seed)
    q = MonitorQueue(maxsize=2, name="abort-storm")
    n_producers = 6
    outcomes = []
    lock = threading.Lock()

    def producer(pid):
        sent = 0
        try:
            for i in range(100):
                q.put((pid, i))
                sent += 1
        except QueueClosed:
            pass
        with lock:
            outcomes.append(sent)

    consumed = []

    def lazy_consumer():
        # Drains a few items then wedges (a stalled downstream stage),
        # guaranteeing producers are parked in put() when close() lands.
        for _ in range(rng.randint(0, 4)):
            try:
                consumed.append(q.get())
            except QueueClosed:
                return

    producers = [
        threading.Thread(target=producer, args=(p,)) for p in range(n_producers)
    ]
    consumer = threading.Thread(target=lazy_consumer)
    for t in [*producers, consumer]:
        t.start()
    threading.Event().wait(0.05 + rng.random() * 0.05)
    assert q.depth() == len(q)  # lock-free depth agrees while contended
    q.close()  # the watchdog's abort path
    for t in [*producers, consumer]:
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive(), "abort-close left a thread blocked in put()"
    assert len(outcomes) == n_producers
    # Whatever was accepted is accounted for: consumed + still queued.
    assert q.total_put == sum(outcomes)
    assert q.total_get == len(consumed)
    assert q.total_put - q.total_get == q.depth()


def test_depth_is_lock_free_and_truthful():
    q = MonitorQueue(maxsize=0, name="depth")
    assert q.depth() == 0
    for i in range(5):
        q.put(i)
    assert q.depth() == 5 == len(q)
    q.get()
    assert q.depth() == 4
