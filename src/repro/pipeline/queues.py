"""Bounded monitor queues for inter-stage communication.

The paper: "These queues have monitor implementations to prevent race
conditions."  A monitor queue is a FIFO guarded by one mutex and two
condition variables (not-empty / not-full).  Bounding matters: an unbounded
queue between a fast reader and a slow FFT stage would buffer the whole
grid in memory, which is exactly the failure mode Fig. 5 demonstrates.

This is implemented from scratch (rather than reusing :mod:`queue`) because
the pipeline needs *closeable* queues with poison-free end-of-stream
semantics: a closed queue unblocks every consumer once drained, and
rejects further puts.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any


class QueueClosed(Exception):
    """Raised by :meth:`MonitorQueue.put` / ``get`` on a closed queue."""


class MonitorQueue:
    """Bounded FIFO with monitor (mutex + condition variable) semantics.

    ``maxsize <= 0`` means unbounded.  After :meth:`close`, ``put`` raises
    :class:`QueueClosed` immediately and ``get`` drains remaining items,
    then raises :class:`QueueClosed` for every waiter.
    """

    def __init__(self, maxsize: int = 0, name: str = "") -> None:
        self._items: deque = deque()
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.name = name
        # Total traffic: the watchdog's progress signal.
        self.total_put = 0
        self.total_get = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def depth(self) -> int:
        """Current item count, read without the lock.

        ``len(deque)`` is GIL-atomic; the watchdog polls this from outside
        the pipeline and must never contend with (or wait behind) blocked
        producers holding the monitor lock.
        """
        return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, item: Any) -> None:
        """Append ``item``; blocks while full.  Raises on closed queue."""
        with self._not_full:
            if self._closed:
                raise QueueClosed(self.name)
            while self._maxsize > 0 and len(self._items) >= self._maxsize:
                self._not_full.wait()
                if self._closed:
                    raise QueueClosed(self.name)
            self._items.append(item)
            self.total_put += 1
            self._not_empty.notify()

    def get(self) -> Any:
        """Pop the oldest item; blocks while empty.

        Raises :class:`QueueClosed` once the queue is closed *and* drained.
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    raise QueueClosed(self.name)
                self._not_empty.wait()
            item = self._items.popleft()
            self.total_get += 1
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Mark end-of-stream; idempotent.  Wakes all blocked threads."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
