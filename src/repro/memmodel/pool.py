"""Buffer pools: fixed-size with blocking acquire, and a growable free list.

The paper (Section IV.B): "The system allocates GPU memory only once ...
The pool consists of a fixed number of buffers, one per transform ...  The
size of the pool effectively limits the number of images in flight."

``acquire`` blocks until a buffer is recycled, which is how the pool
throttles the stage that fills it: with the chained-diagonal traversal a
pipeline keeps making progress as long as the pool exceeds the grid's
smallest dimension (tested in ``tests/memmodel``).

The host side needs no throttle -- the traversal and the pair ledger
already bound the tiles in flight -- only the recycling:
:class:`PlaneFreeList` hands back returned arrays and allocates when none
is free.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque

import numpy as np


class PoolExhausted(Exception):
    """Raised by non-blocking acquire on an empty pool."""


class BufferPool:
    """A fixed set of equally-shaped NumPy buffers.

    Buffers are identified by index; ``acquire`` hands out an index (and
    the backing array), ``release`` returns it.  The pool never allocates
    after construction -- exactly the paper's one-time-allocation rule.
    """

    def __init__(self, count: int, shape: tuple[int, ...], dtype=np.complex128):
        if count < 1:
            raise ValueError(f"pool needs at least one buffer, got {count}")
        self.count = count
        self.shape = tuple(shape)
        self._buffers = [np.empty(self.shape, dtype=dtype) for _ in range(count)]
        self._free: deque[int] = deque(range(count))
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self.peak_in_use = 0
        self.total_acquires = 0

    @property
    def free_count(self) -> int:
        with self._lock:
            return len(self._free)

    @property
    def in_use(self) -> int:
        return self.count - self.free_count

    def acquire(self, blocking: bool = True, timeout: float | None = None) -> int:
        """Take a buffer index; blocks (or raises :class:`PoolExhausted`)."""
        with self._available:
            while not self._free:
                if not blocking:
                    raise PoolExhausted(f"all {self.count} buffers in use")
                if not self._available.wait(timeout):
                    raise TimeoutError(
                        f"pool exhausted for {timeout}s ({self.count} buffers); "
                        f"likely pool too small for the traversal wavefront"
                    )
            idx = self._free.popleft()
            self.total_acquires += 1
            used = self.count - len(self._free)
            self.peak_in_use = max(self.peak_in_use, used)
            return idx

    def release(self, idx: int) -> None:
        if not 0 <= idx < self.count:
            raise ValueError(f"buffer index {idx} outside pool of {self.count}")
        with self._available:
            if idx in self._free:
                raise ValueError(f"double release of buffer {idx}")
            self._free.append(idx)
            self._available.notify()

    def array(self, idx: int) -> np.ndarray:
        """The backing array for an acquired index."""
        if not 0 <= idx < self.count:
            raise ValueError(f"buffer index {idx} outside pool of {self.count}")
        return self._buffers[idx]


class PlaneFreeList:
    """Float64 planes recycled by shape: no fixed count, never blocks.

    :meth:`take` pops a returned plane of the requested shape or allocates
    a new one (counted in :attr:`allocated`); :meth:`give` returns one.
    The list holds at most the planes that were ever live at once, and
    frees them when it goes.  Both calls are single list operations, so
    threads share one list without a lock on the hot path.
    """

    _shared: "weakref.ref[PlaneFreeList] | None" = None
    _shared_lock = threading.Lock()

    @classmethod
    def shared(cls) -> "PlaneFreeList":
        """One list for every caller that still holds it, and a fresh
        one once none does: its planes live as long as the last holder."""
        with cls._shared_lock:
            planes = cls._shared() if cls._shared is not None else None
            if planes is None:
                planes = cls()
                cls._shared = weakref.ref(planes)
            return planes

    def __init__(self) -> None:
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._lock = threading.Lock()
        #: Planes this list ever allocated.
        self.allocated = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 plane of ``shape`` with undefined contents."""
        try:
            return self._free[shape].pop()
        except (KeyError, IndexError):
            pass
        with self._lock:
            self.allocated += 1
        return np.empty(shape, dtype=np.float64)

    def give(self, plane: np.ndarray) -> None:
        """Return ``plane``; the caller must hold no view of it."""
        self._free.setdefault(plane.shape, []).append(plane)
