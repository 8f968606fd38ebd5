"""Shared-memory arena: zero-copy ndarray slabs for process workers.

The process-parallel backend (:mod:`repro.impls.proc_cpu`, striped
composition in :mod:`repro.core.compose`) moves tiles, forward spectra
and the output canvas between workers without serializing a single
pixel.  The mechanism is a
family of named ``multiprocessing.shared_memory`` segments, each wrapped
as a :class:`SharedTileSlab` -- a fixed stack of same-shape ndarray slots
that any process can view in place.

Lifecycle rules (the part POSIX shared memory makes easy to get wrong):

- exactly **one** process -- the creator -- owns each segment's name and
  is responsible for ``unlink``;
- attaching processes *deregister* the segment from their
  ``resource_tracker`` so a worker's exit can never unlink a segment the
  parent is still using (CPython registers every attach by default,
  which makes the first worker to exit destroy the arena);
- the creating :class:`ShmArena` unlinks everything on ``close()``, on
  interpreter exit (``atexit``), and -- because the segments are also
  registered with the *creator's* resource tracker -- even after SIGKILL,
  when the tracker process notices the dead parent and sweeps the leak;
- :func:`leaked_segments` / :func:`cleanup_stale` scan ``/dev/shm`` by
  name prefix so tests (and paranoid callers) can assert nothing
  survived a crash.
"""

from __future__ import annotations

import atexit
import os
import secrets
import sys
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

#: Every arena segment name starts with this, so stale segments are
#: recognizable in /dev/shm no matter which run leaked them.
SHM_NAME_PREFIX = "repro-shm"

_DEV_SHM = Path("/dev/shm")


def _unregister(name: str) -> None:
    """Drop a segment from this process's resource tracker (attach side)."""
    try:  # pragma: no cover - tracker internals vary across minor versions
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


class SharedTileSlab:
    """A named shared-memory stack of ``slots`` same-shape ndarrays.

    The slab's backing array has shape ``(slots, *item_shape)``; workers
    address individual items with :meth:`slot`, which returns a zero-copy
    view.  Create in the parent (``create=True``), attach in workers from
    the :meth:`spec` triple.
    """

    def __init__(
        self,
        name: str,
        slots: int,
        item_shape: tuple[int, ...],
        dtype,
        create: bool = False,
    ) -> None:
        self.name = name
        self.slots = int(slots)
        self.item_shape = tuple(int(n) for n in item_shape)
        self.dtype = np.dtype(dtype)
        self.shape = (self.slots, *self.item_shape)
        nbytes = int(np.prod(self.shape)) * self.dtype.itemsize
        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=max(1, nbytes)
        )
        self._owner = create
        if not create:
            # The parent owns the name; this process must never unlink it.
            _unregister(self._shm.name.lstrip("/"))
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    @classmethod
    def attach(cls, spec: tuple) -> "SharedTileSlab":
        """Open an existing slab from a :meth:`spec` tuple (worker side)."""
        name, slots, item_shape, dtype_str = spec
        return cls(name, slots, tuple(item_shape), np.dtype(dtype_str), create=False)

    def spec(self) -> tuple:
        """Picklable identity a worker needs to :meth:`attach`."""
        return (self.name, self.slots, self.item_shape, self.dtype.str)

    def slot(self, i: int) -> np.ndarray:
        """Zero-copy view of item ``i``."""
        return self.array[i]

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def close(self) -> None:
        """Release this process's mapping (does not destroy the segment)."""
        # Views into the buffer must be dropped before SharedMemory.close()
        # on CPython (exported pointers keep the mmap alive).
        self.array = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray views; leak the map
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        self._owner = False


class ShmArena:
    """Owns a family of slabs under one run-unique name prefix.

    The arena is the single cleanup point: ``close()`` (or the context
    manager, or the ``atexit`` hook) closes and unlinks every slab it
    created.  Workers never construct an arena -- they attach individual
    slabs from the ``spec()`` mapping the parent ships them.
    """

    def __init__(self, prefix: str | None = None) -> None:
        if prefix is None:
            prefix = f"{SHM_NAME_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self.prefix = prefix
        self._slabs: dict[str, SharedTileSlab] = {}
        self._closed = False
        atexit.register(self._atexit_close)

    def slab(self, key: str, slots: int, item_shape: tuple[int, ...],
             dtype) -> SharedTileSlab:
        """Create (or return the existing) slab named ``key``."""
        if self._closed:
            raise RuntimeError("arena is closed")
        if key in self._slabs:
            return self._slabs[key]
        slab = SharedTileSlab(
            f"{self.prefix}-{key}", slots, item_shape, dtype, create=True
        )
        self._slabs[key] = slab
        return slab

    def spec(self) -> dict[str, tuple]:
        """Picklable ``{key: slab spec}`` mapping for worker attachment."""
        return {k: s.spec() for k, s in self._slabs.items()}

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self._slabs.values())

    def close(self) -> None:
        """Close mappings and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slab in self._slabs.values():
            slab.close()
            slab.unlink()
        self._slabs.clear()
        atexit.unregister(self._atexit_close)

    def _atexit_close(self) -> None:  # pragma: no cover - interpreter exit
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def leaked_segments(prefix: str = SHM_NAME_PREFIX) -> list[str]:
    """Names of live ``/dev/shm`` segments starting with ``prefix``.

    Used by the lifecycle tests to assert an arena left nothing behind
    (normal exit, worker crash, or SIGKILL-with-tracker-sweep).  Returns
    ``[]`` on platforms without a /dev/shm view.
    """
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in _DEV_SHM.iterdir() if p.name.startswith(prefix))


def cleanup_stale(prefix: str) -> list[str]:
    """Unlink every ``/dev/shm`` segment under ``prefix``; returns names.

    Defensive sweep for the rare case where both the creator *and* its
    resource tracker died uncleanly (e.g. SIGKILL of the whole process
    group).  Safe to call with a run-unique prefix only -- sweeping the
    bare :data:`SHM_NAME_PREFIX` would destroy concurrent runs' arenas.
    """
    removed = []
    for name in leaked_segments(prefix):
        try:
            seg = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:  # pragma: no cover - raced with tracker
            continue
        _unregister(name)
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - raced with tracker
            pass
        removed.append(name)
    return removed


__all__ = [
    "SHM_NAME_PREFIX",
    "SharedTileSlab",
    "ShmArena",
    "leaked_segments",
    "cleanup_stale",
]
