"""Memory-management substrate.

Two pieces the paper's scaling story rests on:

- :mod:`repro.memmodel.pool` -- fixed-size buffer pools with blocking
  acquire (the GPU transform pool of Section IV.B, also reused host-side);
- :mod:`repro.memmodel.vm` -- a virtual-memory cost model reproducing the
  Fig. 5 performance cliff when the working set exceeds physical RAM.

The policy that decides when a pool buffer is recycled -- the per-tile
reference count of Sections IV.A/IV.B -- knows only grid pairs and lives
in :mod:`repro.grid.ledger`.
"""

from repro.memmodel.pool import BufferPool, PoolExhausted
from repro.memmodel.vm import VirtualMemoryModel

__all__ = ["BufferPool", "PoolExhausted", "VirtualMemoryModel"]
