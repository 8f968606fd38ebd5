"""Fault injection, the tile-read error policy and graceful degradation.

Three layers (see ``docs/API.md`` -- "Failure handling"):

1. :class:`FaultPlan` -- deterministic, seedable injection of missing /
   corrupt / transient-I/O / slow / hanging tile reads and of damaged
   pixels, all through the one surface phase 1 touches the filesystem
   with: ``TileDataset.load``;
2. :class:`~repro.core.kernel.ErrorPolicy` -- retry with exponential
   backoff and an abort/skip disposition for a failing tile read (lives
   next to its one consumer, :meth:`repro.core.kernel.Phase1Kernel.
   try_read`; re-exported here for convenience);
3. :class:`FaultReport` -- the structured record of what was retried,
   skipped and degraded, attached to ``StitchResult.stats``.
"""

from repro.core.kernel import ErrorPolicy
from repro.faults.plan import (
    Fault,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyDataset,
    parse_fault_spec,
)
from repro.faults.report import FaultReport

__all__ = [
    "Fault",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultyDataset",
    "FaultReport",
    "ErrorPolicy",
    "parse_fault_spec",
]
