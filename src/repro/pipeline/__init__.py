"""General-purpose producer/consumer pipeline framework.

The paper's Section VI.A promises "a general purpose API for the pipeline,
so it can be applied to other problems" -- the idea that later became the
NIST HTGS framework.  This package is that API: it knows nothing about
image stitching.

A :class:`~repro.pipeline.graph.Pipeline` is a set of
:class:`~repro.pipeline.stage.Stage` objects connected by bounded
monitor queues (:class:`~repro.pipeline.queues.MonitorQueue`).  Each stage
runs one or more worker threads that consume items from the stage's input
queue, invoke a user handler, and emit results downstream.  Lifecycle
(start, poison-pill shutdown, exception propagation) is handled by the
framework, matching the structure of the paper's Fig. 8.  The failure
types a run raises live beside the watchdog, in
:mod:`repro.recovery.watchdog`.
"""

from repro.pipeline.queues import MonitorQueue, QueueClosed
from repro.pipeline.stage import Stage, StageContext, END_OF_STREAM
from repro.pipeline.graph import Pipeline
from repro.grid.ledger import PairBookkeeper

__all__ = [
    "MonitorQueue",
    "QueueClosed",
    "Stage",
    "StageContext",
    "END_OF_STREAM",
    "Pipeline",
    "PairBookkeeper",
]
