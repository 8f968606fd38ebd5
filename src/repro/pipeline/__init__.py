"""The producer/consumer graph of the paper's Fig. 8.

The paper's Section VI.A promises "a general purpose API for the pipeline,
so it can be applied to other problems" -- the idea that later became the
NIST HTGS framework.  This package keeps only what Pipelined-GPU's
six-stage graph uses of that idea: it knows nothing about image stitching.

A :class:`~repro.pipeline.graph.Pipeline` is a set of
:class:`~repro.pipeline.stage.Stage` objects connected by bounded
monitor queues (:class:`~repro.pipeline.queues.MonitorQueue`).  Each stage
runs one or more worker threads that consume items from the stage's input
queue, invoke its handler, and forward the result downstream.  Lifecycle
(start, close-driven shutdown, exception propagation) is handled by the
package.  The failure types a run raises live beside the watchdog, in
:mod:`repro.recovery.watchdog`.
"""

from repro.pipeline.queues import MonitorQueue, QueueClosed
from repro.pipeline.stage import Stage, END_OF_STREAM
from repro.pipeline.graph import Pipeline

__all__ = [
    "MonitorQueue",
    "QueueClosed",
    "Stage",
    "END_OF_STREAM",
    "Pipeline",
]
