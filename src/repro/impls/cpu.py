"""Table II's three CPU rows, as presets of one schedule (Section IV).

The paper builds MT-CPU from Simple-CPU by spatial domain decomposition
("a thread-variant of the SPMD approach") and Pipelined-CPU by
overlapping Simple-CPU's reader and forward transforms with the
displacement computation -- "one execution pipeline per CPU socket" in
its per-socket variant.  Here each is
:func:`~repro.core.displacement.partitioned_displacements` with its two
parameters set: ``SimpleCpu`` one partition, ``MtCpu`` one per worker,
``PipelinedCpu`` ``partitions`` (1) with the stages forced to overlap
(the others leave that to the input on one partition and run two or
more inline).  So ``MtCpu(workers=1)`` *is*
Simple-CPU, and every preset reads each tile once and honours a
``watchdog``.
"""

from __future__ import annotations

from functools import partial

from repro.core.displacement import DisplacementResult, partitioned_displacements
from repro.grid.traversal import Traversal
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset


class SimpleCpu(Implementation):
    """Sequential CPU implementation (10.6 min on the paper's machine)."""

    name = "simple-cpu"
    partitions = 1
    #: ``None``: :func:`~repro.core.displacement._overlap_pays` decides on
    #: one partition; two or more run inline.
    overlap: bool | None = None

    def __init__(self, traversal: Traversal = Traversal.CHAINED_DIAGONAL, **kw) -> None:
        super().__init__(**kw)
        self.traversal = traversal

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        # Native dtype: the kernel converts each tile to float64 once.
        disp = partitioned_displacements(
            partial(dataset.load, dtype=None), dataset.rows, dataset.cols,
            self.kernel, partitions=self.partitions, overlap=self.overlap,
            traversal=self.traversal, watchdog=self.watchdog, name=self.name,
        )
        return disp, dict(disp.stats)


class MtCpu(SimpleCpu):
    """SPMD over column partitions, one per worker thread (best: 96 s at
    16 threads on the paper's machine)."""

    name = "mt-cpu"

    def __init__(self, workers: int = 4,
                 traversal: Traversal = Traversal.CHAINED_DIAGONAL,
                 **kw) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        super().__init__(traversal, **kw)
        self.partitions = workers


class PipelinedCpu(SimpleCpu):
    """Overlapped read + FFT / displacement pipelines, one per column
    partition (1.4 min at 16 threads on the paper's machine).  A failure
    surfaces as the other presets' does: the exception the schedule
    raised."""

    name = "pipelined-cpu"
    overlap = True

    def __init__(self, partitions: int = 1,
                 traversal: Traversal = Traversal.CHAINED_DIAGONAL,
                 **kw) -> None:
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        super().__init__(traversal, **kw)
        self.partitions = partitions
