"""Common interface and result type for the Table II schedulers."""

from __future__ import annotations

import abc
import threading
import time
from dataclasses import dataclass, field

from repro.core.displacement import DisplacementResult
from repro.core.kernel import Phase1Kernel
from repro.core.pciam import CcfMode
from repro.fftlib.plans import PlanCache
from repro.io.dataset import TileDataset


@dataclass
class RunResult:
    """Phase-1 output plus instrumentation from one implementation run."""

    implementation: str
    displacements: DisplacementResult
    wall_seconds: float
    stats: dict = field(default_factory=dict)


def fold_stats(stats: dict, local: dict, lock: threading.Lock) -> None:
    """Add a worker's ``local`` counters into the shared ``stats``."""
    with lock:
        for key, value in local.items():
            stats[key] = stats.get(key, 0) + value


class Implementation(abc.ABC):
    """A phase-1 (relative displacement) scheduler.

    Subclasses implement :meth:`_run` -- traversal, bands, queues, pools,
    virtual-GPU placement -- on top of ``self.kernel``, the
    :class:`~repro.core.kernel.Phase1Kernel` that owns everything computed
    per tile and per pair (reads under the error policy, products,
    journal, registration, accounting).  The public :meth:`run` adds
    timing and completeness checking.

    Construct with a ready ``kernel`` (what
    :class:`~repro.core.stitcher.Stitcher` does), or with the kernel's
    options as keyword arguments; standalone the defaults are the robust
    ``EXTENDED`` contest over two peaks and a private plan cache.

    ``watchdog`` is a :class:`~repro.recovery.watchdog.WatchdogConfig` the
    pipelined schedulers hand to their
    :class:`~repro.pipeline.graph.Pipeline` for stall supervision (the
    others ignore it -- a single thread cannot be supervised cooperatively
    by itself; ``Stitcher`` rejects the combination).

    Under a skip policy a scheduler treats a ``None`` tile from
    ``kernel.read`` as failed and skips its pairs; :meth:`run` then
    accepts the resulting incomplete grid.
    """

    name: str = "base"

    def __init__(self, kernel: Phase1Kernel | None = None, watchdog=None,
                 **kernel_options) -> None:
        if kernel is None:
            kernel_options.setdefault("ccf_mode", CcfMode.EXTENDED)
            kernel_options.setdefault("n_peaks", 2)
            if kernel_options.get("cache") is None:
                kernel_options["cache"] = PlanCache()
            kernel = Phase1Kernel(**kernel_options)
        elif kernel_options:
            raise TypeError("pass a kernel or kernel options, not both")
        self.kernel = kernel
        self.watchdog = watchdog

    @abc.abstractmethod
    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        """Compute all pairwise displacements; return (result, stats)."""

    def run(self, dataset: TileDataset) -> RunResult:
        kernel = self.kernel
        t0 = time.perf_counter()
        with kernel.tracer.span(f"phase1:{self.name}", "phase1"):
            disp, stats = self._run(dataset)
        wall = time.perf_counter() - t0
        if kernel.metrics is not None:
            kernel.metrics.histogram(
                f"impl.{self.name}.wall_seconds"
            ).observe(wall)
        if not disp.is_complete():
            if not kernel.skips:
                raise RuntimeError(
                    f"{self.name}: incomplete phase 1 "
                    f"({disp.pair_count()} of {2*disp.rows*disp.cols - disp.rows - disp.cols} pairs)"
                )
            stats = dict(stats)
            stats["skipped_pairs"] = len(disp.missing_pairs())
            if kernel.fault_report is not None:
                stats["fault_report"] = kernel.fault_report
        if kernel.journal is not None:
            stats = dict(stats)
            stats["journal"] = kernel.journal.summary()
        return RunResult(
            implementation=self.name,
            displacements=disp,
            wall_seconds=wall,
            stats=stats,
        )
