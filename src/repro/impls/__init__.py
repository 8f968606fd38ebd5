"""The phase-1 schedulers compared in the paper's Table II.

All of them run the *same* kernel (:class:`repro.core.kernel.Phase1Kernel`:
reads under the error policy, per-tile products, journal, pair
registration) and so compute the same west/north translation arrays;
they differ only in architecture -- order, placement, buffering -- which
is the paper's entire point:

========================  ====================================================
``FijiBaseline``          the ImageJ/Fiji plugin architecture: same operators,
                          no transform caching, per-pair allocation
``SimpleCpu``             sequential reference with early-free traversal
``MtCpu``                 Simple-CPU over column partitions on worker threads
``PipelinedCpu``          Simple-CPU's read + FFT overlapped with the pairs,
                          one such pipeline per column partition (socket)
                          (the three CPU rows are presets of one schedule,
                          ``impls/cpu.py``: every tile read once, every
                          one supervised by a ``watchdog``)
``SimpleGpu``             synchronous single-stream port onto the virtual GPU
``PipelinedGpu``          the 6-stage per-GPU pipeline of Fig. 8
========================  ====================================================

Select one for a whole stitch with ``Stitcher(impl=NAME, impl_options=...)``
(``repro stitch --impl NAME``); the classes here are what it builds, and
what the architecture tests and Table II benchmarks drive directly.

Every scheduler is instrumented (op counts, memory high-water marks,
queue depths) so tests can verify the *architectural* claims -- transform
reuse, single-allocation pools, O(1) D2H traffic -- not just the outputs.
"""

from repro.impls.base import Implementation, RunResult
from repro.impls.cpu import MtCpu, PipelinedCpu, SimpleCpu
from repro.impls.fiji_baseline import FijiBaseline
from repro.impls.simple_gpu import SimpleGpu
from repro.impls.pipelined_gpu import PipelinedGpu

ALL_IMPLEMENTATIONS = {
    "fiji-baseline": FijiBaseline,
    "simple-cpu": SimpleCpu,
    "mt-cpu": MtCpu,
    "pipelined-cpu": PipelinedCpu,
    "simple-gpu": SimpleGpu,
    "pipelined-gpu": PipelinedGpu,
}

__all__ = [
    "Implementation",
    "RunResult",
    "FijiBaseline",
    "SimpleCpu",
    "MtCpu",
    "PipelinedCpu",
    "SimpleGpu",
    "PipelinedGpu",
    "ALL_IMPLEMENTATIONS",
]
