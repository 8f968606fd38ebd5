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
``MtCpu``                 SPMD spatial decomposition over worker threads
``ProcCpu``               the same row bands over forked processes
``PipelinedCpu``          3-stage pipeline (read / fft+displacement / bookkeeping)
``PipelinedCpuNuma``      one such pipeline per socket over column partitions
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
from repro.impls.simple_cpu import SimpleCpu
from repro.impls.fiji_baseline import FijiBaseline
from repro.impls.mt_cpu import MtCpu
from repro.impls.pipelined_cpu import PipelinedCpu
from repro.impls.pipelined_cpu_numa import PipelinedCpuNuma
from repro.impls.proc_cpu import ProcCpu
from repro.impls.simple_gpu import SimpleGpu
from repro.impls.pipelined_gpu import PipelinedGpu

ALL_IMPLEMENTATIONS = {
    "fiji-baseline": FijiBaseline,
    "simple-cpu": SimpleCpu,
    "mt-cpu": MtCpu,
    "proc-cpu": ProcCpu,
    "pipelined-cpu": PipelinedCpu,
    "pipelined-cpu-numa": PipelinedCpuNuma,
    "simple-gpu": SimpleGpu,
    "pipelined-gpu": PipelinedGpu,
}

__all__ = [
    "Implementation",
    "RunResult",
    "FijiBaseline",
    "SimpleCpu",
    "MtCpu",
    "ProcCpu",
    "PipelinedCpu",
    "PipelinedCpuNuma",
    "SimpleGpu",
    "PipelinedGpu",
    "ALL_IMPLEMENTATIONS",
]
