"""Paper-scale performance reproduction via discrete-event simulation.

This container has one CPU core and no GPU, so the paper's scaling results
(Table II, Figs. 5, 7, 9, 10, 11, 12) cannot be re-measured in wall-clock
time.  What *can* be reproduced faithfully is the thing those figures
actually demonstrate: the schedule each architecture induces over a fixed
set of hardware resources.

:mod:`repro.simulate.des` is a deterministic task-graph scheduler
(operations with dependencies, resources with capacities, FIFO dispatch).
:mod:`repro.simulate.schedules` builds each implementation's operation
graph -- the same topology the real implementations execute; the
pipelined and GPU graphs take the real schedulers' column partitions and
ledger replay (:mod:`repro.grid.traversal`), so they read the tiles and
compute the pairs the real runs do.  The MT-CPU graph models the paper's
MT-CPU, whose band below re-reads the boundary row.  :mod:`repro.simulate.costmodel` holds
machine models calibrated from the paper's own microbenchmarks, and
:mod:`repro.simulate.experiments` packages the paper's experiments.
"""

from repro.simulate.costmodel import LAPTOP, PAPER_MACHINE, MachineModel
from repro.simulate.des import Op, TaskGraphSimulator
from repro.simulate.experiments import (
    fig5_vm_cliff,
    fig7_fig9_profiles,
    fig10_ccf_threads,
    fig11_cpu_scaling,
    fig12_speedup_surface,
    table2_runtimes,
)

__all__ = [
    "TaskGraphSimulator",
    "Op",
    "MachineModel",
    "PAPER_MACHINE",
    "LAPTOP",
    "table2_runtimes",
    "fig5_vm_cliff",
    "fig7_fig9_profiles",
    "fig10_ccf_threads",
    "fig11_cpu_scaling",
    "fig12_speedup_surface",
]
