#!/usr/bin/env python
"""Run all six Table II implementations and compare them.

Each implementation (the Fiji-architecture baseline, Simple-CPU, MT-CPU,
Pipelined-CPU, Simple-GPU on the virtual device, and multi-GPU
Pipelined-GPU) computes phase 1 on the same synthetic dataset.  The script
verifies they agree pair-for-pair with the sequential reference, prints
their instrumentation (the architectural differences: redundant FFTs,
stream counts, pool peaks), and then projects each architecture to the
paper's 42x59 workload with the calibrated performance simulator.

Run:  python examples/implementation_comparison.py
"""

import tempfile
from pathlib import Path

from repro.analysis.metrics import displacement_agreement
from repro.analysis.report import format_table
from repro.impls import (
    FijiBaseline, MtCpu, PipelinedCpu, PipelinedGpu, SimpleCpu, SimpleGpu,
)
from repro.simulate.costmodel import PAPER_MACHINE
from repro.simulate.experiments import PAPER_TABLE2, table2_runtimes
from repro.synth import make_synthetic_dataset


def main() -> None:
    root = Path(tempfile.mkdtemp())
    print("generating a 5x5 synthetic dataset...")
    dataset = make_synthetic_dataset(
        root / "ds", rows=5, cols=5, tile_height=80, tile_width=80,
        overlap=0.2, seed=7,
    )

    impls = [
        ("fiji-baseline", FijiBaseline()),
        ("simple-cpu", SimpleCpu()),
        ("mt-cpu (3 workers)", MtCpu(workers=3)),
        ("pipelined-cpu (3 partitions)", PipelinedCpu(partitions=3)),
        ("simple-gpu", SimpleGpu()),
        ("pipelined-gpu (2 GPUs)", PipelinedGpu(devices=2)),
    ]

    print("\nrunning every implementation on the same dataset...")
    reference = None
    rows = []
    for name, impl in impls:
        res = impl.run(dataset)
        if reference is None:
            reference = res
        agree = displacement_agreement(res.displacements, reference.displacements)
        rows.append([
            name,
            f"{res.wall_seconds:.2f}",
            res.stats.get("reads", "-"),
            res.stats.get("ffts", "-"),
            "yes" if agree == 1.0 else f"NO ({agree:.2%})",
        ])
    print(format_table(
        ["implementation", "wall (s)", "reads", "FFTs", "matches reference"],
        rows,
        title="small-scale real execution (single-core container)",
    ))

    print("\nprojecting to the paper's 42x59 workload (calibrated simulator)...")
    sim_rows = table2_runtimes(PAPER_MACHINE)
    print(format_table(
        ["implementation", "simulated (s)", "paper (s)", "speedup vs simple-cpu"],
        [[r.implementation, round(r.seconds, 1),
          round(PAPER_TABLE2[r.implementation], 1),
          round(r.speedup_vs_simple_cpu, 1)] for r in sim_rows],
        title="Table II projection",
    ))


if __name__ == "__main__":
    main()
