"""Table II's CPU presets against each other: wall time and peak RSS.

Two measurements of the one CPU schedule
(``repro.core.displacement.partitioned_displacements``):

1. wall: ``simple-cpu`` against ``mt-cpu --workers 1`` -- the same
   schedule, so the same time -- and ``pipelined-cpu`` at 2 partitions,
   on a 4x4 grid of 696x520 uint16 tiles (20 % overlap, seed 7), the
   geometry of ``benchmarks/results/threads_vs_processes.txt``.  One
   warm process; each round runs the three in alternating order, and
   every run's translations must equal the first run's.
2. peak RSS: ``pipelined-cpu`` at 2 partitions against ``mt-cpu`` at 2
   workers on the e2e ``paper`` dataset (3x3 @ 696x520, seed 7), one
   fresh process per run (one cold and three warm stitches, then the
   process's ``VmHWM``: ``ru_maxrss`` would carry over the high-water
   mark of the process that started it), the two alternating.

``--src DIR`` measures another checkout's ``src`` (say, a clone of the
parent commit) with this script::

    python benchmarks/bench_cpu_presets.py --rounds 7 \\
        --out benchmarks/results/cpu_presets.txt
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RSS_CHILD = """
import json, sys
from repro import Stitcher, TileDataset
ds = TileDataset(sys.argv[1])
impl, options = sys.argv[2], json.loads(sys.argv[3])
for _ in range(4):
    Stitcher(impl=impl, impl_options=options).stitch(ds)
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status
               if line.startswith("VmHWM:"))
print(kib / 1024)
"""


def quartiles(xs: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"median {med:.3f}  q1 {q1:.3f}  q3 {q3:.3f}"


def wall_rows(rounds: int, tmp: Path) -> list[str]:
    from repro import Stitcher
    from repro.synth import make_synthetic_dataset

    ds = make_synthetic_dataset(tmp / "grid", rows=4, cols=4,
                                tile_height=520, tile_width=696,
                                overlap=0.20, seed=7)
    configs = {"simple-cpu": ("simple-cpu", {}),
               "mt-cpu w=1": ("mt-cpu", {"workers": 1}),
               "pipelined-cpu p=2": ("pipelined-cpu", {"partitions": 2})}
    Stitcher().stitch(ds)  # warm
    times = {name: [] for name in configs}
    reference = None
    for r in range(rounds):
        for name in (list(configs) if r % 2 == 0 else list(configs)[::-1]):
            impl, options = configs[name]
            t0 = time.perf_counter()
            res = Stitcher(impl=impl, impl_options=options).stitch(ds)
            times[name].append(time.perf_counter() - t0)
            d = res.displacements
            got = repr((d.west, d.north))
            assert reference in (None, got), f"{name} differs"
            reference = got
    return [f"  {name:<18} {quartiles(xs)} s  runs "
            + " ".join(f"{x:.3f}" for x in xs)
            for name, xs in times.items()]


def rss_rows(rounds: int, tmp: Path, src: Path) -> list[str]:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import make_dataset

    make_dataset("paper", 7, tmp / "paper")
    configs = {"pipelined-cpu p=2": ("pipelined-cpu", {"partitions": 2}),
               "mt-cpu w=2": ("mt-cpu", {"workers": 2})}
    env = {**os.environ, "PYTHONPATH": str(src)}
    peaks = {name: [] for name in configs}
    for r in range(rounds):
        for name in (list(configs) if r % 2 == 0 else list(configs)[::-1]):
            impl, options = configs[name]
            out = subprocess.run(
                [sys.executable, "-c", RSS_CHILD, str(tmp / "paper"), impl,
                 json.dumps(options)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            peaks[name].append(float(out))
    return [f"  {name:<18} {quartiles(xs)} MiB  runs "
            + " ".join(f"{x:.1f}" for x in xs)
            for name, xs in peaks.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the repro tree to measure (default: this one)")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src))
    with tempfile.TemporaryDirectory(prefix="bench_cpu_presets_") as tmp:
        lines = [f"tree: {args.src}",
                 "wall, 4x4 @ 696x520, one warm process (s):",
                 *wall_rows(args.rounds, Path(tmp)),
                 "peak RSS, e2e paper, fresh process per run (MiB):",
                 *rss_rows(args.rounds, Path(tmp), args.src)]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out is not None:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
