#!/usr/bin/env python
"""CI memory-budget smoke: streamed compose must hold its RSS budget.

Stitching geometry is not the point here -- tile positions come from the
synthetic dataset's ground truth -- the point is the *compose stage's*
memory.  Three measurements run in separate child processes so each
``ru_maxrss`` high-water mark is attributable:

``base``
    import numpy, open the dataset, touch one tile -- the interpreter +
    library floor every other child also pays;
    (synthesis and the control-grid check run in children too: a forked
    child inherits the parent's RSS high-water mark on Linux, so the
    orchestrating parent must stay stdlib-small for the deltas to mean
    anything);
``stream``
    ``stream_compose_to_tiff`` under ``--budget`` (LINEAR blend, the
    heaviest working set);
``inmem``
    the in-memory ``compose()`` of the same canvas -- this child is the
    honesty check: its RSS delta must *exceed* the budget, proving the
    grid genuinely cannot be composed in memory within it.

The smoke fails unless ``stream - base <= budget + slack`` while
``inmem - base > budget``.  The budget is meant literally: measured, the
streamed child's RSS delta is ~44 MiB under the 48 MiB budget (tracked
peak 42.0 MiB), so the 8 MiB default slack is allocator headroom, not room
for untracked working set.  A smaller control grid is then composed both
ways in-process and the streamed TIFF must be bit-identical to the
in-memory reference.

Usage::

    python benchmarks/smoke_memory_budget.py            # CI defaults
    python benchmarks/smoke_memory_budget.py --budget 48M --slack 8M
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Over-budget grid: 8x8 tiles of 384 px at 10% overlap is a ~2803x2803
#: canvas -- a 63 MB float64 canvas, and canvas + weight plane + uint16
#: copy make the in-memory LINEAR child's RSS delta ~138 MiB measured
#: (141 MB), comfortably past the 48 MiB default budget.
GRID = (8, 8, 384, 0.10)
CONTROL_GRID = (4, 4, 128, 0.25)

MIB = 1024 * 1024


def _parse_bytes(text: str) -> int:
    text = text.strip().upper()
    for suffix, mult in (("G", 1024**3), ("M", 1024**2), ("K", 1024)):
        if text.endswith(suffix):
            return int(float(text[:-1]) * mult)
    return int(text)


def _maxrss_bytes() -> int:
    # Linux reports ru_maxrss in KiB; macOS in bytes.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024


def _ground_truth_positions(ds):
    import numpy as np

    from repro.core.global_opt import GlobalPositions

    pos = np.zeros((ds.rows, ds.cols, 2), dtype=np.int64)
    for r in range(ds.rows):
        for c in range(ds.cols):
            pos[r, c] = ds.true_position(r, c)
    pos -= pos.reshape(-1, 2).min(axis=0)
    return GlobalPositions(positions=pos, method="ground-truth")


def _child(mode: str, dataset_dir: str, out: str, budget: int) -> None:
    """Run one measurement and print its JSON record on stdout."""
    if mode == "synth":
        from repro.synth import make_synthetic_dataset

        rows, cols, tile, overlap = GRID
        make_synthetic_dataset(dataset_dir, rows=rows, cols=cols,
                               tile_height=tile, tile_width=tile,
                               overlap=overlap, seed=17)
        print(json.dumps({"mode": mode}))
        return
    if mode == "control":
        _control_bit_identity(Path(out))
        print(json.dumps({"mode": mode}))
        return

    from repro.io.dataset import TileDataset

    ds = TileDataset(dataset_dir)
    record: dict = {"mode": mode}
    if mode == "base":
        ds.load(0, 0, dtype=None)
    else:
        from repro.core.compose import BlendMode

        positions = _ground_truth_positions(ds)
        load = lambda r, c: ds.load(r, c, dtype=None)  # noqa: E731
        if mode == "stream":
            from repro.core.streamcompose import stream_compose_to_tiff

            res = stream_compose_to_tiff(
                out, load, positions, ds.tile_shape,
                blend=BlendMode.LINEAR, memory_budget=budget,
            )
            record.update(peak_bytes=res.peak_bytes, stripes=res.stripes,
                          band_rows=res.band_rows)
        elif mode == "inmem":
            import numpy as np

            from repro.core.compose import compose
            from repro.io.tiff import write_tiff

            # float64 accumulation: the reference the streamed path is
            # bit-identical to (compose() defaults to float32).
            mosaic = compose(load, positions, ds.tile_shape,
                             blend=BlendMode.LINEAR, dtype=np.float64)
            write_tiff(out, np.clip(mosaic, 0, 65535).astype(np.uint16))
        else:
            raise SystemExit(f"unknown child mode {mode!r}")
    record["maxrss_bytes"] = _maxrss_bytes()
    print(json.dumps(record))


def _measure(mode: str, dataset_dir: Path, out: Path, budget: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", mode,
         "--dataset", str(dataset_dir), "--out", str(out),
         "--budget", str(budget)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: child {mode!r} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _control_bit_identity(tmp: Path) -> None:
    import numpy as np

    from repro.core.compose import BlendMode, compose
    from repro.core.streamcompose import stream_compose_to_tiff
    from repro.io.tiff import read_tiff
    from repro.synth import make_synthetic_dataset

    rows, cols, tile, overlap = CONTROL_GRID
    ds = make_synthetic_dataset(tmp / "control", rows=rows, cols=cols,
                                tile_height=tile, tile_width=tile,
                                overlap=overlap, seed=29)
    positions = _ground_truth_positions(ds)
    load = lambda r, c: ds.load(r, c, dtype=None)  # noqa: E731
    for blend in (BlendMode.OVERLAY, BlendMode.AVERAGE,
                  BlendMode.MAXIMUM, BlendMode.LINEAR):
        ref = compose(load, positions, ds.tile_shape, blend=blend,
                      dtype=np.float64)
        expected = np.clip(ref, 0, 65535).astype(np.uint16)
        path = tmp / f"control-{blend.name.lower()}.tif"
        stream_compose_to_tiff(path, load, positions, ds.tile_shape,
                               blend=blend, memory_budget=256 * 1024)
        if not np.array_equal(read_tiff(path), expected):
            raise SystemExit(
                f"FAIL: control grid streamed {blend.name} mosaic is not "
                f"bit-identical to the in-memory reference")
    print(f"control grid: streamed == in-memory for all 4 blends "
          f"({expected.shape[0]}x{expected.shape[1]} px)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=_parse_bytes, default=48 * MIB)
    ap.add_argument("--slack", type=_parse_bytes, default=8 * MIB,
                    help="allowed RSS overhead beyond the budget "
                         "(allocator headroom)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--dataset", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        _child(args.child, args.dataset, args.out, args.budget)
        return 0

    # NB: no repro/numpy imports in the parent before the measurement
    # children run -- a forked child starts with the parent's RSS
    # high-water mark, which would swamp every delta below.
    rows, cols, tile, _ = GRID
    with tempfile.TemporaryDirectory(prefix="smoke_membudget_") as tmpdir:
        tmp = Path(tmpdir)
        print(f"synthesizing {rows}x{cols} grid of {tile} px tiles ...")
        _measure("synth", tmp / "ds", tmp / "unused.tif", args.budget)

        base = _measure("base", tmp / "ds", tmp / "unused.tif", args.budget)
        stream = _measure("stream", tmp / "ds", tmp / "stream.tif",
                          args.budget)
        inmem = _measure("inmem", tmp / "ds", tmp / "inmem.tif", args.budget)

        base_rss = base["maxrss_bytes"]
        stream_delta = stream["maxrss_bytes"] - base_rss
        inmem_delta = inmem["maxrss_bytes"] - base_rss
        print(f"budget {args.budget / MIB:.0f} MiB (+{args.slack / MIB:.0f} "
              f"MiB slack); base RSS {base_rss / MIB:.1f} MiB")
        print(f"  stream: RSS delta {stream_delta / MIB:.1f} MiB, tracked "
              f"peak {stream['peak_bytes'] / MIB:.1f} MiB, "
              f"{stream['stripes']} stripes x {stream['band_rows']} rows")
        print(f"  inmem:  RSS delta {inmem_delta / MIB:.1f} MiB")

        if stream["peak_bytes"] > args.budget:
            print("FAIL: tracked compose peak exceeds the budget")
            return 1
        if inmem_delta <= args.budget:
            print("FAIL: in-memory compose fit inside the budget -- the "
                  "grid is not actually over-budget; enlarge GRID")
            return 1
        if stream_delta > args.budget + args.slack:
            print("FAIL: streamed compose RSS delta exceeds budget + slack")
            return 1

        # The two children rendered the same canvas: spot-check equality.
        from repro.io.tiff import read_tiff

        import numpy as np

        if not np.array_equal(read_tiff(tmp / "stream.tif"),
                              read_tiff(tmp / "inmem.tif")):
            print("FAIL: streamed over-budget mosaic differs from the "
                  "in-memory render")
            return 1
        print("over-budget mosaic: streamed == in-memory, RSS held")

        _measure("control", tmp / "ds", tmp, args.budget)
        print("control grid: streamed == in-memory for all 4 blends")

    print("OK: memory budget held; streamed output bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
