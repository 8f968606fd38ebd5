"""The five workloads: set-up, one timed operation, and its verification.

Each workload drives the program through its public entry points only
(``TileDataset``, ``Stitcher.stitch``, ``StitchResult.compose`` /
``compose_to_tiff``, ``StitchService`` + ``ServiceClient``).  ``repro`` is
imported inside the functions: the child process times the import as part
of set-up, and the parent (``run.py``) imports this module only for the
names and geometry and must stay numpy-free.

Why these five, and which layer each one stresses, is recorded in
``BENCHMARK.json`` (``workloads[].why``) and in the README's interaction
table.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

MIB = 1024 * 1024

#: Positions further than this from ground truth fail verification.
MAX_POSITION_ERROR_PX = 1.0
#: Streamed and in-memory mosaics are pinned bit-identical by the repo's
#: own tests; any grey-level difference fails ``mosaic_render``.
MAX_MOSAIC_DIFF_LEVELS = 0.0

#: Datasets by key; several workloads share one.  ``paper`` is the paper's
#: tile shape (1392x1040 uint16, 10 % overlap); ``small`` is half the
#: paper's 42x59 grid in each direction with tiny tiles, so per-file and
#: per-pair overhead dominate; ``job`` is one service job's input.
DATASETS = {
    "paper": dict(rows=3, cols=3, tile_height=520, tile_width=696, overlap=0.10),
    "small": dict(rows=21, cols=30, tile_height=64, tile_width=64, overlap=0.25),
    "job": dict(rows=4, cols=4, tile_height=128, tile_width=128, overlap=0.20),
}
SMOKE_DATASETS = {
    "paper": dict(rows=3, cols=3, tile_height=260, tile_width=348, overlap=0.10),
    "small": dict(rows=6, cols=8, tile_height=64, tile_width=64, overlap=0.25),
    "job": dict(rows=3, cols=3, tile_height=128, tile_width=128, overlap=0.20),
}

#: Draws the specimen and the stage errors of every dataset (see make_dataset).
STRUCTURE_SEED = 0

STREAM_BUDGET = 8 * MIB
#: Below one tile row of cache: every straddling tile is decoded again.
TIGHT_STREAM_BUDGET = 4 * MIB
PYRAMID_LEVELS = 2

SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
JOBS_PER_CLIENT = 6
SMOKE_JOBS_PER_CLIENT = 2


class VerificationError(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Context:
    """What the child hands a workload: inputs, scratch space, sizing."""

    dataset_dir: Path
    out_dir: Path
    smoke: bool = False


@dataclass
class Workload:
    name: str
    dataset: str
    setup: callable
    operate: callable
    verify: callable
    #: Verification too slow to repeat per operation; also tears down.
    finish: callable = field(default=lambda state: None)


def make_dataset(key: str, seed: int, directory: Path, smoke: bool = False):
    """Write one dataset (benchmark-side, never timed as set-up).

    The specimen and the stage errors are drawn from ``STRUCTURE_SEED``;
    ``seed`` draws the camera noise of every tile.  How much work a stitch
    is depends on the specimen and on where the overlaps fall, and a run
    must cost the same whatever its seed: with everything drawn from the
    seed, ``Stitcher(coarse=True)`` falls back on 0-6 of the 12 pairs of
    the 3x3 grid, each fallback is 11 % of the operation (0.125 s + 0.023 s
    per fallback), and ten seeds spread over 27 %.  With only the noise
    drawn from it the count repeats exactly (2 on this structure).

    Stage and specimen are explicit so the inputs do not drift with the
    factory's defaults.  Large tiles drop both low-frequency textures:
    registration reaches 0.0 px on the colonies and the pixel-scale
    granularity alone (phase correlation whitens the spectrum, so smooth
    background carries almost no weight).  The 64 px grid needs a stage
    whose error fits its 16 px overlaps, a specimen dense enough for them
    (the values ``make_synthetic_dataset`` derives for this geometry) and
    twice the default granularity: at 0.03 the gated solve is 1-3 px off on
    9 fully seeded datasets of 120, at 0.06 on none of 260, while the
    default MST solve stays wrong on 7 in 10.
    """
    import numpy as np

    from repro import TileDataset
    from repro.synth import (
        CameraModel, ScanPlan, SpecimenParams, StageModel, VirtualMicroscope,
        generate_plate,
    )

    if key == "small":
        stage = StageModel(jitter_sigma=1.0, backlash_x=1.0, backlash_y=1.0,
                           max_error=5.6)
        specimen = SpecimenParams(colony_count=38, cells_per_colony=40,
                                  colony_radius=12.8, cell_radius=2.0,
                                  granularity=0.06)
    else:
        stage = StageModel()
        specimen = SpecimenParams(fine_texture=0.0, background_texture=0.0)
    camera = CameraModel()
    plan = ScanPlan(**(SMOKE_DATASETS if smoke else DATASETS)[key])
    margin = int(np.ceil(stage.max_error)) + 2
    plate = generate_plate(*plan.plate_shape(margin), specimen, seed=STRUCTURE_SEED)
    positions = VirtualMicroscope(stage, camera, seed=STRUCTURE_SEED).true_positions(
        plan, margin)
    rng = np.random.default_rng(seed)
    h, w = plan.tile_height, plan.tile_width
    tiles = np.empty((plan.rows, plan.cols, h, w), dtype=camera.dtype)
    for r in range(plan.rows):
        for c in range(plan.cols):
            y, x = positions[r, c]
            tiles[r, c] = camera.expose(plate[y:y + h, x:x + w], rng)
    return TileDataset.create(directory, tiles, overlap=plan.overlap,
                              true_positions=positions,
                              stage_model=stage.to_dict())


# -- shared verification -------------------------------------------------------


def position_error(result) -> float:
    """Max per-tile distance from ground truth; raises past the tolerance."""
    err = float(result.position_errors().max())
    if not err <= MAX_POSITION_ERROR_PX:
        raise VerificationError(f"max position error {err:.2f} px")
    return err


def check_tiff_shape(path: Path, shape: tuple[int, int]) -> None:
    from repro.io.tiff import TiffReader

    with TiffReader(path) as reader:
        got = (reader.height, reader.width)
    if got != tuple(shape):
        raise VerificationError(f"{path.name} is {got}, expected {tuple(shape)}")


# -- grid workloads: stitch + compose_to_tiff ---------------------------------


def _grid_workload(name: str, dataset: str, stitcher_kwargs: dict,
                   **extra) -> Workload:
    def setup(ctx: Context) -> dict:
        from repro import Stitcher, TileDataset

        return {
            "ctx": ctx,
            "dataset": TileDataset(ctx.dataset_dir),
            "stitcher": Stitcher(**stitcher_kwargs),
            "out": ctx.out_dir / "mosaic.tif",
        }

    def operate(state: dict):
        from repro import BlendMode

        result = state["stitcher"].stitch(state["dataset"])
        result.compose_to_tiff(state["out"], blend=BlendMode.OVERLAY)
        return result

    def verify(state: dict, result) -> float:
        err = position_error(result)
        check_tiff_shape(
            state["out"], result.positions.mosaic_shape(state["dataset"].tile_shape)
        )
        state["last"] = result
        return err

    return Workload(name, dataset, setup, operate, verify, **extra)


def _coarse_equals_default(state: dict) -> None:
    """Coarse registration must never change an answer."""
    import numpy as np

    from repro import Stitcher

    reference = Stitcher().stitch(state["dataset"]).positions.positions
    if not np.array_equal(state["last"].positions.positions, reference):
        raise VerificationError("coarse positions differ from the default path")


# -- mosaic_render: both renderers, registration bypassed ----------------------


def _render_setup(ctx: Context) -> dict:
    from repro import Stitcher, TileDataset

    dataset = TileDataset(ctx.dataset_dir)
    result = Stitcher().stitch(dataset)  # untimed: positions only
    position_error(result)
    return {"ctx": ctx, "dataset": dataset, "result": result,
            "out": ctx.out_dir / "render.tif"}


def _render_operate(state: dict):
    import numpy as np

    from repro import BlendMode

    streamed = state["result"].compose_to_tiff(
        state["out"], blend=BlendMode.LINEAR,
        memory_budget=STREAM_BUDGET, pyramid_levels=PYRAMID_LEVELS,
    )
    # float64: the default float32 canvas rounds ~1 grey level away from
    # the streamed file, and the two renderers are compared bit for bit.
    mosaic = state["result"].compose(BlendMode.LINEAR, dtype=np.float64)
    return streamed, mosaic


def _render_verify(state: dict, outcome) -> float:
    import numpy as np

    from repro import read_tiff
    from repro.core.downsample import downsampled_shape

    streamed, mosaic = outcome
    on_disk = read_tiff(state["out"])
    quantised = np.clip(mosaic, 0, 65535).astype(np.uint16)
    if on_disk.shape != quantised.shape:
        raise VerificationError(
            f"streamed mosaic {on_disk.shape} vs in-memory {quantised.shape}"
        )
    diff = float(np.abs(on_disk.astype(np.int32) - quantised).max())
    if diff > MAX_MOSAIC_DIFF_LEVELS:
        raise VerificationError(f"streamed and in-memory mosaics differ by {diff}")
    shape = on_disk.shape
    if len(streamed.pyramid_paths) != PYRAMID_LEVELS:
        raise VerificationError("pyramid levels missing")
    for level in streamed.pyramid_paths:
        shape = downsampled_shape(shape, 2)
        check_tiff_shape(level, shape)
    return diff


# -- service_batch: closed loop over HTTP --------------------------------------


def _service_setup(ctx: Context) -> dict:
    from repro.service import ServiceClient, StitchService

    service = StitchService(ctx.out_dir / "spool", workers=SERVICE_WORKERS)
    service.start()
    host, port = service.start_http()
    return {
        "ctx": ctx,
        "service": service,
        "address": (host, port),
        "client": ServiceClient,
        "jobs_per_client": SMOKE_JOBS_PER_CLIENT if ctx.smoke else JOBS_PER_CLIENT,
        "batches": 0,
    }


def run_job(client, spec: dict) -> dict:
    """One job, closed loop: submit, poll to terminal, fetch the result."""
    job_id = client.submit(spec)["id"]
    record = client.wait(job_id, timeout=60.0, poll=0.005)
    if record["state"] != "done":
        raise VerificationError(f"job {job_id} ended {record['state']}: "
                                f"{record.get('error')}")
    return {"record": record, "result": client.result(job_id)}


def _service_operate(state: dict, run_job=run_job) -> list:
    """The batch: each client thread submits its jobs one after another."""
    state["batches"] += 1
    n = state["jobs_per_client"]
    outcomes: list = [None] * (SERVICE_CLIENTS * n)

    def client_loop(k: int) -> None:
        client = state["client"](*state["address"])
        for j in range(n):
            slot = k * n + j
            out = state["ctx"].out_dir / f"job_{state['batches']}_{slot}.tif"
            spec = {"dataset": str(state["ctx"].dataset_dir),
                    "tenant": f"client-{k}", "output": str(out)}
            try:
                outcomes[slot] = run_job(client, spec)
            except Exception as exc:  # counted per job by verify
                outcomes[slot] = exc

    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(SERVICE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def _direct_positions(state: dict):
    if "direct" not in state:
        from repro import Stitcher, TileDataset

        state["direct"] = Stitcher().stitch(TileDataset(state["ctx"].dataset_dir))
    return state["direct"]


def _service_verify(state: dict, outcomes: list) -> float:
    import numpy as np

    direct = _direct_positions(state)
    err = position_error(direct)
    shape = direct.positions.mosaic_shape(direct.dataset.tile_shape)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise VerificationError(f"job failed: {outcome!r}") from outcome
        got = np.asarray(outcome["result"]["positions"])
        if not np.array_equal(got, direct.positions.positions):
            raise VerificationError("service positions differ from a direct run")
        output = Path(outcome["record"]["result"]["output"])
        check_tiff_shape(output, shape)
        output.unlink()
    return err


def _service_finish(state: dict) -> None:
    state["service"].stop()


WORKLOADS = {
    w.name: w
    for w in (
        _grid_workload("tiles_default", "paper", {}),
        _grid_workload("tiles_coarse", "paper", {"coarse": True},
                       finish=_coarse_equals_default),
        _grid_workload("grid_small_tiles", "small",
                       {"position_method": "least_squares", "quality": True}),
        Workload("mosaic_render", "paper", _render_setup, _render_operate,
                 _render_verify),
        Workload("service_batch", "job", _service_setup, _service_operate,
                 _service_verify, _service_finish),
    )
}
