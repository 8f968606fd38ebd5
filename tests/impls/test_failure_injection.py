"""Failure injection: errors must surface promptly, never deadlock."""

import weakref

import numpy as np
import pytest

from repro.faults import ErrorPolicy
from repro.faults.report import FaultReport
from repro.impls import MtCpu, PipelinedCpu, PipelinedGpu, SimpleCpu
from repro.io.dataset import TileDataset
from repro.io.tiff import TiffError, write_tiff
from repro.pipeline.graph import PipelineError
from repro.synth import make_synthetic_dataset


@pytest.fixture
def broken_dataset(tmp_path):
    """4x4 dataset with tile (2,1) truncated on disk."""
    ds = make_synthetic_dataset(
        tmp_path / "ds", rows=4, cols=4, tile_height=48, tile_width=48,
        overlap=0.25, seed=3,
    )
    path = ds.path(2, 1)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    return ds


@pytest.fixture
def missing_tile_dataset(tmp_path):
    ds = make_synthetic_dataset(
        tmp_path / "ds", rows=3, cols=3, tile_height=48, tile_width=48,
        overlap=0.25, seed=4,
    )
    ds.path(1, 1).unlink()
    return ds


class TestCorruptTile:
    def test_simple_cpu_surfaces_tiff_error(self, broken_dataset):
        with pytest.raises(TiffError):
            SimpleCpu().run(broken_dataset)

    def test_mt_cpu_surfaces_error(self, broken_dataset):
        with pytest.raises(TiffError):
            MtCpu(workers=2).run(broken_dataset)

    def test_pipelined_cpu_fails_fast_no_deadlock(self, broken_dataset):
        with pytest.raises(PipelineError) as exc_info:
            PipelinedCpu(workers=2, pool_timeout=5.0).run(broken_dataset)
        assert isinstance(exc_info.value.__cause__, TiffError)

    def test_pipelined_gpu_fails_fast_no_deadlock(self, broken_dataset):
        with pytest.raises(PipelineError):
            PipelinedGpu(devices=2, pool_timeout=5.0).run(broken_dataset)


class TestMissingTile:
    def test_pipelined_cpu(self, missing_tile_dataset):
        with pytest.raises(PipelineError) as exc_info:
            PipelinedCpu(workers=2, pool_timeout=5.0).run(missing_tile_dataset)
        assert isinstance(exc_info.value.__cause__, FileNotFoundError)

    def test_simple_cpu(self, missing_tile_dataset):
        with pytest.raises(FileNotFoundError):
            SimpleCpu().run(missing_tile_dataset)


def test_pipelined_gpu_frees_host_pixels_around_a_dropped_tile(tmp_path):
    """A tile's host pixels go once its last pair is computed *or
    cancelled*: by the last commit only that pair's own tiles remain."""
    ds = make_synthetic_dataset(
        tmp_path / "ds", rows=3, cols=4, tile_height=48, tile_width=48,
        overlap=0.25, seed=4,
    )
    ds.path(1, 1).unlink()
    loaded: dict[tuple, weakref.ref] = {}
    load = ds.load

    def tracked_load(r, c):
        tile = np.array(load(r, c))  # private copy: no cache keeps it alive
        loaded[(r, c)] = weakref.ref(tile)
        return tile

    ds.load = tracked_load
    impl = PipelinedGpu(
        ccf_workers=1, error_policy=ErrorPolicy(on_exhausted="skip"),
        fault_report=FaultReport(),
    )
    commit = impl.kernel.commit
    held_at_end: list = []

    def observed_commit(disp, direction, row, col, t, stats=None):
        commit(disp, direction, row, col, t, stats)
        if disp.pair_count() == 17 - 4:
            first = (row, col - 1) if direction.value == "west" else (row - 1, col)
            held_at_end.extend(
                rc for rc, ref in loaded.items()
                if ref() is not None and rc not in (first, (row, col))
            )

    impl.kernel.commit = observed_commit
    impl.run(ds)
    assert len(loaded) == 11
    assert held_at_end == []


class TestUndersizedPool:
    def test_pipelined_cpu_times_out_instead_of_hanging(self, tmp_path):
        """A pool below the wavefront requirement must raise, not hang."""
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=4, cols=4, tile_height=32, tile_width=32,
            overlap=0.25, seed=5,
        )
        with pytest.raises(PipelineError) as exc_info:
            PipelinedCpu(workers=2, pool_size=1, pool_timeout=0.5).run(ds)
        assert isinstance(exc_info.value.__cause__, TimeoutError)

    def test_adequate_pool_succeeds(self, tmp_path):
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=4, cols=4, tile_height=32, tile_width=32,
            overlap=0.25, seed=5,
        )
        res = PipelinedCpu(workers=2, pool_size=12, pool_timeout=30.0).run(ds)
        assert res.displacements.is_complete()


class TestValidation:
    def test_worker_counts(self):
        with pytest.raises(ValueError):
            MtCpu(workers=0)
        with pytest.raises(ValueError):
            PipelinedCpu(workers=0)
        with pytest.raises(ValueError):
            PipelinedGpu(devices=0)
