"""Per-socket Pipelined-CPU -- ``PipelinedCpu(partitions=n)``, one
overlapped pipeline per column partition: equivalence, partition
structure, failures."""

import pytest

from repro.analysis.metrics import displacement_agreement
from repro.impls import PipelinedCpu, SimpleCpu
from repro.io.tiff import TiffError
from repro.synth import make_synthetic_dataset


class TestEquivalence:
    @pytest.mark.parametrize("sockets", [1, 2, 3])
    def test_matches_reference(self, sockets, dataset_4x4, reference_displacements):
        res = PipelinedCpu(partitions=sockets).run(dataset_4x4)
        assert res.displacements.is_complete()
        assert displacement_agreement(
            res.displacements, reference_displacements.displacements
        ) == 1.0

    def test_nonsquare(self, dataset_3x5):
        ref = SimpleCpu().run(dataset_3x5)
        res = PipelinedCpu(partitions=2).run(dataset_3x5)
        assert displacement_agreement(res.displacements, ref.displacements) == 1.0


class TestStructure:
    def test_ghost_column_duplication(self, dataset_4x4):
        """2 partitions on a 4x4 grid: both use the boundary column, which
        is read and transformed once and shared."""
        res = PipelinedCpu(partitions=2).run(dataset_4x4)
        assert res.stats["reads"] == res.stats["ffts"] == 16
        assert res.stats["partitions"] == 2

    def test_single_socket_no_duplication(self, dataset_4x4):
        res = PipelinedCpu(partitions=1).run(dataset_4x4)
        assert res.stats["reads"] == 16

    def test_more_sockets_than_columns(self, dataset_3x5):
        res = PipelinedCpu(partitions=10).run(dataset_3x5)
        assert res.displacements.is_complete()
        assert res.stats["partitions"] == 5


class TestFailures:
    def test_corrupt_tile_fails_fast(self, tmp_path):
        ds = make_synthetic_dataset(
            tmp_path / "ds", rows=3, cols=4, tile_height=48, tile_width=48,
            overlap=0.25, seed=8,
        )
        blob = ds.path(1, 2).read_bytes()
        ds.path(1, 2).write_bytes(blob[: len(blob) // 3])
        with pytest.raises(TiffError):
            PipelinedCpu(partitions=2).run(ds)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelinedCpu(partitions=0)
