"""End-to-end degraded stitching.

Two flavours of damage are exercised:

- physical: tile files deleted or truncated on disk (satellite test);
- injected: a seeded :class:`FaultPlan` wrapping the dataset (the
  ISSUE acceptance scenario, >= 3 fault kinds on a 6x6 grid).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stitcher import Stitcher
from repro.faults import FaultKind, FaultPlan
from repro.io.dataset import TileDataset
from repro.recovery import PipelineError
from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="module")
def grid_6x6(tmp_path_factory):
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("deg6"), rows=6, cols=6,
        tile_height=64, tile_width=64, overlap=0.25, seed=23,
    )


@pytest.fixture(scope="module")
def clean_result(grid_6x6):
    return Stitcher().stitch(grid_6x6)


class TestPhysicalDamage:
    """Delete one tile and truncate another on disk, then stitch."""

    @pytest.fixture(scope="class")
    def damaged(self, tmp_path_factory):
        ds = make_synthetic_dataset(
            tmp_path_factory.mktemp("damage"), rows=4, cols=4,
            tile_height=64, tile_width=64, overlap=0.25, seed=31,
        )
        clean = Stitcher().stitch(ds)
        ds.path(1, 2).unlink()                     # missing tile
        ds.path(3, 0).write_bytes(b"II*\x00junk")  # truncated/corrupt tile
        return TileDataset(ds.directory), clean

    def test_skip_policy_completes_with_report(self, damaged):
        ds, clean = damaged
        result = Stitcher(max_retries=1, on_tile_error="skip").stitch(ds)
        report = result.stats["fault_report"]
        # The report lists exactly the tiles damaged on disk.
        assert report.skipped_tiles == [(1, 2), (3, 0)]
        assert result.skipped_tiles() == [(1, 2), (3, 0)]
        errs = report.to_dict()["skipped_tile_errors"]
        assert "FileNotFoundError" in errs["1,2"]
        # Surviving tiles land where the clean run put them.
        survivors = np.ones((ds.rows, ds.cols), dtype=bool)
        for r, c in report.skipped_tiles:
            survivors[r, c] = False
        delta = np.abs(
            result.positions.positions - clean.positions.positions
        )[survivors]
        assert float(delta.max()) <= 1.0

    def test_partial_mosaic_has_holes_and_mask(self, damaged):
        ds, _clean = damaged
        result = Stitcher(max_retries=1, on_tile_error="skip").stitch(ds)
        mosaic, mask = result.compose(return_mask=True)
        assert mask.shape == (ds.rows, ds.cols)
        assert not mask[1, 2] and not mask[3, 0]
        assert int(mask.sum()) == ds.rows * ds.cols - 2
        assert mosaic.shape[0] > 0

    def test_abort_policy_still_fails_fast(self, damaged):
        ds, _clean = damaged
        with pytest.raises(PipelineError, match="read"):
            Stitcher(max_retries=1, on_tile_error="abort").stitch(ds)


class TestInjectedFaultsAcceptance:
    """The ISSUE acceptance scenario on a 6x6 grid."""

    SEED = 42

    def _plan(self):
        # >= 3 distinct fault kinds: missing + corrupt are permanent,
        # transient succeeds on retry, slow only adds latency.
        return FaultPlan.random(
            6, 6, seed=self.SEED, missing=1, corrupt=1, transient=2,
            slow=1, latency=0.0,
        )

    def test_plan_has_three_plus_kinds(self):
        kinds = {f.kind for f in self._plan().faults}
        assert kinds >= {FaultKind.MISSING, FaultKind.CORRUPT,
                         FaultKind.TRANSIENT_IO}

    def test_skip_run_completes_and_accounts_for_every_fault(self, grid_6x6,
                                                             clean_result):
        plan = self._plan()
        faulty = plan.wrap_dataset(grid_6x6)
        result = Stitcher(max_retries=2, on_tile_error="skip").stitch(faulty)
        report = result.stats["fault_report"]

        by_kind = {k: [f for f in plan.faults if f.kind == k]
                   for k in FaultKind}
        permanent = sorted(
            f.tile for f in by_kind[FaultKind.MISSING]
            + by_kind[FaultKind.CORRUPT]
        )
        # Permanent faults -> skipped tiles, exactly.
        assert report.skipped_tiles == permanent
        # Transient faults -> retried reads, recovered (never skipped).
        retried_tiles = {r["item"] for r in report.retries}
        for f in by_kind[FaultKind.TRANSIENT_IO]:
            assert str(f.tile) in retried_tiles
            assert f.tile not in report.skipped_tiles
        # Every planned fault actually fired at least once (permanent
        # faults fire once per retry attempt, so compare as sets).
        assert {(e.kind, e.tile) for e in plan.events} == {
            (f.kind, f.tile) for f in plan.faults
        }
        # The plan summary is folded into the report.
        assert report.injected == plan.summary()

        # Partial mosaic: holes only at the permanently damaged tiles.
        _mosaic, mask = result.compose(return_mask=True)
        assert sorted(zip(*np.nonzero(~mask))) == [
            (int(r), int(c)) for r, c in permanent
        ]

        # Surviving tiles match the clean run.
        survivors = np.ones((6, 6), dtype=bool)
        for r, c in permanent:
            survivors[r, c] = False
        delta = np.abs(
            result.positions.positions - clean_result.positions.positions
        )[survivors]
        assert float(delta.max()) <= 1.0

    def test_same_plan_abort_raises_naming_stage(self, grid_6x6):
        faulty = self._plan().wrap_dataset(grid_6x6)
        with pytest.raises(PipelineError) as exc_info:
            Stitcher(max_retries=1, on_tile_error="abort").stitch(faulty)
        err = exc_info.value
        assert [name for name, _ in err.failures] == ["read"]
        assert "read" in str(err) and "displacement" in str(err)

    def test_ground_truth_error_excluding_degraded(self, grid_6x6):
        faulty = self._plan().wrap_dataset(grid_6x6)
        result = Stitcher(max_retries=2, on_tile_error="skip").stitch(faulty)
        errors = result.position_errors(exclude_degraded=True)
        assert errors is not None
        # Degraded tiles are NaN; connected survivors stay accurate.
        assert np.isnan(errors).sum() == result.positions.degraded_count
        assert float(np.nanmax(errors)) <= 1.0
