"""FaultPlan: determinism, the spec grammar, the read proxy, trigger
bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    Fault,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyDataset,
    parse_fault_spec,
)
from repro.io.tiff import TiffError


class FakeDataset:
    rows = 3
    cols = 3

    def __init__(self):
        self.loads = []

    def path(self, row, col):
        return f"tile_{row}_{col}.tif"

    def load(self, row, col, dtype=np.float64):
        self.loads.append((row, col))
        return np.zeros((4, 4), dtype=dtype)


class TestRandomPlan:
    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.random(6, 6, seed=17)
        b = FaultPlan.random(6, 6, seed=17)
        assert [(f.kind, f.tile) for f in a.faults] == [
            (f.kind, f.tile) for f in b.faults
        ]

    def test_different_seeds_differ(self):
        a = FaultPlan.random(6, 6, seed=1)
        b = FaultPlan.random(6, 6, seed=2)
        assert [f.tile for f in a.faults] != [f.tile for f in b.faults]

    def test_never_damages_anchor_tile(self):
        for seed in range(25):
            plan = FaultPlan.random(3, 3, seed=seed, missing=2, corrupt=2,
                                    transient=2, slow=2)
            assert (0, 0) not in [f.tile for f in plan.faults]

    def test_distinct_tiles(self):
        plan = FaultPlan.random(6, 6, seed=5, missing=3, corrupt=3,
                                transient=3, slow=3)
        tiles = [f.tile for f in plan.faults]
        assert len(tiles) == len(set(tiles)) == 12

    def test_too_many_faults_rejected(self):
        with pytest.raises(ValueError, match="faults requested"):
            FaultPlan.random(2, 2, seed=0, missing=2, corrupt=1,
                             transient=1, slow=0)

    def test_summary_counts_by_kind(self):
        plan = FaultPlan.random(6, 6, seed=0, missing=1, corrupt=2,
                                transient=3, slow=1)
        assert plan.summary() == {
            "missing": 1, "corrupt": 2, "transient_io": 3, "slow_read": 1
        }


class TestDatasetWrapping:
    def test_missing_tile_raises_file_not_found(self):
        plan = FaultPlan().add(Fault(FaultKind.MISSING, tile=(1, 2)))
        ds = plan.wrap_dataset(FakeDataset())
        assert isinstance(ds, FaultyDataset)
        with pytest.raises(FileNotFoundError):
            ds.load(1, 2)
        # Every attempt keeps failing (permanent fault).
        with pytest.raises(FileNotFoundError):
            ds.load(1, 2)

    def test_corrupt_tile_raises_tiff_error(self):
        plan = FaultPlan().add(Fault(FaultKind.CORRUPT, tile=(0, 1)))
        ds = plan.wrap_dataset(FakeDataset())
        with pytest.raises(TiffError):
            ds.load(0, 1)

    def test_transient_io_succeeds_after_configured_failures(self):
        plan = FaultPlan().add(
            Fault(FaultKind.TRANSIENT_IO, tile=(2, 2), failures=2)
        )
        ds = plan.wrap_dataset(FakeDataset())
        with pytest.raises(IOError):
            ds.load(2, 2)
        with pytest.raises(IOError):
            ds.load(2, 2)
        out = ds.load(2, 2)  # third attempt succeeds
        assert out.shape == (4, 4)

    def test_undamaged_tiles_pass_through(self):
        inner = FakeDataset()
        plan = FaultPlan().add(Fault(FaultKind.MISSING, tile=(1, 1)))
        ds = plan.wrap_dataset(inner)
        ds.load(0, 0)
        assert inner.loads == [(0, 0)]
        # Attribute delegation works too.
        assert ds.rows == 3 and ds.cols == 3

    def test_events_record_each_trigger(self):
        plan = FaultPlan().add(
            Fault(FaultKind.TRANSIENT_IO, tile=(1, 0), failures=1)
        )
        ds = plan.wrap_dataset(FakeDataset())
        with pytest.raises(IOError):
            ds.load(1, 0)
        ds.load(1, 0)
        assert plan.triggered_summary() == {"transient_io": 1}
        assert plan.events[0].tile == (1, 0)
        assert plan.events[0].attempt == 0

    def test_reset_replays_identically(self):
        plan = FaultPlan().add(
            Fault(FaultKind.TRANSIENT_IO, tile=(1, 0), failures=1)
        )
        ds = plan.wrap_dataset(FakeDataset())
        with pytest.raises(IOError):
            ds.load(1, 0)
        ds.load(1, 0)
        plan.reset()
        assert plan.events == []
        with pytest.raises(IOError):
            ds.load(1, 0)  # fails again after reset

    def test_slow_read_records_but_returns(self):
        plan = FaultPlan().add(
            Fault(FaultKind.SLOW_READ, tile=(0, 1), latency=0.0)
        )
        ds = plan.wrap_dataset(FakeDataset())
        out = ds.load(0, 1)
        assert out.shape == (4, 4)
        assert plan.triggered_summary() == {"slow_read": 1}


class TestSpecGrammar:
    def test_bare_seed_is_the_default_mix(self):
        assert parse_fault_spec("42") == FaultSpec(42)
        plan = FaultPlan.from_spec("42", 6, 6)
        assert [(f.kind, f.tile) for f in plan.faults] == [
            (f.kind, f.tile) for f in FaultPlan.random(6, 6, seed=42).faults
        ]

    def test_counts_and_latency(self):
        spec = parse_fault_spec("7:missing=1, hang=2,latency=0.5")
        assert spec == FaultSpec(7, {"missing": 1, "hang": 2}, 0.5)
        plan = spec.plan(4, 4)
        assert [f.kind for f in plan.faults] == [
            FaultKind.MISSING, FaultKind.HANG, FaultKind.HANG
        ]
        assert {f.latency for f in plan.faults} == {0.5}
        assert len({f.tile for f in plan.faults}) == 3

    @pytest.mark.parametrize("spec, named", [
        ("nope", "integer seed"),
        ("7:missing", "key=value"),
        ("11:stall=3", "'stall'"),
        ("11:stage_error=2", "'stage_error'"),
        ("11:hang=1,stage=compute", "'stage'"),
        ("11:pool_exhausted=1", "'pool_exhausted'"),
        ("3:missing=x", "'missing'"),
        ("3:latency=soon", "'latency'"),
        ("3:corrupt=-1", "'corrupt'"),
    ])
    def test_malformed_spec_refused_naming_the_part(self, spec, named):
        with pytest.raises(ValueError, match=named):
            parse_fault_spec(spec)
        with pytest.raises(ValueError, match=named):
            FaultPlan.from_spec(spec, 4, 4)

    def test_non_string_refused(self):
        with pytest.raises(ValueError, match="must be a string"):
            parse_fault_spec(42)

    def test_counts_must_fit_the_grid(self):
        spec = parse_fault_spec("5:missing=9")  # the grammar is fine ...
        with pytest.raises(ValueError, match="9 tile faults.*3x3"):
            spec.plan(3, 3)  # ... the grid is not
