"""Fault injection on the *reference* channel of a multi-channel stitch.

``Stitcher.stitch_channels`` registers once and reuses positions, so any
damage during the reference registration must flow -- positions, skip
provenance, error policy -- to every dependent channel.  These tests
drive the two damage flavours the fault layer models (dirty data via an
injected :class:`FaultPlan`, physical deletion on disk) and assert the
dependent channels stay consistent with the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stitcher import Stitcher
from repro.faults import FaultPlan
from repro.io.dataset import TileDataset
from repro.recovery import PipelineError
from repro.synth import make_synthetic_dataset


def _same_scan(tmp_path_factory, name, seed=61):
    """Two channels of one scan: same generator, same stage positions."""
    root = tmp_path_factory.mktemp(name)
    kwargs = dict(rows=4, cols=4, tile_height=64, tile_width=64,
                  overlap=0.25, seed=seed)
    ch0 = make_synthetic_dataset(root / "ch0", **kwargs)
    ch1 = make_synthetic_dataset(root / "ch1", **kwargs)
    return ch0, ch1


@pytest.fixture(scope="module")
def channels(tmp_path_factory):
    return _same_scan(tmp_path_factory, "mcf")


@pytest.fixture(scope="module")
def clean_results(channels):
    ch0, ch1 = channels
    return Stitcher().stitch_channels([ch0, ch1])


class TestDirtyReference:
    """Seeded dirty-data injection on the reference channel only."""

    def _plan(self):
        return FaultPlan.random(4, 4, seed=17, missing=1, corrupt=1,
                                transient=2, slow=0)

    def test_dependent_channel_tracks_degraded_reference(
        self, channels, clean_results
    ):
        ch0, ch1 = channels
        plan = self._plan()
        res_a, res_b = Stitcher(
            max_retries=2, on_tile_error="skip"
        ).stitch_channels([plan.wrap_dataset(ch0), ch1])

        permanent = sorted(
            f.tile for f in plan.faults if f.kind.name in ("MISSING", "CORRUPT")
        )
        # Identical positions, including the nominal fallbacks for
        # degraded tiles.
        assert np.array_equal(res_a.positions.positions,
                              res_b.positions.positions)
        # Provenance: the dependent channel reports the same skipped
        # tiles although its own files are pristine.
        assert res_a.skipped_tiles() == permanent
        assert res_b.skipped_tiles() == permanent
        assert res_b.on_tile_error == "skip"
        assert res_b.stats["fault_report"].injected == plan.summary()

        # Both mosaics hole the same tiles.
        _, mask_a = res_a.compose(return_mask=True)
        _, mask_b = res_b.compose(return_mask=True)
        assert np.array_equal(mask_a, mask_b)
        assert sorted(zip(*np.nonzero(~mask_b))) == [
            (int(r), int(c)) for r, c in permanent
        ]

        # Survivors agree with the clean two-channel run.
        clean_a, _ = clean_results
        survivors = np.ones((4, 4), dtype=bool)
        for r, c in permanent:
            survivors[r, c] = False
        delta = np.abs(
            res_b.positions.positions - clean_a.positions.positions
        )[survivors]
        assert float(delta.max()) <= 1.0

    def test_transients_recover_without_skips(self, channels):
        """Retry-recoverable faults leave no holes in any channel."""
        ch0, ch1 = channels
        plan = FaultPlan.random(4, 4, seed=23, missing=0, corrupt=0,
                                transient=3, slow=0)
        res_a, res_b = Stitcher(
            max_retries=2, on_tile_error="skip"
        ).stitch_channels([plan.wrap_dataset(ch0), ch1])
        assert res_a.skipped_tiles() == []
        assert res_b.skipped_tiles() == []
        assert len(res_a.stats["fault_report"].retries) >= 3
        _, mask_b = res_b.compose(return_mask=True)
        assert mask_b.all()

    def test_abort_policy_fails_before_any_dependent_result(self, channels):
        ch0, ch1 = channels
        plan = FaultPlan.random(4, 4, seed=17, missing=1, corrupt=0,
                                transient=0, slow=0)
        with pytest.raises(PipelineError):
            Stitcher(max_retries=1, on_tile_error="abort").stitch_channels(
                [plan.wrap_dataset(ch0), ch1]
            )


class TestPhysicallyDamagedReference:
    """Reference tiles deleted/corrupted on disk (not injected)."""

    @pytest.fixture()
    def damaged(self, tmp_path_factory):
        ch0, ch1 = _same_scan(tmp_path_factory, "mcf-disk", seed=67)
        ch0.path(0, 3).unlink()
        ch0.path(2, 1).write_bytes(b"II*\x00junk")
        return TileDataset(ch0.directory), ch1

    def test_skip_tiles_propagate_across_channels(self, damaged):
        ch0, ch1 = damaged
        res_a, res_b = Stitcher(
            max_retries=1, on_tile_error="skip"
        ).stitch_channels([ch0, ch1])
        assert res_a.skipped_tiles() == [(0, 3), (2, 1)]
        assert res_b.skipped_tiles() == [(0, 3), (2, 1)]
        assert np.array_equal(res_a.positions.positions,
                              res_b.positions.positions)
        _, mask_b = res_b.compose(return_mask=True)
        assert not mask_b[0, 3] and not mask_b[2, 1]
        assert int(mask_b.sum()) == 16 - 2

    def test_reference_choice_controls_exposure(self, damaged):
        """Registering on the undamaged channel sees no faults at all --
        the knob `reference=` exists exactly for this."""
        ch0, ch1 = damaged
        res_a, res_b = Stitcher(
            max_retries=1, on_tile_error="skip"
        ).stitch_channels([ch0, ch1], reference=1)
        # Channel 1 is clean, so nothing is skipped anywhere...
        assert res_b.skipped_tiles() == []
        assert res_a.skipped_tiles() == []
        assert res_a.stats["positions_from_channel"] == 1
        # ...but composing the damaged channel 0 still needs its policy:
        # the shared on_tile_error="skip" drops the two dead tiles at
        # render time instead of raising.
        _, mask_a = res_a.compose(return_mask=True)
        assert not mask_a[0, 3] and not mask_a[2, 1]
        assert int(mask_a.sum()) == 16 - 2
