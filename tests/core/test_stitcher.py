"""Stitcher facade: end-to-end phases 1-3 with ground-truth scoring."""

import numpy as np
import pytest

from repro.core.pciam import CcfMode
from repro.core.stitcher import SCHEDULERS, Stitcher, scheduler_options
from repro.grid.neighbors import Direction
from repro.grid.traversal import Traversal


class TestStitcher:
    def test_recovers_ground_truth_positions(self, dataset_4x4):
        res = Stitcher().stitch(dataset_4x4)
        err = res.position_errors()
        assert err is not None
        assert err.max() == 0.0

    def test_least_squares_method(self, dataset_4x4):
        res = Stitcher(position_method="least_squares").stitch(dataset_4x4)
        assert res.position_errors().max() <= 1.0  # integer rounding only

    def test_nonsquare_grid(self, dataset_3x5):
        res = Stitcher().stitch(dataset_3x5)
        assert res.positions.positions.shape == (3, 5, 2)
        assert res.position_errors().max() == 0.0

    def test_pad_to_smooth_option(self, dataset_4x4):
        res = Stitcher(pad_to_smooth=True).stitch(dataset_4x4)
        assert res.position_errors().max() == 0.0

    def test_timing_recorded(self, dataset_4x4):
        res = Stitcher().stitch(dataset_4x4)
        assert res.phase1_seconds > 0
        assert res.phase2_seconds >= 0
        assert res.phase1_seconds > res.phase2_seconds  # paper: phase 1 dominates

    def test_stats_propagated(self, dataset_4x4):
        res = Stitcher().stitch(dataset_4x4)
        assert res.stats["pairs"] == 24

    def test_compose_shapes(self, dataset_4x4):
        res = Stitcher().stitch(dataset_4x4)
        mosaic = res.compose()
        h, w = res.positions.mosaic_shape(dataset_4x4.tile_shape)
        assert mosaic.shape == (h, w)

    def test_paper4_traversal_config(self, dataset_4x4):
        """Paper-faithful configuration still stitches this dataset."""
        res = Stitcher(
            traversal=Traversal.ROW, ccf_mode=CcfMode.PAPER4, n_peaks=2
        ).stitch(dataset_4x4)
        # PAPER4 may fold any negative jitter; positions stay within the
        # stage's error envelope instead of being exact.
        assert res.position_errors().mean() < 10.0


class TestSchedulerSelection:
    """``Stitcher(impl=...)``: no option is silently dropped."""

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError, match="unknown impl"):
            Stitcher(impl="warp-drive")

    @pytest.mark.parametrize("coarse", [False, True], ids=["full", "coarse"])
    @pytest.mark.parametrize("impl", sorted(SCHEDULERS))
    def test_subpixel_equals_simple_cpu(self, impl, coarse, dataset_4x4):
        """The contest and its sub-pixel vertex are the kernel's, so the
        virtual-GPU host half honours ``subpixel`` like everyone else."""
        def estimates(name):
            disp = Stitcher(
                impl=name, subpixel=True, coarse=coarse,
            ).stitch(dataset_4x4).displacements
            return [(t.tx_f, t.ty_f) for direction in Direction
                    for _, _, t in disp.entries(direction)]

        reference = estimates("simple-cpu")
        assert any(x != round(x) for pair in reference for x in pair)
        assert estimates(impl) == reference  # bit for bit

    @pytest.mark.parametrize("impl", ["fiji-baseline", "mt-cpu", "proc-cpu"])
    def test_traversal_rejected_where_it_cannot_be_honoured(self, impl):
        with pytest.raises(ValueError, match="traversal"):
            Stitcher(impl=impl, traversal=Traversal.ROW)

    @pytest.mark.parametrize(
        "impl", ["simple-cpu", "mt-cpu", "proc-cpu", "fiji-baseline",
                 "simple-gpu"],
    )
    def test_watchdog_rejected_where_it_cannot_supervise(self, impl):
        from repro.recovery import WatchdogConfig

        with pytest.raises(ValueError, match="watchdog.*pipelined-cpu"):
            Stitcher(impl=impl,
                     impl_options={"watchdog": WatchdogConfig(item_deadline=1)})

    @pytest.mark.parametrize("impl", sorted(SCHEDULERS))
    def test_unknown_scheduler_option_named(self, impl):
        # A stray key used to fall through ``**kw`` into the kernel options
        # and surface as "pass a kernel or kernel options, not both".
        with pytest.raises(ValueError, match="no option 'threads'") as err:
            Stitcher(impl=impl, impl_options={"threads": 2})
        for accepted in scheduler_options(impl):
            assert accepted in str(err.value)

    def test_scheduler_options_read_off_the_constructors(self):
        assert scheduler_options("mt-cpu") == ["watchdog", "workers"]
        assert "fft_batch" in scheduler_options("pipelined-cpu-numa")
        assert "devices" in scheduler_options("pipelined-gpu")
        for impl in SCHEDULERS:
            assert not {"self", "kernel", "traversal"} & set(
                scheduler_options(impl))

    def test_subpixel_honoured_by_a_parallel_scheduler(self, dataset_4x4):
        ref = Stitcher(subpixel=True).stitch(dataset_4x4)
        res = Stitcher(
            subpixel=True, impl="mt-cpu", impl_options={"workers": 2}
        ).stitch(dataset_4x4)
        assert res.displacements.west == ref.displacements.west
        assert res.displacements.north == ref.displacements.north
        assert any(
            t is not None and t.tx_f is not None
            for row in res.displacements.west for t in row
        )
        assert np.array_equal(res.positions.positions, ref.positions.positions)

    def test_traversal_reaches_the_scheduler(self, dataset_4x4):
        ref = Stitcher().stitch(dataset_4x4)
        res = Stitcher(
            traversal=Traversal.ROW, impl="pipelined-cpu",
            impl_options={"workers": 2},
        ).stitch(dataset_4x4)
        assert res.implementation == "pipelined-cpu"
        assert np.array_equal(res.positions.positions, ref.positions.positions)
