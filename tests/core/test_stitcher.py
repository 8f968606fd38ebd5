"""Stitcher facade: end-to-end phases 1-3 with ground-truth scoring."""

import numpy as np
import pytest

from repro.core.options import DEFAULT_SCHEDULER_OPTIONS
from repro.core.pciam import CcfMode
from repro.core.stitcher import SCHEDULERS, Stitcher, scheduler_options
from repro.grid.neighbors import Direction
from repro.grid.traversal import Traversal
from repro.synth import make_synthetic_dataset


def translations(result) -> list:
    return [(d.value, r, c, t.tx, t.ty, t.correlation, t.provenance)
            for d in Direction
            for r, c, t in result.displacements.entries(d)]


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


#: ``name -> (scheduler, impl_options)``: every scheduler, plus
#: Pipelined-CPU's per-socket configuration under the paper's name for it.
CONFIGS = {name: (name, {}) for name in SCHEDULERS}
CONFIGS["pipelined-cpu-numa"] = ("pipelined-cpu", {"partitions": 2})


class TestSchedulerSelection:
    """``Stitcher(impl=...)``: no option is silently dropped."""

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError, match="unknown impl"):
            Stitcher(impl="warp-drive")

    @pytest.mark.parametrize("coarse", [False, True], ids=["full", "coarse"])
    @pytest.mark.parametrize("impl", sorted(CONFIGS))
    def test_subpixel_equals_simple_cpu(self, impl, coarse, dataset_4x4):
        """The contest and its sub-pixel vertex are the kernel's, so the
        virtual-GPU host half honours ``subpixel`` like everyone else."""
        def estimates(name):
            name, impl_options = CONFIGS[name]
            disp = Stitcher(
                impl=name, impl_options=impl_options, subpixel=True,
                coarse=coarse,
            ).stitch(dataset_4x4).displacements
            return [(t.tx_f, t.ty_f) for direction in Direction
                    for _, _, t in disp.entries(direction)]

        reference = estimates("simple-cpu")
        assert any(x != round(x) for pair in reference for x in pair)
        assert estimates(impl) == reference  # bit for bit

    @pytest.fixture(scope="class")
    def paper_scale(self, tmp_path_factory):
        """A 2x3 grid of the paper's 696x520 tiles (the default phase 1
        is coarse-to-fine there), with its simple-cpu translations."""
        ds = make_synthetic_dataset(
            tmp_path_factory.mktemp("paper-scale"), rows=2, cols=3,
            tile_height=520, tile_width=696, overlap=0.10, seed=0,
        )
        return ds, translations(Stitcher().stitch(ds))

    @pytest.mark.parametrize("impl", sorted(SCHEDULERS))
    def test_default_at_paper_scale_equals_simple_cpu(self, impl,
                                                      paper_scale):
        """The Stitcher resolves the tile-size gate once, before any
        scheduler runs, so all eight run coarse-to-fine here and land on
        simple-cpu's translations, hits and fallbacks alike."""
        ds, reference = paper_scale
        assert {t[-1] for t in reference} == {"coarse", "fallback"}
        assert translations(Stitcher(impl=impl).stitch(ds)) == reference

    def test_every_scheduler_honours_every_traversal(self, dataset_4x4,
                                                     dataset_3x5):
        """Every scheduler takes every order, and the order changes no
        translation: each equals simple-cpu's bit for bit."""
        def translations(ds, impl, traversal):
            disp = Stitcher(impl=impl, traversal=traversal).stitch(
                ds).displacements
            return repr((disp.west, disp.north))

        for ds in (dataset_4x4, dataset_3x5):
            reference = translations(ds, "simple-cpu",
                                     Traversal.CHAINED_DIAGONAL)
            for impl in sorted(SCHEDULERS):
                for traversal in Traversal:
                    assert translations(ds, impl, traversal) == reference, (
                        ds.rows, ds.cols, impl, traversal)

    @pytest.mark.parametrize("impl", ["fiji-baseline", "simple-gpu"])
    def test_watchdog_rejected_where_it_cannot_supervise(self, impl):
        from repro.recovery import WatchdogConfig

        with pytest.raises(ValueError, match="watchdog.*pipelined-cpu"):
            Stitcher(impl=impl,
                     impl_options={"watchdog": WatchdogConfig(item_deadline=1)})

    @pytest.mark.parametrize("impl", sorted(CONFIGS))
    def test_unknown_scheduler_option_named(self, impl):
        # A stray key used to fall through ``**kw`` into the kernel options
        # and surface as "pass a kernel or kernel options, not both".
        impl, impl_options = CONFIGS[impl]
        with pytest.raises(ValueError, match="no option 'threads'") as err:
            Stitcher(impl=impl, impl_options={**impl_options, "threads": 2})
        for accepted in scheduler_options(impl):
            assert accepted in str(err.value)

    def test_scheduler_options_read_off_the_constructors(self):
        # Validation states the default's keys rather than import it.
        assert scheduler_options("simple-cpu") == DEFAULT_SCHEDULER_OPTIONS
        assert scheduler_options("mt-cpu") == ["watchdog", "workers"]
        assert scheduler_options("pipelined-cpu") == ["partitions", "watchdog"]
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
            impl_options={"partitions": 2},
        ).stitch(dataset_4x4)
        assert res.implementation == "pipelined-cpu"
        assert np.array_equal(res.positions.positions, ref.positions.positions)
