"""End-to-end equivalence of every scheduler through the one entry point.

Every test drives ``Stitcher(impl=NAME)`` -- phases 1 and 2 -- for all
eight scheduler names.  Invariants:

1. every scheduler resolves the *same absolute positions* as the
   sequential reference, whether or not a tracer/metrics registry is
   attached (instrumentation must be behaviour-neutral), coarse mode on
   or off;
2. under a skip policy with a damaged dataset, every scheduler reports
   the *same skip/drop accounting* (same skipped tiles, same cancelled
   pairs), traced or not;
3. a checkpointed run resumes under any scheduler with nothing
   recomputed: ``resumed_pairs`` + ``pairs`` partition the grid.
"""

import numpy as np
import pytest

from repro.core.ccf import ccf_at
from repro.core.peak import peak_candidates
from repro.core.stitcher import SCHEDULERS, Stitcher
from repro.impls import ALL_IMPLEMENTATIONS
from repro.observe import MetricsRegistry, Tracer
from repro.synth import make_synthetic_dataset

IMPL_NAMES = sorted(ALL_IMPLEMENTATIONS)

MISSING_PAIRS = [
    ("north", 2, 1),
    ("north", 3, 1),
    ("west", 2, 1),
    ("west", 2, 2),
]


def test_scheduler_table_names_every_implementation():
    assert sorted(SCHEDULERS) == IMPL_NAMES
    for name, cls in ALL_IMPLEMENTATIONS.items():
        assert cls.name == name


@pytest.fixture(scope="module")
def reference(dataset_4x4):
    return Stitcher().stitch(dataset_4x4)


@pytest.fixture(scope="module")
def damaged_dataset(tmp_path_factory):
    """4x4 grid with tile (2,1) deleted: 4 pairs become uncomputable."""
    d = tmp_path_factory.mktemp("damaged")
    ds = make_synthetic_dataset(
        d, rows=4, cols=4, tile_height=64, tile_width=64, overlap=0.25, seed=7
    )
    ds.path(2, 1).unlink()
    return ds


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("impl_name", IMPL_NAMES)
def test_identical_positions(impl_name, traced, dataset_4x4, reference):
    kw = {}
    tracer = None
    if traced:
        tracer = Tracer()
        kw = {"trace": tracer, "metrics": MetricsRegistry()}
    result = Stitcher(impl=impl_name, **kw).stitch(dataset_4x4)
    assert result.implementation == impl_name
    assert result.phase2_seconds > 0
    assert np.array_equal(
        result.positions.positions, reference.positions.positions
    ), f"{impl_name} (traced={traced}) diverged from the reference positions"
    if traced:
        # Tracing must actually have observed the run, not just stayed out
        # of its way.
        assert tracer.span_count() > 0
        assert "phase1" in tracer.tracks()
        assert "stitcher" in tracer.tracks()


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("impl_name", IMPL_NAMES)
def test_identical_skip_accounting(impl_name, traced, damaged_dataset):
    kw = {}
    if traced:
        kw = {"trace": Tracer(), "metrics": MetricsRegistry()}
    result = Stitcher(
        impl=impl_name, max_retries=1, retry_backoff=0.0,
        on_tile_error="skip", **kw,
    ).stitch(damaged_dataset)
    report = result.fault_report

    # Every scheduler must drop exactly the unreadable tile and exactly
    # its four incident pairs -- nothing more, nothing less.
    assert report.skipped_tiles == [(2, 1)]
    assert report.skipped_pairs == MISSING_PAIRS
    assert sorted(result.displacements.missing_pairs()) == MISSING_PAIRS
    assert result.stats["skipped_pairs"] == 4
    # Phase 2 ran once, here, for every scheduler: the stranded tile is
    # placed from the nominal stage model and reported as degraded.
    assert report.degraded_tiles == [(2, 1)]
    if traced:
        # Metric counters are *event* counts (a band-partitioned impl may
        # hit the bad tile once per band), so bound rather than equate;
        # the FaultReport above is the deduplicated source of truth.
        reg = kw["metrics"]
        assert reg.counter("read.skipped_tiles").value >= 1
        assert reg.counter("pairs.skipped").value >= 4


@pytest.fixture(scope="module")
def adjacent_holes_dataset(tmp_path_factory):
    """3x4 grid with neighbours (1,1) and (1,2) deleted: the west pair
    between them is lost to both drops, so 7 pairs are lost, not 8."""
    d = tmp_path_factory.mktemp("holes")
    ds = make_synthetic_dataset(
        d, rows=3, cols=4, tile_height=48, tile_width=48, overlap=0.25, seed=5
    )
    ds.path(1, 1).unlink()
    ds.path(1, 2).unlink()
    return ds


@pytest.mark.parametrize("impl_name", IMPL_NAMES)
def test_skipped_pair_counter_counts_each_pair_once(
    impl_name, adjacent_holes_dataset
):
    result = Stitcher(
        impl=impl_name, on_tile_error="skip", metrics=MetricsRegistry(),
    ).stitch(adjacent_holes_dataset)
    skipped = result.fault_report.skipped_pairs
    assert len(skipped) == 7
    assert result.stats["metrics"]["counters"]["pairs.skipped"] == len(skipped)


def _collect_translations(displacements):
    out = []
    for arr in (displacements.west, displacements.north):
        for row in arr:
            for t in row:
                out.append(None if t is None else (t.correlation, t.tx, t.ty))
    return out


def naive_translations(dataset, n_peaks=2):
    """Fig. 2 from its definition, sharing nothing with the kernel but the
    reference scorer: complex ``np.fft``, argmax peaks, the direct
    five-pass ``ccf_at`` -- no plan, workspace, half-spectrum or table.
    Laid out like :func:`_collect_translations`."""
    tiles = {(r, c): dataset.load(r, c).astype(np.float64)
             for r in range(dataset.rows) for c in range(dataset.cols)}
    spectra = {rc: np.fft.fft2(tile) for rc, tile in tiles.items()}

    def register(first, second):
        cross = spectra[first] * np.conj(spectra[second])
        surface = np.abs(np.fft.ifft2(cross / np.maximum(np.abs(cross), 1e-12)))
        best = (-np.inf, 0, 0)
        for flat in np.argsort(-surface, axis=None, kind="stable")[:n_peaks]:
            py, px = np.unravel_index(flat, surface.shape)
            for tx, ty in peak_candidates(py, px, surface.shape, extended=True):
                c = ccf_at(tiles[first], tiles[second], tx, ty)
                if c > best[0]:
                    best = (c, tx, ty)
        return best

    return [
        register((r - dr, c - dc), (r, c)) if r >= dr and c >= dc else None
        for dr, dc in ((0, 1), (1, 0))  # west array, then north
        for r in range(dataset.rows) for c in range(dataset.cols)
    ]


@pytest.mark.parametrize("real", [True, False], ids=["half-spectrum", "complex"])
@pytest.mark.parametrize("impl_name", IMPL_NAMES)
def test_half_spectrum_matrix_identical(impl_name, real, dataset_4x4):
    """Every scheduler, r2c on or off, agrees with the naive oracle.

    Translations must match exactly; correlations to 1e-9 (the
    summed-area-table CCF evaluates the same Pearson r in a different
    summation order than the direct scan, and neither that nor the
    transform scheme may ever change which candidate wins).
    """
    ref_t = naive_translations(dataset_4x4)
    run = Stitcher(impl=impl_name, real_transforms=real).stitch(dataset_4x4)
    got_t = _collect_translations(run.displacements)
    assert len(got_t) == len(ref_t)
    for got, want in zip(got_t, ref_t):
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[1:] == want[1:], (
            f"{impl_name} (real={real}) moved a translation: {got} vs {want}"
        )
        assert got[0] == pytest.approx(want[0], abs=1e-9), (
            f"{impl_name} (real={real}) drifted a correlation"
        )


@pytest.mark.parametrize("real", [True, False], ids=["half-spectrum", "complex"])
@pytest.mark.parametrize("impl_name", IMPL_NAMES)
def test_half_spectrum_matrix_skip_accounting(impl_name, real, damaged_dataset):
    """r2c on/off must not change skip/drop accounting either."""
    result = Stitcher(
        impl=impl_name, real_transforms=real, on_tile_error="skip",
    ).stitch(damaged_dataset)
    assert result.fault_report.skipped_tiles == [(2, 1)]
    assert sorted(result.displacements.missing_pairs()) == MISSING_PAIRS


def test_surviving_pairs_match_reference(damaged_dataset):
    """The pairs that survive a skip run agree across schedulers."""
    runs = {
        name: Stitcher(impl=name, on_tile_error="skip").stitch(damaged_dataset)
        for name in IMPL_NAMES
    }
    ref = runs["simple-cpu"]
    for name, run in runs.items():
        got = run.displacements
        for arr_ref, arr_got in ((ref.displacements.west, got.west),
                                 (ref.displacements.north, got.north)):
            for row_ref, row_got in zip(arr_ref, arr_got):
                for tr, tg in zip(row_ref, row_got):
                    if tr is None:
                        assert tg is None, f"{name} computed an extra pair"
                    else:
                        assert (tg.tx, tg.ty) == (tr.tx, tr.ty), (
                            f"{name} diverged on a surviving pair"
                        )
        # Same damage, same phase 2: positions agree tile for tile.
        assert np.array_equal(
            run.positions.positions, ref.positions.positions
        ), f"{name} placed the degraded grid differently"


@pytest.mark.parametrize("impl_name", IMPL_NAMES)
def test_coarse_positions_and_provenance(impl_name, dataset_4x4, reference):
    """Coarse mode never changes an answer, under any scheduler, and every
    pair says which path produced it."""
    result = Stitcher(impl=impl_name, coarse=True).stitch(dataset_4x4)
    assert np.array_equal(
        result.positions.positions, reference.positions.positions
    )
    provs = [
        t.provenance
        for arr in (result.displacements.west, result.displacements.north)
        for row in arr for t in row if t is not None
    ]
    assert set(provs) <= {"coarse", "fallback"}
    assert result.stats["coarse_hits"] == provs.count("coarse")
    assert result.stats.get("full_fallbacks", 0) == provs.count("fallback")


@pytest.mark.parametrize("impl_name", IMPL_NAMES)
def test_checkpoint_then_resume_partitions_the_grid(
    impl_name, dataset_4x4, reference, tmp_path
):
    """A run checkpointed by the sequential scheduler, with half its
    journal cut away, resumes under every scheduler: journaled pairs are
    served, the rest recomputed, positions unchanged."""
    ckpt = tmp_path / "ckpt"
    first = Stitcher(checkpoint=str(ckpt), journal_fsync=False).stitch(
        dataset_4x4
    )
    assert first.stats["pairs"] == 24
    journal = ckpt / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[:13]))  # header + 12 of 24 pairs

    resumed = Stitcher(
        impl=impl_name, checkpoint=str(ckpt), resume="require",
        journal_fsync=False,
    ).stitch(dataset_4x4)
    assert resumed.stats["resumed_pairs"] == 12
    assert resumed.stats["pairs"] == 12
    assert resumed.stats["journal"]["resumed_pairs"] == 12
    assert resumed.stats["journal"]["recorded_pairs"] == 12
    assert np.array_equal(
        resumed.positions.positions, reference.positions.positions
    )
    for arr_a, arr_b in (
        (first.displacements.west, resumed.displacements.west),
        (first.displacements.north, resumed.displacements.north),
    ):
        for row_a, row_b in zip(arr_a, arr_b):
            assert row_a == row_b
