"""The overlapped default schedule against the inline reference.

``compute_grid_displacements`` runs its tile stage and its pair stage
either one after the other or overlapped by one tile (pair stage on a
helper thread).  Which one is a decision the code takes from the tile size
and the usable CPUs; these tests force each through the private
``_overlap`` argument and require that nothing observable tells them
apart: translations, counts, fault report, journal bytes, the exception a
failure surfaces as -- and that no thread survives the call.
"""

import dataclasses
import threading

import numpy as np
import pytest

import repro.core.displacement as displacement
from repro.analysis.tracefmt import tracer_trace_events, validate_trace_events
from repro.core.coarse import CoarseConfig
from repro.core.displacement import (
    PAIR_TRACK,
    TILE_TRACK,
    compute_grid_displacements,
)
from repro.core.kernel import Phase1Kernel
from repro.core.pciam import CcfMode
from repro.faults import ErrorPolicy
from repro.faults.report import FaultReport
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import TileGrid
from repro.grid.traversal import Traversal
from repro.observe import Tracer
from repro.pipeline.graph import PipelineError
from repro.recovery.journal import RunJournal
from repro.synth import make_synthetic_dataset

ROWS, COLS = 3, 4
BAD_TILE = (1, 2)  # interior: four incident pairs
FINGERPRINT = {"suite": "displacement-overlap"}


@pytest.fixture(scope="module")
def tiles(tmp_path_factory):
    """A 3x4 acquisition held in memory, in its stored uint16."""
    ds = make_synthetic_dataset(
        tmp_path_factory.mktemp("overlap"), rows=ROWS, cols=COLS,
        tile_height=48, tile_width=64, overlap=0.25, seed=5,
    )
    return {(r, c): ds.load(r, c, dtype=None)
            for r in range(ROWS) for c in range(COLS)}


class Loader:
    """``load_tile`` that fails ``failures`` times on ``BAD_TILE``."""

    def __init__(self, tiles, failures=0):
        self.tiles = tiles
        self.left = failures
        self.calls = []

    def __call__(self, row, col):
        self.calls.append((row, col))
        if (row, col) == BAD_TILE and self.left > 0:
            self.left -= 1
            raise OSError(f"injected read fault on {BAD_TILE}")
        return self.tiles[(row, col)]


class BoomKernel(Phase1Kernel):
    """Raises ``boom`` from inside the ``at``-th pair registration."""

    boom: BaseException = RuntimeError("injected register_pair failure")
    at = 5

    def register_pair(self, *args, **kwargs):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == self.at:
            raise self.boom
        return super().register_pair(*args, **kwargs)


#: name -> (reads of BAD_TILE that fail, error policy, kernel class)
SCENARIOS = {
    "clean": (0, None, Phase1Kernel),
    "fault-no-policy": (99, None, Phase1Kernel),
    "fault-retried-under-abort": (
        1, ErrorPolicy(max_retries=2, on_exhausted="abort"), Phase1Kernel),
    "fault-under-skip": (
        99, ErrorPolicy(max_retries=1, on_exhausted="skip"), Phase1Kernel),
    "exhausted-retries": (
        99, ErrorPolicy(max_retries=2, on_exhausted="abort"), Phase1Kernel),
    "register-pair-raises": (0, None, BoomKernel),
}


def translations(result):
    return [
        None if t is None else dataclasses.astuple(t)
        for arr in (result.west, result.north) for row in arr for t in row
    ]


def run_once(tiles, overlap, *, scenario="clean", traversal, coarse,
             journal_path=None, tracer=None):
    """One run; everything an observer could compare, as a dict."""
    failures, policy, kernel_cls = SCENARIOS[scenario]
    loader = Loader(tiles, failures)
    report = FaultReport() if policy is not None else None
    journal = None
    if journal_path is not None:
        journal = RunJournal.open(journal_path, FINGERPRINT, fsync=False)
    kernel = kernel_cls(
        ccf_mode=CcfMode.EXTENDED, n_peaks=2,
        coarse=CoarseConfig() if coarse else None,
        error_policy=policy, fault_report=report, journal=journal,
        tracer=tracer,
    )
    seen = {"error": None, "result": None}
    try:
        seen["result"] = compute_grid_displacements(
            loader, ROWS, COLS, traversal=traversal, kernel=kernel,
            _overlap=overlap,
        )
    except Exception as exc:
        stages = [s for s, _ in getattr(exc, "failures", [])]
        seen["error"] = (type(exc), str(exc), stages)
    finally:
        if journal is not None:
            journal.close()
    assert [t.name for t in threading.enumerate()
            if t.name == "phase1-pairs"] == []
    seen["fault_report"] = None if report is None else report.to_dict()
    seen["journal"] = (None if journal_path is None
                       else journal_path.read_bytes())
    seen["loads"] = loader.calls
    return seen


def assert_same(inline, overlapped):
    assert overlapped["error"] == inline["error"]
    assert overlapped["fault_report"] == inline["fault_report"]
    assert overlapped["journal"] == inline["journal"]
    if inline["result"] is None:
        # The overlapped tile stage may have read one tile further.
        n = len(inline["loads"])
        assert overlapped["loads"][:n] == inline["loads"]
        assert len(overlapped["loads"]) <= n + 1
        return
    assert overlapped["loads"] == inline["loads"]
    a, b = inline["result"], overlapped["result"]
    assert translations(b) == translations(a)
    sa, sb = dict(a.stats), dict(b.stats)
    peak_a = sa.pop("peak_live_transforms")
    peak_b = sb.pop("peak_live_transforms")
    assert sb == sa
    assert list(b.stats) == list(a.stats)  # same keys in the same order
    assert peak_a <= peak_b <= peak_a + 1


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("journaled", [False, True], ids=["nojournal", "journal"])
@pytest.mark.parametrize("coarse", [False, True], ids=["full", "coarse"])
@pytest.mark.parametrize("traversal", list(Traversal), ids=lambda t: t.value)
def test_overlapped_equals_inline(tiles, tmp_path, traversal, coarse,
                                  journaled, scenario):
    runs = {}
    for overlap in (False, True):
        path = tmp_path / f"journal-{overlap}.jsonl" if journaled else None
        runs[overlap] = run_once(
            tiles, overlap, scenario=scenario, traversal=traversal,
            coarse=coarse, journal_path=path,
        )
    assert_same(runs[False], runs[True])
    # The scenario did what its name says.
    failed = runs[False]["error"]
    if scenario in ("clean", "fault-retried-under-abort", "fault-under-skip"):
        assert failed is None
    elif scenario == "fault-no-policy":
        assert failed[0] is OSError
    elif scenario == "exhausted-retries":
        assert failed[0] is PipelineError and failed[2] == ["read"]
    else:
        assert failed[0] is RuntimeError
    if scenario == "fault-under-skip":
        stats = runs[True]["result"].stats
        assert stats["skipped_tiles"] == [BAD_TILE]
        assert stats["skipped_pairs"] == 4


@pytest.mark.parametrize("coarse", [False, True], ids=["full", "coarse"])
@pytest.mark.parametrize("traversal", list(Traversal), ids=lambda t: t.value)
def test_resume_from_a_half_written_journal(tiles, tmp_path, traversal, coarse):
    whole = tmp_path / "whole.jsonl"
    reference = run_once(tiles, False, traversal=traversal, coarse=coarse,
                         journal_path=whole)
    lines = whole.read_bytes().splitlines(keepends=True)
    # Header + the first 7 of 17 pairs, then a record torn mid-write.
    half = b"".join(lines[:8]) + lines[8][: len(lines[8]) // 2]
    runs = {}
    for overlap in (False, True):
        path = tmp_path / f"resumed-{overlap}.jsonl"
        path.write_bytes(half)
        runs[overlap] = run_once(tiles, overlap, traversal=traversal,
                                 coarse=coarse, journal_path=path)
    assert_same(runs[False], runs[True])
    resumed = runs[True]["result"]
    assert translations(resumed) == translations(reference["result"])
    assert resumed.stats["resumed_pairs"] == 7
    assert resumed.stats["pairs"] == 10
    # Tiles whose pairs were all journaled are not read again.
    assert resumed.stats["reads"] < ROWS * COLS


def test_gate_decides_without_an_option(tiles, monkeypatch):
    """Unforced, the schedule follows tile pixels and usable CPUs."""
    started = []
    real = displacement._on_helper_thread
    monkeypatch.setattr(displacement, "_on_helper_thread",
                        lambda consume: started.append(1) or real(consume))

    def run():
        started.clear()
        compute_grid_displacements(Loader(tiles), ROWS, COLS)
        return bool(started)

    assert not run()  # 48x64 px tiles: far below the gate
    monkeypatch.setattr(displacement, "OVERLAP_MIN_TILE_PIXELS", 48 * 64)
    monkeypatch.setattr(displacement, "_usable_cpus", lambda: 2)
    assert run()
    monkeypatch.setattr(displacement, "_usable_cpus", lambda: 1)
    assert not run()


@pytest.mark.parametrize(
    "boom", [KeyboardInterrupt(), SystemExit(3)], ids=lambda b: type(b).__name__)
def test_interrupt_in_the_pair_stage_stops_the_tile_stage(tiles, boom):
    class Interrupted(BoomKernel):
        pass

    Interrupted.boom, Interrupted.at = boom, 2
    loader = Loader(tiles)
    with pytest.raises(type(boom)) as caught:
        compute_grid_displacements(
            loader, ROWS, COLS, kernel=Interrupted(), _overlap=True)
    assert caught.value is boom
    # The second pair belongs to the third or fourth traversal step; the
    # tile stage was at most one step ahead of it when it stopped.
    assert len(loader.calls) <= 5
    assert all(t.name != "phase1-pairs" for t in threading.enumerate())


def test_pair_stage_failure_supersedes_a_later_read_failure(tiles):
    """Inline, the pair failure of step k fires before step k+1 is read."""

    class FailsBoth(Loader):
        def __call__(self, row, col):
            if len(self.calls) == 3:
                self.calls.append((row, col))
                raise OSError("the read after the failing pair")
            return super().__call__(row, col)

    class Early(BoomKernel):
        at = 2

    for overlap in (False, True):
        with pytest.raises(RuntimeError, match="injected register_pair"):
            compute_grid_displacements(
                FailsBoth(tiles), ROWS, COLS, traversal=Traversal.ROW,
                kernel=Early(), _overlap=overlap)


def test_overlapped_trace_keeps_each_track_serial(tiles):
    tracer = Tracer()
    disp = run_once(tiles, True, traversal=Traversal.CHAINED_DIAGONAL,
                    coarse=True, tracer=tracer)["result"]
    events = tracer_trace_events(tracer)
    validate_trace_events(events)
    by_track = {}
    for span in tracer.spans:
        by_track.setdefault(span.track, []).append(span)
    assert set(by_track) == {TILE_TRACK, PAIR_TRACK}
    assert {s.name for s in by_track[PAIR_TRACK]} == {"pair"}
    assert {s.name for s in by_track[TILE_TRACK]} == {
        "read", "downsample", "fft", "tilestats"}
    for spans in by_track.values():
        spans.sort(key=lambda s: s.start)
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.end <= later.start
    assert len(by_track[PAIR_TRACK]) == 2 * ROWS * COLS - ROWS - COLS
    # Each pair span says which path produced the pair it timed.
    provenance = {s.key: s.args["provenance"] for s in by_track[PAIR_TRACK]}
    assert provenance == {
        str(p): disp.get(p.direction, p.second.row, p.second.col).provenance
        for p in grid_pairs(TileGrid(ROWS, COLS))}
    assert set(provenance.values()) <= {"coarse", "fallback"}


def test_live_products_hold_no_float64_copy_of_the_raw_tile(tiles):
    """With a native-dtype loader the retained pixels stay uint16."""
    held = []

    class Spy(Phase1Kernel):
        def register_pair(self, disp, direction, row, col, first, second,
                          *args, **kwargs):
            held.extend([first[0], second[0]])
            return super().register_pair(disp, direction, row, col, first,
                                         second, *args, **kwargs)

    reference = compute_grid_displacements(
        lambda r, c: tiles[(r, c)].astype(np.float64), ROWS, COLS)
    native = compute_grid_displacements(Loader(tiles), ROWS, COLS, kernel=Spy())
    assert {a.dtype for a in held} == {np.dtype(np.uint16)}
    assert translations(native) == translations(reference)


def test_counts_survive_aggressive_thread_switching(tiles):
    """The two stages share one ``stats`` dict (one writer per key) and the
    built/released counters; switch threads every few bytecodes and the
    books must still balance exactly."""
    import sys
    import time

    inline = compute_grid_displacements(Loader(tiles), ROWS, COLS,
                                        _overlap=False)
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5.0
        for _ in range(40):
            got = compute_grid_displacements(Loader(tiles), ROWS, COLS,
                                             _overlap=True)
            assert translations(got) == translations(inline)
            for key in ("reads", "ffts", "pairs"):
                assert got.stats[key] == inline.stats[key]
            assert (inline.stats["peak_live_transforms"]
                    <= got.stats["peak_live_transforms"]
                    <= inline.stats["peak_live_transforms"] + 1)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(before)
