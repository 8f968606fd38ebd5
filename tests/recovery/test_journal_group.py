"""Group commit: one journal fsync per phase-1 traversal step.

The pair stage of :func:`~repro.core.displacement.compute_grid_displacements`
wraps each traversal step's pairs in ``journal.group()``.  Every record is
still written and flushed as it lands -- so it survives SIGKILL -- but the
step's pair records share one fsync.  These tests pin the fsync count,
that the journal's bytes do not change, that a kill inside an open group
resumes bit-identically, and that mt-cpu's partition threads group per
partition step.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.stitcher import Stitcher
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import TileGrid
from repro.grid.traversal import Traversal, column_partitions, traverse
from repro.impls import ALL_IMPLEMENTATIONS
from repro.observe.metrics import MetricsRegistry
from repro.recovery import journal as journal_module
from repro.recovery.harness import subprocess_env
from repro.recovery.journal import (
    RunJournal,
    checkpoint_journal_path,
    load_journal,
)

SRC_DIR = Path(repro.__file__).resolve().parents[1]
FP = {"dataset": {"rows": 1, "cols": 2}, "options": {}}


def steps_with_pairs(order, pairs) -> int:
    """Traversal steps at which at least one of ``pairs`` completes."""
    seen, steps = set(), 0
    for pos in order:
        seen.add(pos)
        steps += any(
            pos in (p.first, p.second) and {p.first, p.second} <= seen
            for p in pairs
        )
    return steps


@pytest.fixture()
def fsyncs(monkeypatch):
    """Count every ``os.fsync`` in this process, from any thread."""
    count = SimpleNamespace(value=0)
    lock = threading.Lock()
    real = os.fsync

    def counting(fd):
        with lock:
            count.value += 1
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return count


def milestones(path) -> int:
    return load_journal(path).stats.milestones


class TestGroupContract:
    def test_grouped_pairs_share_one_fsync(self, tmp_path, fsyncs):
        from repro.core.displacement import Translation

        metrics = MetricsRegistry()
        j = RunJournal.create(tmp_path / "j.jsonl", FP, metrics=metrics)
        assert fsyncs.value == 1  # the header
        with j.group():
            for c in range(3):
                j.record_pair("west", 0, c, Translation(0.9, c, 0))
                # Flushed, so readers see it before the group commits.
                assert len(load_journal(j.path).pairs) == c + 1
            assert fsyncs.value == 1
        assert fsyncs.value == 2
        j.record_milestone("phase1_complete")  # outside: its own fsync
        assert fsyncs.value == 3
        j.close()  # nothing left unsynced
        assert fsyncs.value == 3
        assert metrics.snapshot()["counters"]["journal.fsyncs"] == 3

    def test_skipped_tile_keeps_its_own_fsync(self, tmp_path, fsyncs):
        j = RunJournal.create(tmp_path / "j.jsonl", FP)
        with j.group():
            j.record_skipped_tile(0, 1, "boom")
            assert fsyncs.value == 2
            with j.group():  # nested: only the outermost exit commits
                pass
            assert fsyncs.value == 2
        assert fsyncs.value == 2  # nothing grouped was written
        j.close()

    def test_concurrent_groups_leave_nothing_unsynced(self, tmp_path, fsyncs):
        """MT-CPU partitions group-commit from several threads into one
        journal: every record lands, none is left unsynced, and no group
        costs more than one fsync."""
        from repro.core.displacement import Translation

        j = RunJournal.create(tmp_path / "j.jsonl", FP)
        threads, steps, per_step = 8, 5, 4

        def worker(k):
            for s in range(steps):
                with j.group():
                    for p in range(per_step):
                        j.record_pair("west", k, s * per_step + p,
                                      Translation(0.9, k, p))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(k,))
                    for k in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in pool)
        finally:
            sys.setswitchinterval(interval)
        j.close()
        assert len(load_journal(j.path).pairs) == threads * steps * per_step
        assert not j._unsynced
        # A group's exit syncs whatever is written, other threads' records
        # included, so some exits find nothing left to sync.
        assert fsyncs.value <= 1 + threads * steps


class TestCheckpointedRun:
    def test_one_fsync_per_step_that_completed_a_pair(
        self, dataset_4x4, tmp_path, fsyncs
    ):
        ckpt = tmp_path / "ckpt"
        result = Stitcher(checkpoint=str(ckpt), metrics=True).stitch(
            dataset_4x4)
        grid = TileGrid(dataset_4x4.rows, dataset_4x4.cols)
        steps = steps_with_pairs(
            traverse(grid, Traversal.CHAINED_DIAGONAL), list(grid_pairs(grid)))
        assert steps == 15
        n_milestones = milestones(checkpoint_journal_path(ckpt))
        assert fsyncs.value == 1 + steps + n_milestones
        assert result.stats["metrics"]["counters"]["journal.fsyncs"] == (
            fsyncs.value)

    def test_journal_bytes_equal_one_fsync_per_record(
        self, dataset_4x4, tmp_path, fsyncs, monkeypatch
    ):
        grouped = tmp_path / "grouped"
        Stitcher(checkpoint=str(grouped)).stitch(dataset_4x4)
        grouped_fsyncs = fsyncs.value

        monkeypatch.setattr(journal_module.RunJournal, "group",
                            lambda self: nullcontext(self))
        fsyncs.value = 0
        single = tmp_path / "single"
        Stitcher(checkpoint=str(single)).stitch(dataset_4x4)

        a = checkpoint_journal_path(grouped).read_bytes()
        b = checkpoint_journal_path(single).read_bytes()
        assert a == b
        n_milestones = milestones(checkpoint_journal_path(single))
        assert fsyncs.value == 1 + 24 + n_milestones
        assert grouped_fsyncs < fsyncs.value

    def test_mt_cpu_partitions_group_per_step(
        self, dataset_4x4, tmp_path, fsyncs, monkeypatch
    ):
        """Each partition commits once per step that completed a pair.
        The partitions run one after the other here: side by side they
        share one handle, and a group's exit also syncs the other
        thread's records (test_concurrent_groups_leave_nothing_unsynced
        covers that), which makes the count schedule-dependent."""
        from repro.impls import mt_cpu

        monkeypatch.setattr(
            mt_cpu, "run_threads",
            lambda target, arg_lists, watchdog=None: [
                target(*args) for args in arg_lists],
        )
        ckpt = tmp_path / "ckpt"
        stitcher = Stitcher(checkpoint=str(ckpt))
        journal = stitcher.open_journal(dataset_4x4)
        try:
            run = ALL_IMPLEMENTATIONS["mt-cpu"](
                journal=journal, workers=2).run(dataset_4x4)
        finally:
            journal.close()
        assert run.stats["pairs"] == 24
        grid = TileGrid(dataset_4x4.rows, dataset_4x4.cols)
        parts = column_partitions(grid, 2, Traversal.CHAINED_DIAGONAL)
        assert len(parts) == 2
        steps = sum(steps_with_pairs(p.order, p.pairs) for p in parts)
        # Header + one fsync per partition step that completed a pair.
        assert fsyncs.value == 1 + steps
        assert steps < 24
        assert len(load_journal(checkpoint_journal_path(ckpt)).pairs) == 24


#: Child: a checkpointed default stitch that SIGKILLs itself right after
#: journaling the first pair of the first step completing two pairs --
#: the record is flushed, its group has not committed.
KILL_CHILD = textwrap.dedent("""
    import os, signal, sys
    from repro import Stitcher, TileDataset
    from repro.recovery import journal

    kill_at = int(sys.argv[3])
    record = journal.RunJournal.record_pair

    def record_then_die(self, *args):
        record(self, *args)
        if self.recorded_pairs == kill_at:
            assert self._groups.depth == 1 and self._unsynced
            os.kill(os.getpid(), signal.SIGKILL)

    journal.RunJournal.record_pair = record_then_die
    Stitcher(checkpoint=sys.argv[2]).stitch(TileDataset(sys.argv[1]))
""")


def test_sigkill_inside_an_open_group_resumes_bit_identical(
    dataset_4x4, reference_displacements, tmp_path
):
    grid = TileGrid(dataset_4x4.rows, dataset_4x4.cols)
    pairs = list(grid_pairs(grid))
    done, seen = 0, set()
    for pos in traverse(grid, Traversal.CHAINED_DIAGONAL):
        seen.add(pos)
        ready = [p for p in pairs if pos in (p.first, p.second)
                 and {p.first, p.second} <= seen]
        if len(ready) >= 2:
            break
        done += len(ready)
    kill_at = done + 1  # the step's first pair

    ckpt = tmp_path / "ckpt"
    proc = subprocess.run(
        [sys.executable, "-c", KILL_CHILD, str(dataset_4x4.directory),
         str(ckpt), str(kill_at)],
        env=subprocess_env(SRC_DIR), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    state = load_journal(checkpoint_journal_path(ckpt))
    assert len(state.pairs) == kill_at  # the unsynced record survived
    assert state.stats.torn_tail == 0

    stitcher = Stitcher(checkpoint=str(ckpt), resume="require")
    journal = stitcher.open_journal(dataset_4x4)
    try:
        run = ALL_IMPLEMENTATIONS["simple-cpu"](journal=journal).run(
            dataset_4x4)
    finally:
        journal.close()
    assert run.stats["resumed_pairs"] == kill_at
    assert run.stats["pairs"] == 24 - kill_at
    ref = reference_displacements.displacements
    for pair in pairs:
        cell = (pair.direction, pair.second.row, pair.second.col)
        assert ref.get(*cell) == run.displacements.get(*cell), pair
