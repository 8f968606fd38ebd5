"""Proc-CPU specifics: per-tile counters, arena hygiene, checkpoint/resume.

Cross-implementation equivalence, determinism and degenerate grids are
covered by the shared matrices (proc-cpu is registered in
``ALL_IMPLEMENTATIONS``); SIGKILL-then-resume rides the shared
kill-harness matrix in ``tests/recovery/test_kill_resume.py``.  This file
pins what is unique to the process backend.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.metrics import displacement_agreement
from repro.core.stitcher import Stitcher
from repro.impls import ProcCpu
from repro.memmodel.shm import SHM_NAME_PREFIX, leaked_segments
from repro.recovery.harness import (
    run_until_killed,
    stitch_argv,
    subprocess_env,
)
from repro.recovery.journal import checkpoint_journal_path

SRC_DIR = Path(repro.__file__).resolve().parents[1]


class TestConstruction:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ProcCpu(workers=0)


class TestBatching:
    def test_batch_counters(self, dataset_4x4):
        """The workers' counters fold into one run: every tile read and
        transformed once, whichever partition reads it."""
        res = ProcCpu(workers=2).run(dataset_4x4)
        assert res.stats["ffts"] == 16
        assert res.stats["reads"] == 16

    def test_single_worker_runs_inline(self, dataset_4x4,
                                       reference_displacements):
        """One band needs no pool, no arena -- and still matches."""
        res = ProcCpu(workers=1).run(dataset_4x4)
        assert res.stats["process_workers"] == 0
        assert res.stats["partitions"] == 1
        assert displacement_agreement(
            res.displacements, reference_displacements.displacements
        ) == 1.0


class TestCheckpointRoundTrip:
    def test_uninterrupted_checkpoint_then_full_resume(self, dataset_4x4,
                                                       tmp_path):
        """Journaled proc-cpu run, then resume: zero recomputation, with
        every worker-appended record durable and readable."""
        ckpt = tmp_path / "ckpt"

        def run_with_journal():
            stitcher = Stitcher(checkpoint=str(ckpt))
            journal = stitcher.open_journal(dataset_4x4)
            try:
                return ProcCpu(workers=2, journal=journal).run(dataset_4x4)
            finally:
                journal.close()

        first = run_with_journal()
        assert first.stats["pairs"] == 24
        assert first.stats.get("resumed_pairs", 0) == 0

        resumed = run_with_journal()
        assert resumed.stats["resumed_pairs"] == 24
        assert resumed.stats["pairs"] == 0
        for arr_a, arr_b in (
            (first.displacements.west, resumed.displacements.west),
            (first.displacements.north, resumed.displacements.north),
        ):
            for row_a, row_b in zip(arr_a, arr_b):
                for a, b in zip(row_a, row_b):
                    assert a == b


class TestArenaHygiene:
    def test_sigkilled_cli_run_leaves_no_segments(self, dataset_4x4,
                                                  tmp_path):
        """SIGKILL a proc-cpu CLI run mid-phase-1: the dying process's
        resource tracker must sweep the arena and the orphaned workers
        must notice the dead parent and exit."""
        before = set(leaked_segments(SHM_NAME_PREFIX))
        ckpt = tmp_path / "ckpt"
        result = run_until_killed(
            stitch_argv(
                dataset_4x4.directory, ckpt, impl="proc-cpu",
                extra=["--inject-faults", "3:slow=15,latency=0.3"],
            ),
            checkpoint_journal_path(ckpt),
            kill_after_records=4,
            env=subprocess_env(SRC_DIR),
            timeout=120.0,
        )
        assert result.killed, result.stdout
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if set(leaked_segments(SHM_NAME_PREFIX)) <= before:
                break
            time.sleep(0.1)
        assert set(leaked_segments(SHM_NAME_PREFIX)) <= before, (
            "proc-cpu SIGKILL leaked shared-memory segments"
        )

    def test_failing_run_cleans_up(self, dataset_4x4):
        """An exception inside a worker unwinds through _run's finally:
        the arena is gone and the error propagates."""
        class Broken:
            def __getattr__(self, name):
                return getattr(dataset_4x4, name)

            def load(self, r, c, dtype=None):
                raise OSError(f"boom ({r},{c})")

        before = set(leaked_segments(SHM_NAME_PREFIX))
        with pytest.raises(Exception):
            ProcCpu(workers=2).run(Broken())
        assert set(leaked_segments(SHM_NAME_PREFIX)) <= before
