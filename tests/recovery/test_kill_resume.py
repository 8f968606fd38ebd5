"""Kill-at-any-point resume: SIGKILL mid-phase-1, resume, identical output.

The acceptance scenario for the run journal: a subprocess stitches with
``--checkpoint``, the harness SIGKILLs it once a threshold of journal
records is durable (SIGKILL is uncatchable -- no atexit, no flush -- so
this is exactly the crash the fsync'd journal must survive), and an
in-process resume must

- recompute only the un-journaled pairs (asserted via the
  ``resumed_pairs`` / ``pairs`` counters), and
- produce translations and absolute positions **bit-identical** to an
  uninterrupted run,

across the sequential, multithreaded and pipelined CPU implementations.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.global_opt import resolve_absolute_positions
from repro.core.stitcher import Stitcher
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import TileGrid
from repro.impls import ALL_IMPLEMENTATIONS
from repro.recovery.harness import (
    count_journal_records,
    run_until_killed,
    stitch_argv,
    subprocess_env,
)
from repro.recovery.journal import checkpoint_journal_path, load_journal

SRC_DIR = Path(repro.__file__).resolve().parents[1]

#: Slow-read injection so the child is still mid-phase-1 when the record
#: threshold lands; SLOW_READ only delays, it never changes a value.
SLOW = "3:slow=10,latency=0.05"

IMPLS = ["simple-cpu", "mt-cpu", "pipelined-cpu"]


def resume_in_process(dataset, checkpoint, impl_name):
    stitcher = Stitcher(checkpoint=str(checkpoint), resume="require")
    journal = stitcher.open_journal(dataset)
    try:
        impl = ALL_IMPLEMENTATIONS[impl_name](journal=journal)
        return impl.run(dataset), journal
    finally:
        journal.close()


@pytest.mark.parametrize("impl_name", IMPLS)
def test_sigkill_then_resume_is_bit_identical(
    impl_name, dataset_4x4, reference_displacements, tmp_path
):
    ckpt = tmp_path / "ckpt"
    journal_path = checkpoint_journal_path(ckpt)
    result = run_until_killed(
        stitch_argv(
            dataset_4x4.directory, ckpt, impl=impl_name,
            extra=["--inject-faults", SLOW],
        ),
        journal_path,
        kill_after_records=6,  # header + >= 5 durable pairs
        env=subprocess_env(SRC_DIR),
        timeout=120.0,
    )
    assert result.killed, (
        f"child finished before the kill threshold "
        f"({result.journal_records} records)\n{result.stdout}"
    )
    assert result.journal_records >= 6

    state = load_journal(journal_path)
    journaled = len(state.pairs)
    assert 1 <= journaled < 24, "kill did not land mid-phase-1"

    run, journal = resume_in_process(dataset_4x4, ckpt, impl_name)
    # Recompute-only-unjournaled, by the counters.
    assert run.stats["resumed_pairs"] == journaled
    assert run.stats["pairs"] == 24 - journaled
    assert journal.resumed_pairs == journaled

    # Bit-identical translations pair by pair ...
    ref = reference_displacements.displacements
    grid = TileGrid(dataset_4x4.rows, dataset_4x4.cols)
    for pair in grid_pairs(grid):
        a = ref.get(pair.direction, pair.second.row, pair.second.col)
        b = run.displacements.get(
            pair.direction, pair.second.row, pair.second.col
        )
        assert a == b, f"{pair} diverged after resume"

    # ... and bit-identical absolute positions.
    pos_ref = resolve_absolute_positions(ref, method="mst")
    pos_res = resolve_absolute_positions(run.displacements, method="mst")
    assert np.array_equal(pos_ref.positions, pos_res.positions)


def test_coarse_sigkill_then_resume_is_bit_identical(dataset_4x4, tmp_path):
    """Coarse-to-fine mode survives a SIGKILL the same way: the journal
    carries each pair's coarse/fallback provenance, the coarse config is
    bound into the fingerprint, and the resumed output is bit-identical
    to an uninterrupted coarse run."""
    from repro.impls import SimpleCpu

    ckpt = tmp_path / "ckpt"
    journal_path = checkpoint_journal_path(ckpt)
    result = run_until_killed(
        stitch_argv(
            dataset_4x4.directory, ckpt, impl="mt-cpu",
            extra=["--inject-faults", SLOW, "--coarse-registration"],
        ),
        journal_path,
        kill_after_records=6,
        env=subprocess_env(SRC_DIR),
        timeout=120.0,
    )
    assert result.killed, (
        f"child finished before the kill threshold "
        f"({result.journal_records} records)\n{result.stdout}"
    )
    state = load_journal(journal_path)
    assert 1 <= len(state.pairs) < 24, "kill did not land mid-phase-1"
    # Every journaled pair carries its provenance stamp.
    raw = [json.loads(l) for l in journal_path.read_text().splitlines()[:-1]]
    provs = {r.get("prov") for r in raw if "d" in r}
    assert provs <= {"coarse", "fallback"} and provs

    stitcher = Stitcher(
        checkpoint=str(ckpt), resume="require", coarse=True
    )
    journal = stitcher.open_journal(dataset_4x4)
    try:
        run = ALL_IMPLEMENTATIONS["mt-cpu"](
            journal=journal, coarse=stitcher.coarse
        ).run(dataset_4x4)
    finally:
        journal.close()
    assert run.stats["resumed_pairs"] == len(state.pairs)

    ref = SimpleCpu(coarse=stitcher.coarse).run(dataset_4x4)
    grid = TileGrid(dataset_4x4.rows, dataset_4x4.cols)
    for pair in grid_pairs(grid):
        a = ref.displacements.get(
            pair.direction, pair.second.row, pair.second.col
        )
        b = run.displacements.get(
            pair.direction, pair.second.row, pair.second.col
        )
        assert a == b, f"{pair} diverged after coarse resume"


def test_coarse_off_refuses_coarse_journal(dataset_4x4, tmp_path):
    """Resuming a coarse-mode journal without coarse mode must refuse:
    the gate changes which answers get recorded."""
    from repro.recovery.journal import JournalMismatch

    ckpt = tmp_path / "ckpt"
    stitcher = Stitcher(checkpoint=str(ckpt), coarse=True)
    stitcher.open_journal(dataset_4x4).close()
    with pytest.raises(JournalMismatch):
        Stitcher(checkpoint=str(ckpt), resume="require").open_journal(
            dataset_4x4
        )


def test_cross_impl_resume(dataset_4x4, reference_displacements, tmp_path):
    """A journal written by one implementation resumes under another:
    the fingerprint deliberately excludes the impl name."""
    ckpt = tmp_path / "ckpt"
    result = run_until_killed(
        stitch_argv(
            dataset_4x4.directory, ckpt, impl="pipelined-cpu",
            extra=["--inject-faults", SLOW],
        ),
        checkpoint_journal_path(ckpt),
        kill_after_records=6,
        env=subprocess_env(SRC_DIR),
        timeout=120.0,
    )
    assert result.killed
    run, _ = resume_in_process(dataset_4x4, ckpt, "simple-cpu")
    pos_ref = resolve_absolute_positions(
        reference_displacements.displacements, method="mst"
    )
    pos_res = resolve_absolute_positions(run.displacements, method="mst")
    assert np.array_equal(pos_ref.positions, pos_res.positions)


def test_full_journal_resume_recomputes_nothing(dataset_4x4, tmp_path):
    """Uninterrupted checkpointed run, then resume: zero recomputation."""
    ckpt = tmp_path / "ckpt"
    stitcher = Stitcher(checkpoint=str(ckpt))
    first = stitcher.stitch(dataset_4x4)
    assert first.stats["journal"]["recorded_pairs"] == 24
    resumed = Stitcher(checkpoint=str(ckpt), resume="require").stitch(dataset_4x4)
    assert resumed.stats["journal"]["resumed_pairs"] == 24
    assert resumed.stats["journal"]["recorded_pairs"] == 0
    assert np.array_equal(
        first.positions.positions, resumed.positions.positions
    )


def test_count_journal_records(tmp_path):
    p = tmp_path / "j.jsonl"
    assert count_journal_records(p) == 0
    p.write_bytes(b'{"a":1}\n{"b":2}\n{"torn')
    assert count_journal_records(p) == 2  # torn tail is not durable
