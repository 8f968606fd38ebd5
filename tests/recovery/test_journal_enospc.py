"""Disk-full (ENOSPC) behaviour of the run journal.

The failure is injected by wrapping the journal's file object, not by
actually filling a disk: after a configured number of successful writes
every further write raises ``OSError(ENOSPC)``.  The contract under
test: the append raises a clean, typed :class:`JournalWriteError`
(never a raw ``OSError`` escaping the stitcher), the journal file stays
loadable, and a resume recovers exactly the records that were durable
before the disk filled.
"""

from __future__ import annotations

import errno

import pytest

from repro.core.displacement import Translation
from repro.recovery.journal import (
    JournalWriteError,
    RunJournal,
    load_journal,
)

FINGERPRINT = {"dataset": {"rows": 2}, "options": {"n_peaks": 2}}


class FullDiskFile:
    """File-object proxy whose writes start failing after a quota."""

    def __init__(self, fh, writes_allowed: int):
        self._fh = fh
        self.writes_allowed = writes_allowed
        self.writes = 0

    def write(self, data):
        if self.writes >= self.writes_allowed:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes += 1
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def translation(tx: int, ty: int) -> Translation:
    return Translation(correlation=0.9, tx=tx, ty=ty,
                       tx_f=float(tx), ty_f=float(ty), peak_ratio=2.0)


def journal_with_quota(path, writes_after_header: int) -> RunJournal:
    journal = RunJournal.create(path, FINGERPRINT)
    journal._fh = FullDiskFile(journal._fh, writes_after_header)
    return journal


class TestAppendOnFullDisk:
    def test_append_raises_typed_error_with_errno(self, tmp_path):
        journal = journal_with_quota(tmp_path / "j.jsonl", 2)
        journal.record_pair("west", 0, 1, translation(1, 2))
        journal.record_pair("north", 1, 0, translation(3, 4))
        with pytest.raises(JournalWriteError) as exc_info:
            journal.record_pair("west", 1, 1, translation(5, 6))
        assert exc_info.value.errno == errno.ENOSPC
        assert "No space left" in str(exc_info.value)
        assert isinstance(exc_info.value.__cause__, OSError)

    def test_milestone_append_also_typed(self, tmp_path):
        journal = journal_with_quota(tmp_path / "j.jsonl", 0)
        with pytest.raises(JournalWriteError):
            journal.record_milestone("phase1_complete")

    def test_journal_stays_loadable_after_enospc(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = journal_with_quota(path, 2)
        journal.record_pair("west", 0, 1, translation(1, 2))
        journal.record_pair("north", 1, 0, translation(3, 4))
        with pytest.raises(JournalWriteError):
            journal.record_pair("west", 1, 1, translation(5, 6))
        state = load_journal(path)
        assert state.header is not None
        assert set(state.pairs) == {("west", 0, 1), ("north", 1, 0)}
        assert state.stats.crc_rejected == 0
        assert state.stats.torn_tail == 0

    def test_resume_recovers_durable_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = journal_with_quota(path, 1)
        journal.record_pair("west", 0, 1, translation(7, 8))
        with pytest.raises(JournalWriteError):
            journal.record_pair("north", 1, 0, translation(9, 10))

        resumed = RunJournal.resume(path, FINGERPRINT)
        hit = resumed.lookup("west", 0, 1)
        assert hit is not None and (hit.tx, hit.ty) == (7, 8)
        assert resumed.lookup("north", 1, 0) is None  # never durable
        # The freed-disk run continues appending where the durable
        # record stream left off.
        resumed.record_pair("north", 1, 0, translation(9, 10))
        resumed.close()
        assert set(load_journal(path).pairs) == {
            ("west", 0, 1), ("north", 1, 0)
        }

    def test_torn_partial_write_is_dropped_on_load(self, tmp_path):
        """A write that lands only part of a line (true torn tail) is
        skipped by replay and does not poison earlier records."""
        path = tmp_path / "j.jsonl"
        journal = RunJournal.create(path, FINGERPRINT)
        journal.record_pair("west", 0, 1, translation(1, 2))
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t":"pair","d":"north","r":1,')  # interrupted
        state = load_journal(path)
        assert set(state.pairs) == {("west", 0, 1)}
        assert state.stats.torn_tail == 1
