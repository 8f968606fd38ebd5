"""Run journal: durability, replay, torn tails, fingerprint binding."""

import json
import zlib

import pytest

from repro.core.displacement import Translation
from repro.core.options import StitchOptions
from repro.recovery.journal import (
    JournalError,
    JournalMismatch,
    RunJournal,
    _encode_line,
    checkpoint_journal_path,
    fingerprint_diff,
    load_journal,
)


def options_fingerprint(**options):
    return StitchOptions(**options).fingerprint_options()


FP = {"dataset": {"rows": 2, "cols": 2}, "options": options_fingerprint()}


def make_journal(path, pairs=(), fsync=False):
    j = RunJournal.create(path, FP, fsync=fsync)
    for d, r, c, t in pairs:
        j.record_pair(d, r, c, t)
    return j


T1 = Translation(0.91, 3, -17)
T2 = Translation(0.55, -2, 40, tx_f=-1.75, ty_f=40.25)


class TestRoundTrip:
    def test_pairs_survive_reopen_bit_identical(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with make_journal(path, [("west", 0, 1, T1), ("north", 1, 0, T2)]):
            pass
        j = RunJournal.resume(path, FP)
        assert j.lookup("west", 0, 1) == T1
        assert j.lookup("north", 1, 0) == T2
        assert j.lookup("west", 1, 1) is None
        assert j.resumed_pairs == 2
        j.close()

    def test_milestones_and_skipped_tiles(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with make_journal(path, [("west", 0, 1, T1)]) as j:
            j.record_skipped_tile(1, 1, "boom")
            j.record_milestone("phase1_complete", pairs=1)
        state = load_journal(path)
        assert state.milestones["phase1_complete"] == {"pairs": 1}
        assert state.skipped_tiles[(1, 1)] == "boom"
        # Forensic records never replay as work.
        assert set(state.pairs) == {("west", 0, 1)}

    def test_closed_journal_rejects_appends(self, tmp_path):
        j = make_journal(tmp_path / "journal.jsonl")
        j.close()
        j.close()  # idempotent
        with pytest.raises(JournalError):
            j.record_pair("west", 0, 1, T1)

    def test_peak_ratio_round_trips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        finite = Translation(0.9, 3, -17, peak_ratio=2.5)
        absent = Translation(0.9, 3, -17)
        # inf means "no second peak at all": not representable in JSON,
        # journalled as null and replayed gate-neutral.
        unbounded = Translation(0.9, 3, -17, peak_ratio=float("inf"))
        with make_journal(
            path,
            [("west", 0, 1, finite), ("west", 1, 1, absent), ("north", 1, 0, unbounded)],
        ):
            pass
        j = RunJournal.resume(path, FP)
        assert j.lookup("west", 0, 1).peak_ratio == 2.5
        assert j.lookup("west", 1, 1).peak_ratio is None
        assert j.lookup("north", 1, 0).peak_ratio is None
        j.close()

    def test_pre_gate_journal_replays_without_peak_ratio(self, tmp_path):
        # Journals written before the quality gate carry no peak_ratio
        # key; replay must default it to None rather than KeyError.
        path = tmp_path / "journal.jsonl"
        with make_journal(path, [("west", 0, 1, T1)]):
            pass
        raw = path.read_text().splitlines()
        rewritten = []
        for line in raw:
            rec = json.loads(line)
            if rec.get("kind") == "pair":
                rec.pop("peak_ratio", None)
                rec.pop("crc", None)
                rec["crc"] = zlib.crc32(
                    json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
                )
            rewritten.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        path.write_text("\n".join(rewritten) + "\n")
        j = RunJournal.resume(path, FP)
        t = j.lookup("west", 0, 1)
        assert t is not None
        assert t.peak_ratio is None
        j.close()


class TestCoarseProvenance:
    def test_provenance_round_trips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        hit = Translation(0.99, 3, -17, provenance="coarse")
        fell = Translation(0.41, -2, 40, provenance="fallback")
        with make_journal(path, [("west", 0, 1, hit), ("north", 1, 0, fell)]):
            pass
        j = RunJournal.resume(path, FP)
        assert j.lookup("west", 0, 1).provenance == "coarse"
        assert j.lookup("north", 1, 0).provenance == "fallback"
        j.close()

    def test_single_pass_records_carry_no_prov_key(self, tmp_path):
        """Coarse-off journals must stay byte-compatible with pre-coarse
        writers: no ``prov`` key is ever emitted for provenance None."""
        path = tmp_path / "journal.jsonl"
        with make_journal(path, [("west", 0, 1, T1)]):
            pass
        recs = [json.loads(l) for l in path.read_text().splitlines()]
        (pair,) = [r for r in recs if "d" in r]
        assert "prov" not in pair
        j = RunJournal.resume(path, FP)
        assert j.lookup("west", 0, 1).provenance is None
        j.close()

    def test_coarse_config_binds_the_fingerprint(self, tmp_path):
        from repro.core.coarse import CoarseConfig

        path = tmp_path / "journal.jsonl"
        coarse_fp = {
            "dataset": FP["dataset"],
            "options": options_fingerprint(coarse=CoarseConfig()),
        }
        RunJournal.create(path, coarse_fp).close()
        # Same coarse config resumes; coarse-off (or a different factor)
        # refuses -- the two-pass gate changes which answers are recorded.
        RunJournal.resume(path, coarse_fp).close()
        with pytest.raises(JournalMismatch) as ei:
            RunJournal.resume(path, FP)
        assert "options.coarse" in {p for p, _, _ in ei.value.differences}
        other = {
            "dataset": FP["dataset"],
            "options": options_fingerprint(coarse=CoarseConfig(factor=4)),
        }
        with pytest.raises(JournalMismatch):
            RunJournal.resume(path, other)

    def test_pre_coarse_journal_resumes_coarse_off(self, tmp_path):
        """Journals written before coarse mode existed (no ``coarse`` key
        in the fingerprint) must resume under a coarse-off run."""
        path = tmp_path / "journal.jsonl"
        with make_journal(path, [("west", 0, 1, T1)]):
            pass
        raw = path.read_text().splitlines()
        rewritten = []
        for line in raw:
            rec = json.loads(line)
            if "fingerprint" in rec:
                del rec["fingerprint"]["options"]["coarse"]
                rec.pop("crc", None)
                rec["crc"] = zlib.crc32(
                    json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
                )
            rewritten.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        path.write_text("\n".join(rewritten) + "\n")
        j = RunJournal.resume(path, FP)
        assert j.lookup("west", 0, 1) == T1
        j.close()


class TestTornTail:
    def test_truncated_final_line_is_dropped_and_counted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path, [("west", 0, 1, T1), ("north", 1, 0, T2)]).close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # SIGKILL mid-write of the last record
        state = load_journal(path)
        assert state.stats.torn_tail == 1
        assert set(state.pairs) == {("west", 0, 1)}
        # The torn pair is simply recomputed by the resumed run.
        j = RunJournal.resume(path, FP)
        assert j.lookup("north", 1, 0) is None
        j.close()

    def test_complete_record_missing_only_newline_is_kept(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path, [("west", 0, 1, T1)]).close()
        path.write_bytes(path.read_bytes()[:-1])  # strip just the \n
        state = load_journal(path)
        assert state.stats.torn_tail == 0
        assert ("west", 0, 1) in state.pairs

    def test_interior_corruption_is_crc_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path, [("west", 0, 1, T1), ("north", 1, 0, T2)]).close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]  # flip a byte
        path.write_bytes(b"".join(lines))
        state = load_journal(path)
        assert state.stats.crc_rejected == 1
        assert set(state.pairs) == {("north", 1, 0)}

    def test_unknown_record_kind_with_valid_crc_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path, [("west", 0, 1, T1)]).close()
        payload = {"t": "from_the_future", "x": 1}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        rec = dict(payload, crc=zlib.crc32(canonical.encode()))
        with open(path, "a") as fh:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        state = load_journal(path)
        assert state.stats.crc_rejected == 0
        assert ("west", 0, 1) in state.pairs

    @pytest.mark.parametrize("record", [
        '{"t": "pair", "r": 0, "c": 1}',  # KeyError at the parent
        '{"t": "milestone"}',  # KeyError
        '{"t": "pair", "d": "north", "r": "x", "c": 1, "correlation": 0.5,'
        ' "tx": 1, "ty": 2}',  # ValueError
        '{"t": "pair", "d": "north", "r": [1], "c": 1, "correlation": 0.5,'
        ' "tx": 1, "ty": 2}',  # TypeError
        '{"t": "pair", "d": ["w"], "r": 1, "c": 1, "correlation": 0.5,'
        ' "tx": 1, "ty": 2}',  # TypeError
        '{"t": "pair", "d": "north", "r": Infinity, "c": 1,'
        ' "correlation": 0.5, "tx": 1, "ty": 2}',  # OverflowError
        '{"t": "pair", "d": "north", "r": 1, "c": 1, "correlation": "hi",'
        ' "tx": 1, "ty": 2}',  # accepted, then failed inside phase 2
        '{"t": "pair", "d": "north", "r": true, "c": 1, "correlation": 0.5,'
        ' "tx": 1, "ty": 2}',
        '{"t": "tile_skipped", "r": 1, "c": 1.5}',
        '{"t": "header", "fingerprint": 7}',
    ])
    def test_malformed_record_with_valid_crc_is_rejected(self, tmp_path,
                                                          record):
        """The CRC covers whatever was written, so a record can pass it
        and still be malformed; it is counted and skipped, never replayed,
        and the resumed run recomputes the pair."""
        path = tmp_path / "journal.jsonl"
        make_journal(path, [("west", 0, 1, T1)]).close()
        with open(path, "a") as fh:
            fh.write(_encode_line(json.loads(record)))
        j = RunJournal.resume(path, FP)
        j.record_pair("north", 1, 0, T2)
        j.close()
        state = load_journal(path)
        assert state.stats.crc_rejected == 1
        assert set(state.pairs) == {("west", 0, 1), ("north", 1, 0)}
        j = RunJournal.resume(path, FP)
        assert j.lookup("north", 1, 1) is None
        j.close()


class TestDuplicates:
    def test_last_write_wins_and_is_counted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(
            path, [("west", 0, 1, T1), ("west", 0, 1, T2)]
        ).close()
        state = load_journal(path)
        assert state.stats.duplicates == 1
        assert state.stats.pairs == 1
        j = RunJournal.resume(path, FP)
        assert j.lookup("west", 0, 1) == T2
        j.close()


class TestFingerprint:
    def test_mismatched_fingerprint_refuses_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path).close()
        other = {
            "dataset": {"rows": 2, "cols": 3},
            "options": options_fingerprint(n_peaks=5),
        }
        with pytest.raises(JournalMismatch) as ei:
            RunJournal.resume(path, other)
        paths = {p for p, _, _ in ei.value.differences}
        assert "dataset.cols" in paths
        assert "options.n_peaks" in paths

    def test_fingerprint_diff_is_recursive_and_symmetric_keys(self):
        a = {"x": {"y": 1, "z": 2}}
        b = {"x": {"y": 1, "z": 3}, "w": 4}
        assert fingerprint_diff(a, b) == [("w", None, 4), ("x.z", 2, 3)]


class TestOpenModes:
    def test_require_without_journal_is_an_error(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal.open(tmp_path / "journal.jsonl", FP, resume="require")

    def test_auto_without_journal_starts_fresh(self, tmp_path):
        path = tmp_path / "ckpt" / "journal.jsonl"  # parent created on demand
        j = RunJournal.open(path, FP, fsync=False, resume="auto")
        assert j.journaled_pair_count == 0
        j.close()

    def test_auto_with_matching_journal_resumes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path, [("west", 0, 1, T1)]).close()
        j = RunJournal.open(path, FP, fsync=False, resume="auto")
        assert j.journaled_pair_count == 1
        j.close()

    def test_auto_still_refuses_a_mismatched_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path).close()
        other = dict(FP, options=options_fingerprint(subpixel=True))
        with pytest.raises(JournalMismatch):
            RunJournal.open(path, other, resume="auto")

    def test_auto_with_headerless_file_starts_fresh(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"t": "hea')  # killed during the very first write
        j = RunJournal.open(path, FP, fsync=False, resume="auto")
        assert j.state.header is None and j.journaled_pair_count == 0
        j.close()
        assert load_journal(path).header is not None  # truncated + rewritten

    def test_never_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_journal(path, [("west", 0, 1, T1)]).close()
        j = RunJournal.open(path, FP, fsync=False, resume="never")
        assert j.journaled_pair_count == 0
        j.close()

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunJournal.open(tmp_path / "j", FP, resume="sometimes")

    def test_checkpoint_journal_path(self, tmp_path):
        assert checkpoint_journal_path(tmp_path) == tmp_path / "journal.jsonl"
