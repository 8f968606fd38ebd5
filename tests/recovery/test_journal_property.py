"""Property test: journal replay under torn tails, truncation, duplicates.

CI installs only pytest, so the hypothesis-driven cases skip there; the
exhaustive truncation sweep below runs everywhere and covers the same
invariant deterministically.
"""

import pytest

from repro.core.displacement import Translation
from repro.core.options import StitchOptions
from repro.recovery.journal import RunJournal, load_journal

FP = {"dataset": {"rows": 8, "cols": 8},
      "options": StitchOptions().fingerprint_options()}


def write_journal(path, records):
    j = RunJournal.create(path, FP, fsync=False)
    for d, r, c, t in records:
        j.record_pair(d, r, c, t)
    j.close()
    return path.read_bytes()


def expected_pairs(records, n_durable):
    """Last-write-wins fold over the first ``n_durable`` records."""
    out = {}
    for d, r, c, t in records[:n_durable]:
        out[(d, r, c)] = t
    return out


SOME_RECORDS = [
    ("west", 0, 1, Translation(0.5, 1, 2)),
    ("north", 1, 0, Translation(0.25, -3, 4, tx_f=0.5, ty_f=-4.125)),
    ("west", 0, 1, Translation(0.75, 9, 9)),  # duplicate: last wins
    ("north", 2, 2, Translation(-0.125, 30, -30)),
]


class TestTruncationSweep:
    def test_every_byte_prefix_replays_to_the_durable_prefix(self, tmp_path):
        """The core crash-safety invariant, byte by byte.

        For *every* truncation point: no exception, pairs == last-write-
        wins fold of the complete lines, and a partial final line is
        either torn (counted) or absent -- never a wrong value.
        """
        path = tmp_path / "journal.jsonl"
        raw = write_journal(path, SOME_RECORDS)
        for cut in range(len(raw) + 1):
            prefix = raw[:cut]
            path.write_bytes(prefix)
            state = load_journal(path)
            tail = prefix.split(b"\n")[-1]
            # A tail that is a whole record minus its newline still
            # validates and is kept; anything else non-empty is torn.
            tail_kept = tail != b"" and raw[cut:cut + 1] == b"\n"
            n_durable = max(0, prefix.count(b"\n") + int(tail_kept) - 1)
            want = expected_pairs(SOME_RECORDS, n_durable)
            got = {
                k: Translation(**v) for k, v in state.pairs.items()
            }
            assert got == want, f"cut={cut}"
            torn = tail != b"" and not tail_kept
            assert state.stats.torn_tail == (1 if torn else 0), f"cut={cut}"
            assert state.stats.crc_rejected == 0, f"cut={cut}"


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

translations = st.builds(
    Translation,
    correlation=st.floats(-1, 1, allow_nan=False),
    tx=st.integers(-512, 512),
    ty=st.integers(-512, 512),
    tx_f=st.none() | st.floats(-512, 512, allow_nan=False),
    ty_f=st.none() | st.floats(-512, 512, allow_nan=False),
)
records_strategy = st.lists(
    st.tuples(
        st.sampled_from(["west", "north"]),
        st.integers(0, 7),
        st.integers(0, 7),
        translations,
    ),
    max_size=12,
)


class TestJournalProperties:
    @settings(max_examples=60, deadline=None)
    @given(records=records_strategy, data=st.data())
    def test_random_truncation_never_yields_wrong_values(
        self, tmp_path_factory, records, data
    ):
        path = tmp_path_factory.mktemp("jp") / "journal.jsonl"
        raw = write_journal(path, records)
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        path.write_bytes(raw[:cut])
        state = load_journal(path)
        n_durable = max(0, raw[:cut].count(b"\n") - 1)
        want = expected_pairs(records, n_durable)
        got = {k: Translation(**v) for k, v in state.pairs.items()}
        # A torn tail that still validates is kept (lost only its
        # newline), which can surface exactly one extra durable record.
        if got != want and n_durable < len(records):
            want_plus = expected_pairs(records, n_durable + 1)
            assert got == want_plus
        else:
            assert got == want
        # Exact round-trip: every replayed value is bit-identical.
        for key, t in got.items():
            if key in want:
                assert t == want[key]

    @settings(max_examples=40, deadline=None)
    @given(records=records_strategy, data=st.data())
    def test_interior_corruption_is_skipped_with_counted_warning(
        self, tmp_path_factory, records, data
    ):
        hypothesis.assume(len(records) >= 2)
        path = tmp_path_factory.mktemp("jc") / "journal.jsonl"
        raw = write_journal(path, records)
        lines = raw.splitlines(keepends=True)
        # Corrupt one pair line (never the header: index >= 1).
        idx = data.draw(st.integers(1, len(lines) - 1), label="line")
        pos = data.draw(st.integers(0, len(lines[idx]) - 2), label="byte")
        line = lines[idx]
        flipped = line[:pos] + bytes([line[pos] ^ 0x5A]) + line[pos + 1:]
        hypothesis.assume(flipped != line)
        lines[idx] = flipped
        path.write_bytes(b"".join(lines))
        state = load_journal(path)
        # The damaged line is rejected (or, vanishingly rarely, still
        # parses as a different-but-valid record -- a byte flip cannot
        # satisfy the CRC, so it must be rejected).
        assert state.stats.crc_rejected == 1
        survivors = {
            k: Translation(**v) for k, v in state.pairs.items()
        }
        full = expected_pairs(records, len(records))
        # Every surviving value matches some write for that key.
        for key, t in survivors.items():
            wrote = [
                tr for d, r, c, tr in records if (d, r, c) == key
            ]
            assert t in wrote
        assert set(survivors) <= set(full)
