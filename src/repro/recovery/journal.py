"""Write-ahead run journal: append-only, fsync'd, CRC-checked JSONL.

A stitching run's pairwise displacements are independently recomputable
units (the property long-series registration pipelines exploit), so a
journal that records each completed pair makes the whole run resumable: a
killed process restarts, replays the journal, and recomputes only the
pairs that never landed on disk.  The guarantees:

- **append-only**: one JSONL record per event, written under a lock and
  flushed before the write returns, so every record survives SIGKILL;
  it is also fsync'd there (by default) -- the guard against power loss
  -- except that pair records appended inside :meth:`RunJournal.group`
  are fsync'd together when the group ends (*group commit*: one fsync per
  phase-1 traversal step instead of one per pair);
- **CRC-checked**: every line carries a CRC-32 of its canonical payload;
  lines that fail the check are skipped with a counted warning rather
  than poisoning the replay;
- **torn-tail tolerant**: a process killed mid-write leaves a truncated
  final line; replay drops it (counted separately) and the pair it would
  have recorded is simply recomputed;
- **last-write-wins**: duplicate records for the same pair keep the most
  recent value (duplicates are counted);
- **fingerprinted**: the header binds the journal to a dataset and the
  result-affecting options; resuming against a mismatched dataset or
  option set raises :class:`JournalMismatch` instead of silently mixing
  two runs' results.

Record values round-trip exactly: integers are exact in JSON, and Python
serializes floats with ``repr`` semantics (17 significant digits), so a
resumed run's translations are bit-identical to the originals -- the
property the kill-at-any-point acceptance test asserts end to end.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Any, Iterable

JOURNAL_FILENAME = "journal.jsonl"
JOURNAL_VERSION = 1
#: Journal-open modes of :meth:`RunJournal.open` (``Stitcher(resume=...)``).
RESUME_MODES = ("auto", "require", "never")

#: Keys of :class:`~repro.core.displacement.Translation` fields in a pair
#: record, in serialization order.
_PAIR_FIELDS = ("correlation", "tx", "ty", "tx_f", "ty_f", "peak_ratio",
                "prov")

#: Field types a record must have to be replayed (``?``: or absent/null):
#: the CRC covers whatever was written, so a valid one proves no types.
_RECORD_FIELDS = {
    "header": {"fingerprint?": dict},
    "pair": {"d": str, "r": int, "c": int, "correlation": Real,
             "tx": int, "ty": int, "tx_f?": Real, "ty_f?": Real,
             "peak_ratio?": Real, "prov?": str},
    "milestone": {"name": str, "data?": dict},
    "tile_skipped": {"r": int, "c": int, "error?": str},
}


def _well_formed(obj: dict) -> bool:
    """``obj`` has its kind's field types (a bool is no number)."""
    for name, kind in _RECORD_FIELDS.get(obj.get("t"), {}).items():
        value = obj.get(name.rstrip("?"))
        if not (value is None and name.endswith("?")) and (
                isinstance(value, bool) or not isinstance(value, kind)):
            return False
    return True


class JournalError(RuntimeError):
    """The journal file cannot be used (unreadable header, bad mode)."""


class JournalWriteError(JournalError):
    """An append could not be made durable (ENOSPC, EIO, closed fd).

    Raised instead of letting the raw :class:`OSError` escape so a full
    disk mid-run surfaces as a clean, typed per-job failure -- the
    journal file itself stays loadable (at worst one torn tail line,
    which replay already tolerates) and a later resume recovers every
    record that fsync'd before the disk filled.
    """

    def __init__(self, path, cause: OSError):
        super().__init__(
            f"journal append to {path} failed: "
            f"[{cause.errno}] {cause.strerror or cause}"
        )
        self.path = Path(path)
        self.errno = cause.errno
        self.__cause__ = cause


class JournalMismatch(JournalError):
    """Resume refused: the journal belongs to a different run.

    ``differences`` lists ``(path, journal_value, current_value)`` tuples
    naming exactly which fingerprint entries disagree.
    """

    def __init__(self, message: str, differences: list[tuple] | None = None):
        super().__init__(message)
        self.differences = differences or []


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _finite_or_none(value) -> float | None:
    """Optional float for JSON: ``inf``/NaN (a peak ratio with a zero
    runner-up) would serialize as non-standard JSON, so they journal as
    null -- which the quality gate treats as "no ratio recorded"."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _crc(payload: dict) -> int:
    return zlib.crc32(_canonical(payload).encode("utf-8"))


def _encode_line(payload: dict) -> str:
    rec = dict(payload)
    rec["crc"] = _crc(payload)
    return _canonical(rec) + "\n"


def _pair_record(direction: str, row: int, col: int, t) -> dict:
    """The journal record of one completed pairwise displacement."""
    rec = {
        "t": "pair", "d": str(direction), "r": int(row), "c": int(col),
        "correlation": float(t.correlation),
        "tx": int(t.tx), "ty": int(t.ty),
        "tx_f": None if t.tx_f is None else float(t.tx_f),
        "ty_f": None if t.ty_f is None else float(t.ty_f),
        "peak_ratio": _finite_or_none(t.peak_ratio),
    }
    # Registration provenance ("coarse"/"fallback") journals only when
    # set, so single-pass journals stay byte-identical to pre-coarse
    # writers and resume cleanly on older readers.
    prov = getattr(t, "provenance", None)
    if prov is not None:
        rec["prov"] = str(prov)
    return rec


def dataset_fingerprint(dataset) -> dict:
    """Identity of an acquisition: geometry + naming, not pixel bytes.

    Hashing 6+ GB of tiles per resume would defeat the point; the grid
    shape, tile geometry, overlap, bit depth and file pattern identify an
    acquisition for every practical purpose (two different plates with
    identical metadata would resume *structurally* correctly and the CCF
    values would immediately disagree with the journal's).
    """
    meta = dataset.metadata
    return {
        "rows": int(meta.rows),
        "cols": int(meta.cols),
        "tile_height": int(meta.tile_height),
        "tile_width": int(meta.tile_width),
        "overlap": float(meta.overlap),
        "bit_depth": int(meta.bit_depth),
        "pattern": str(meta.pattern),
    }


def fingerprint_diff(a: dict, b: dict, prefix: str = "") -> list[tuple]:
    """Recursive ``(path, a_value, b_value)`` list of disagreements."""
    out: list[tuple] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        path = f"{prefix}{key}"
        if isinstance(va, dict) and isinstance(vb, dict):
            out.extend(fingerprint_diff(va, vb, prefix=f"{path}."))
        elif va != vb:
            out.append((path, va, vb))
    return out


@dataclass
class JournalLoadStats:
    """What replaying a journal file found (and survived)."""

    lines: int = 0
    pairs: int = 0
    milestones: int = 0
    skipped_tiles: int = 0
    #: Interior lines whose JSON, CRC or field types were invalid --
    #: skipped, counted (a resume recomputes what they recorded).
    crc_rejected: int = 0
    #: A truncated/invalid *final* line (torn write at kill time).
    torn_tail: int = 0
    #: Re-recorded pairs (last write won).
    duplicates: int = 0

    def to_dict(self) -> dict:
        return {
            "lines": self.lines,
            "pairs": self.pairs,
            "milestones": self.milestones,
            "skipped_tiles": self.skipped_tiles,
            "crc_rejected": self.crc_rejected,
            "torn_tail": self.torn_tail,
            "duplicates": self.duplicates,
        }


@dataclass
class JournalState:
    """Parsed journal contents (header + accumulated records)."""

    header: dict | None = None
    #: ``(direction, row, col) -> translation-field dict`` (last write wins).
    pairs: dict = field(default_factory=dict)
    #: ``name -> data`` for phase milestones (last write wins).
    milestones: dict = field(default_factory=dict)
    skipped_tiles: dict = field(default_factory=dict)
    stats: JournalLoadStats = field(default_factory=JournalLoadStats)


def load_journal(path: str | Path) -> JournalState:
    """Replay a journal file, tolerating torn tails and corrupt lines."""
    state = JournalState()
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return state
    lines = raw.split(b"\n")
    # A well-formed file ends with a newline, leaving one empty trailing
    # chunk; anything else in the last slot is a torn (mid-write) record.
    torn = lines[-1] != b""
    body = lines[:-1]
    for i, line in enumerate(body):
        state.stats.lines += 1
        if not _apply_line(state, line):
            state.stats.crc_rejected += 1
    if torn:
        state.stats.lines += 1
        if _apply_line(state, lines[-1]):
            # Complete record that merely lost its newline: keep it.
            pass
        else:
            state.stats.torn_tail += 1
    return state


def _apply_line(state: JournalState, line: bytes) -> bool:
    """Validate one line and fold it into ``state``; False = rejected."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    if not isinstance(obj, dict):
        return False
    crc = obj.pop("crc", None)
    if crc != _crc(obj) or not _well_formed(obj):
        return False
    kind = obj.get("t")
    if kind == "header":
        state.header = obj
    elif kind == "pair":
        key = (obj["d"], obj["r"], obj["c"])
        if key in state.pairs:
            state.stats.duplicates += 1
        # Replay state uses Translation field names; ``prov`` is only the
        # wire key, so the dicts stay valid ``Translation(**v)`` kwargs.
        pair = {f: obj.get(f) for f in _PAIR_FIELDS if f != "prov"}
        pair["provenance"] = obj.get("prov")
        state.pairs[key] = pair
        state.stats.pairs = len(state.pairs)
    elif kind == "milestone":
        state.milestones[obj["name"]] = obj.get("data", {})
        state.stats.milestones += 1
    elif kind == "tile_skipped":
        state.skipped_tiles[obj["r"], obj["c"]] = obj.get("error", "")
        state.stats.skipped_tiles = len(state.skipped_tiles)
    # Unknown record kinds are valid (CRC passed) but ignored: a newer
    # writer's journal replays on an older reader.
    return True


class RunJournal:
    """Append-side handle plus the resume state replayed at open time.

    Thread-safe: pipelined implementations append from many compute
    workers concurrently.  Every append is written and flushed under a
    lock before it returns, so the record is visible to readers (the kill
    harness, a watchdog, a respawned worker) and survives the death of
    the process.  Unless ``fsync=False`` it is also fsync'd there --
    except pair records appended inside :meth:`group`, which share one
    fsync at the group's end.  So the durability point of a record is the
    method return, or the end of its group for a grouped pair (the
    invariant the kill harness relies on holds either way: a flushed
    record survives SIGKILL).  Each fsync counts as ``journal.fsyncs``
    when there are metrics.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: dict,
        state: JournalState,
        fh: io.TextIOBase,
        fsync: bool = True,
        metrics=None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.state = state
        self._fh = fh
        self._fsync = fsync
        self.metrics = metrics
        self._lock = threading.Lock()
        #: Per-thread depth of open :meth:`group` blocks.
        self._groups = threading.local()
        #: Records written since the last fsync.
        self._unsynced = False
        self._closed = False
        #: Pairs appended this run.
        self.recorded_pairs = 0
        #: Pairs served from the journal this run (resume hits).
        self.resumed_pairs = 0

    # -- opening -------------------------------------------------------------

    @classmethod
    def create(
        cls, path: str | Path, fingerprint: dict,
        fsync: bool = True, metrics=None,
    ) -> "RunJournal":
        """Start a fresh journal (truncating any existing file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8")
        journal = cls(path, fingerprint, JournalState(header=None), fh,
                      fsync=fsync, metrics=metrics)
        journal._append({
            "t": "header", "v": JOURNAL_VERSION, "fingerprint": fingerprint,
        })
        return journal

    @classmethod
    def resume(
        cls, path: str | Path, fingerprint: dict,
        fsync: bool = True, metrics=None,
    ) -> "RunJournal":
        """Open an existing journal for resumption; strict about identity.

        Raises :class:`JournalError` when the file is missing or has no
        readable header, :class:`JournalMismatch` when the header's
        fingerprint disagrees with the current run's.
        """
        path = Path(path)
        if not path.exists():
            raise JournalError(f"no journal to resume at {path}")
        state = load_journal(path)
        if state.header is None:
            raise JournalError(
                f"journal {path} has no readable header "
                f"({state.stats.crc_rejected} rejected, "
                f"{state.stats.torn_tail} torn line(s))"
            )
        recorded = state.header.get("fingerprint", {})
        diffs = fingerprint_diff(recorded, fingerprint)
        if diffs:
            detail = "; ".join(
                f"{p}: journal={a!r} run={b!r}" for p, a, b in diffs[:6]
            )
            raise JournalMismatch(
                f"journal {path} belongs to a different run ({detail})",
                differences=diffs,
            )
        fh = open(path, "a", encoding="utf-8")
        journal = cls(path, fingerprint, state, fh, fsync=fsync, metrics=metrics)
        if metrics is not None:
            if state.stats.crc_rejected:
                metrics.counter("journal.crc_rejected").inc(
                    state.stats.crc_rejected)
            if state.stats.torn_tail:
                metrics.counter("journal.torn_tail").inc(state.stats.torn_tail)
        return journal

    @classmethod
    def open(
        cls, path: str | Path, fingerprint: dict,
        fsync: bool = True, metrics=None, resume: str = "auto",
    ) -> "RunJournal":
        """Checkpoint-directory entry point.

        ``resume="auto"``
            resume when a journal with a matching header exists; start
            fresh when the file is absent or its header never landed
            (killed during the very first write); still *refuse* a
            mismatched header -- silently discarding a different run's
            journal is how checkpoints eat data.
        ``resume="require"``
            the ``--resume`` flag: missing/unreadable journal is an error.
        ``resume="never"``
            always start fresh (truncates).
        """
        if resume not in RESUME_MODES:
            raise ValueError(f"resume must be auto/require/never, got {resume!r}")
        path = Path(path)
        if resume == "never":
            return cls.create(path, fingerprint, fsync=fsync, metrics=metrics)
        if resume == "require":
            return cls.resume(path, fingerprint, fsync=fsync, metrics=metrics)
        if not path.exists():
            return cls.create(path, fingerprint, fsync=fsync, metrics=metrics)
        state = load_journal(path)
        if state.header is None:
            # Nothing durable ever landed: treat as a fresh run.
            return cls.create(path, fingerprint, fsync=fsync, metrics=metrics)
        return cls.resume(path, fingerprint, fsync=fsync, metrics=metrics)

    # -- appending -----------------------------------------------------------

    @contextmanager
    def group(self):
        """Group commit: the pair records this thread appends inside the
        block are written and flushed one by one, as always, but fsync'd
        once, when the outermost block exits -- and only if this thread
        appended one: a group that wrote nothing leaves other threads'
        grouped records to their own groups.  Header, milestone and
        skipped-tile records keep their own fsync; bytes and order are
        the same either way."""
        groups = self._groups
        if not getattr(groups, "depth", 0):
            groups.wrote = False
        groups.depth = getattr(groups, "depth", 0) + 1
        try:
            yield self
        finally:
            groups.depth -= 1
            if not groups.depth and groups.wrote and self._fsync:
                with self._lock:
                    try:
                        self._sync()
                    except OSError as exc:
                        raise JournalWriteError(self.path, exc) from exc

    def _sync(self) -> None:
        """fsync what is unsynced; the caller holds the lock."""
        if not self._unsynced:
            return
        os.fsync(self._fh.fileno())
        self._unsynced = False
        if self.metrics is not None:
            self.metrics.counter("journal.fsyncs").inc()

    def _append(self, payload: dict, groupable: bool = False) -> None:
        if self._closed:
            raise JournalError(f"journal {self.path} is closed")
        line = _encode_line(payload)
        with self._lock:
            try:
                self._fh.write(line)
                self._fh.flush()
                self._unsynced = True
                if groupable and getattr(self._groups, "depth", 0):
                    self._groups.wrote = True
                elif self._fsync:
                    self._sync()
            except OSError as exc:
                # ENOSPC (or EIO) mid-run: the record is NOT durable.
                # Surface a typed error the caller can treat as a clean
                # job failure; the file holds at most a torn tail, which
                # load_journal() already drops, so resume stays safe.
                raise JournalWriteError(self.path, exc) from exc

    def record_pair(self, direction: str, row: int, col: int, t) -> None:
        """Journal one completed pairwise displacement (durable on return,
        or at the end of the enclosing :meth:`group`)."""
        self._append(_pair_record(direction, row, col, t), groupable=True)
        self.recorded_pairs += 1
        if self.metrics is not None:
            self.metrics.counter("journal.pairs_recorded").inc()

    def record_milestone(self, name: str, **data: Any) -> None:
        """Journal a phase boundary (phase1 complete, phase2 solved, ...)."""
        self._append({"t": "milestone", "name": str(name), "data": data})
        if self.metrics is not None:
            self.metrics.counter("journal.milestones").inc()

    def record_skipped_tile(self, row: int, col: int, error: str = "") -> None:
        self._append({
            "t": "tile_skipped", "r": int(row), "c": int(col),
            "error": str(error)[:200],
        })

    # -- resume lookups --------------------------------------------------------

    def peek(self, direction: str, row: int, col: int):
        """Journaled :class:`Translation` for a pair, or ``None`` -- without
        counting the hit (a scheduler deciding which tiles it still needs
        asks through this)."""
        rec = self.state.pairs.get((str(direction), int(row), int(col)))
        if rec is None:
            return None
        from repro.core.kernel import Translation

        # Replay dicts carry every Translation field; journals written
        # before the quality gate / coarse mode existed replay their
        # missing peak_ratio / provenance as the neutral None.
        return Translation(**rec)

    def lookup(self, direction: str, row: int, col: int):
        """Journaled :class:`Translation` for a pair, or ``None``.

        A hit means the pair's displacement was computed and made durable
        by a previous (possibly killed) run; the caller skips recomputing
        it.  Hits are counted (``resumed_pairs`` / the
        ``journal.pairs_resumed`` metric) so tests can assert a resumed
        run recomputed *only* the un-journaled remainder.
        """
        t = self.peek(direction, row, col)
        if t is not None:
            self.resumed_pairs += 1
            if self.metrics is not None:
                self.metrics.counter("journal.pairs_resumed").inc()
        return t

    def milestone(self, name: str) -> dict | None:
        return self.state.milestones.get(name)

    @property
    def journaled_pair_count(self) -> int:
        return len(self.state.pairs)

    def summary(self) -> dict:
        """JSON-able accounting for ``StitchResult.stats["journal"]``."""
        return {
            "path": str(self.path),
            "resumed_pairs": self.resumed_pairs,
            "recorded_pairs": self.recorded_pairs,
            "load": self.state.stats.to_dict(),
        }

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._fh.flush()
            try:
                self._sync()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
            self._fh.close()


def checkpoint_journal_path(checkpoint_dir: str | Path) -> Path:
    """The canonical journal location inside a ``--checkpoint`` directory."""
    return Path(checkpoint_dir) / JOURNAL_FILENAME
