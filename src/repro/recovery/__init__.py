"""Durable-run machinery: checkpoint/resume journal, cancellation, watchdog.

Three pillars (see ``docs/ROBUSTNESS.md``):

- :mod:`repro.recovery.journal` -- append-only, fsync'd, CRC-checked run
  journal making a killed stitch resumable at pairwise-displacement
  granularity;
- :mod:`repro.recovery.cancel` -- cooperative per-item cancellation
  tokens (Python threads cannot be interrupted);
- :mod:`repro.recovery.watchdog` -- supervision thread detecting hung
  items and whole-pipeline stalls, escalating to clean shutdown with a
  structured :class:`StallReport`;
- :mod:`repro.recovery.harness` -- subprocess SIGKILL harness proving the
  kill-at-any-point resume guarantee end to end.
"""

from repro.recovery.cancel import (
    CancelToken,
    ItemCancelled,
    current_token,
    install_token,
)
from repro.recovery.harness import (
    KillResult,
    count_journal_records,
    run_until_killed,
    stitch_argv,
    subprocess_env,
)
from repro.recovery.journal import (
    JOURNAL_FILENAME,
    JournalError,
    JournalLoadStats,
    JournalMismatch,
    JournalState,
    JournalWriteError,
    RunJournal,
    checkpoint_journal_path,
    dataset_fingerprint,
    fingerprint_diff,
    load_journal,
)
from repro.recovery.watchdog import (
    Intervention,
    StallReport,
    Watchdog,
    WatchdogConfig,
)

__all__ = [
    "CancelToken",
    "ItemCancelled",
    "current_token",
    "install_token",
    "KillResult",
    "count_journal_records",
    "run_until_killed",
    "stitch_argv",
    "subprocess_env",
    "JOURNAL_FILENAME",
    "JournalError",
    "JournalLoadStats",
    "JournalMismatch",
    "JournalState",
    "JournalWriteError",
    "RunJournal",
    "checkpoint_journal_path",
    "dataset_fingerprint",
    "fingerprint_diff",
    "load_journal",
    "Intervention",
    "StallReport",
    "Watchdog",
    "WatchdogConfig",
]
