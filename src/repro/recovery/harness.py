"""Process-kill chaos harness for checkpoint/resume testing.

The journal's end-to-end guarantee -- *kill at any point, resume, get
bit-identical positions* -- can only be proven by actually killing a
process.  This harness launches a stitch as a subprocess, watches its
journal grow (each flushed record is one newline-terminated line, so the
file's newline count *is* the count of records that survive SIGKILL),
and delivers SIGKILL once a chosen number of records has landed.  SIGKILL is deliberate: it
cannot be caught, so the child gets no chance to flush, close, or
otherwise tidy up -- exactly the crash the journal must survive,
including a torn final line.

Used by ``tests/recovery/test_kill_resume.py`` and the CI chaos-smoke
job (which drives the same flow from a shell script).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class KillResult:
    """Outcome of one :func:`run_until_killed` round."""

    #: True when the harness delivered SIGKILL; False when the child
    #: finished before reaching the kill threshold (still a valid round:
    #: resuming a *complete* journal must recompute nothing).
    killed: bool
    returncode: int | None
    #: Durable journal records observed when the round ended.
    journal_records: int
    stdout: str
    stderr: str


def count_journal_records(journal_path: str | Path) -> int:
    """Newline-terminated (= durably completed) records in the journal."""
    try:
        return Path(journal_path).read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def run_until_killed(
    argv: list[str],
    journal_path: str | Path,
    kill_after_records: int,
    poll_interval: float = 0.002,
    timeout: float = 300.0,
    env: dict | None = None,
    cwd: str | Path | None = None,
) -> KillResult:
    """Run ``argv`` and SIGKILL it once the journal holds enough records.

    ``kill_after_records`` counts *all* journal lines (header included),
    so ``1`` kills as soon as the header lands and ``N+1`` kills after
    roughly ``N`` pair records.  The child is given no shutdown grace --
    see the module docstring for why.

    Raises :class:`TimeoutError` if the child neither reaches the
    threshold nor exits within ``timeout`` seconds (a hung child is a
    test failure, not something to wait out).
    """
    journal_path = Path(journal_path)
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=None if cwd is None else str(cwd),
    )
    deadline = time.monotonic() + timeout
    killed = False
    try:
        while True:
            rc = proc.poll()
            if rc is not None:
                break
            if count_journal_records(journal_path) >= kill_after_records:
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait(timeout=10)
                raise TimeoutError(
                    f"child neither produced {kill_after_records} journal "
                    f"records nor exited within {timeout}s"
                )
            time.sleep(poll_interval)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive cleanup
            proc.kill()
            proc.wait(timeout=10)
    return KillResult(
        killed=killed,
        returncode=proc.returncode,
        journal_records=count_journal_records(journal_path),
        stdout=stdout,
        stderr=stderr,
    )


def stitch_argv(
    dataset_dir: str | Path,
    checkpoint_dir: str | Path,
    impl: str = "simple-cpu",
    extra: list[str] | None = None,
    python: str | None = None,
) -> list[str]:
    """Argv for a checkpointed CLI stitch, suitable for the harness."""
    argv = [
        python or sys.executable, "-m", "repro", "stitch",
        str(dataset_dir),
        "--impl", impl,
        "--checkpoint", str(checkpoint_dir),
    ]
    argv.extend(extra or [])
    return argv


def subprocess_env(src_dir: str | Path | None = None) -> dict:
    """Environment for harness children: parent env + ``PYTHONPATH=src``."""
    env = dict(os.environ)
    if src_dir is not None:
        prev = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{prev}" if prev else str(src_dir)
        )
    return env
