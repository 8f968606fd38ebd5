"""A SIGKILLed ``repro serve`` takes its warm workers with it.

The server cannot clean up after SIGKILL, and a worker's pipe never
reports EOF (every worker forked after it holds its parent end), so
each worker watches the pid that forked it and exits once that process
is gone.  This drives the real CLI in a subprocess.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service import ServiceClient

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


def _gone(pid: int) -> bool:
    """True when ``pid`` has exited (absent, or a zombie nobody reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def test_sigkilled_server_leaves_no_workers(tmp_path):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--spool", str(tmp_path / "spool")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    pids: list[int] = []
    try:
        line = server.stdout.readline()
        match = re.search(r"http://([^:]+):(\d+)", line)
        assert match, f"no listen line from repro serve: {line!r}"
        client = ServiceClient(match.group(1), int(match.group(2)))
        deadline = time.monotonic() + 30
        while len(pids) < 2:
            assert time.monotonic() < deadline, "workers never came up"
            workers = client.health()["workers"]
            pids = [w["pid"] for w in workers if w["alive"] and w["pid"]]
            time.sleep(0.05)
        assert len(pids) == 2 and all(not _gone(pid) for pid in pids)

        server.kill()
        server.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while not all(_gone(pid) for pid in pids):
            assert time.monotonic() < deadline, (
                f"workers outlived their server: "
                f"{[pid for pid in pids if not _gone(pid)]}"
            )
            time.sleep(0.05)
    finally:
        server.kill()
        server.wait(timeout=10)
        server.stdout.close()
        for pid in pids:
            _kill(pid)
