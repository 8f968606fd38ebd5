"""Set-up, the untraced measuring loop, and per-operation accounting.

Shared by the ``measure`` and ``trace`` roles of ``child.py``.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

MIN_OPERATIONS = 3


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child (MiB).

    Batch workloads start no process, so the second term is zero; the
    service's forked workers are reaped by ``StitchService.stop`` before
    this is read.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def ready(request: dict):
    """Import the program and build the workload's state: the cold part.

    Returns ``(workload, state, {"import_s", "build_s"})``.
    """
    from workloads import WORKLOADS, Context

    t0 = time.perf_counter()
    import repro  # noqa: F401

    t1 = time.perf_counter()
    workload = WORKLOADS[request["workload"]]
    out_dir = Path(request["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(Path(request["dataset_dir"]), out_dir, bool(request.get("smoke")))
    state = workload.setup(ctx)
    return workload, state, {"import_s": t1 - t0,
                             "build_s": time.perf_counter() - t1}


def new_record() -> dict:
    return {"attempted": 0, "failed": 0, "failures": [], "error_px": 0.0}


def attempt(workload, state, record: dict, operate=None) -> float | None:
    """One timed, verified operation; failures are counted, not raised.

    ``operate`` replaces the workload's operation (the traced run passes
    its instrumented and replayed variants); verification is the same.
    """
    record["attempted"] += 1
    t0 = time.perf_counter()
    try:
        outcome = (operate or workload.operate)(state)
        wall = time.perf_counter() - t0
        record["error_px"] = max(record["error_px"], workload.verify(state, outcome))
    except Exception as exc:  # boundary: every failure is counted and reported
        record["failed"] += 1
        record["failures"].append(f"{type(exc).__name__}: {exc}")
        return None
    return wall


def finish(workload, state, record: dict) -> None:
    """Final verification and tear-down; a failure here fails the run."""
    try:
        workload.finish(state)
    except Exception as exc:  # boundary, as in attempt()
        record["attempted"] += 1
        record["failed"] += 1
        record["failures"].append(f"{type(exc).__name__}: {exc}")


def measure(request: dict, t_start: float) -> dict:
    record = new_record()
    workload, state, timings = ready(request)
    attempt(workload, state, record)  # cold first operation is part of set-up
    setup_s = time.perf_counter() - t_start
    samples = []
    deadline = time.perf_counter() + float(request["seconds"])
    while len(samples) < MIN_OPERATIONS or time.perf_counter() < deadline:
        wall = attempt(workload, state, record)
        if wall is not None:
            samples.append(wall)
        elif record["failed"] >= MIN_OPERATIONS:
            break  # nothing works: do not spin until the deadline
    finish(workload, state, record)
    return {**record, **timings, "setup_s": setup_s, "samples": samples,
            "peak_rss_mb": peak_rss_mb()}
