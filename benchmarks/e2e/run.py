#!/usr/bin/env python3
"""End-to-end stitch benchmark: five workloads, one ledger.

    python benchmarks/e2e/run.py                      # whole session, all metrics
    python benchmarks/e2e/run.py --workload tiles_default --seed 7
    python benchmarks/e2e/run.py --smoke              # shrunken, one pass, < 20 s
    python benchmarks/e2e/run.py --repeat-check       # two sessions must agree

The benchmark driver's protocol (one workload, one JSON object as the last
line of stdout) is selected by passing ``--trace``:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

This parent stays stdlib-only: every dataset, every measurement and every
traced replay runs in a fresh child (``child.py``), because an exec'd child
inherits the parent's RSS high-water mark and because set-up must be cold to
be timed.  Metric names, units and bounds come from ``BENCHMARK.json``; which
end-to-end metric each layer metric should move comes from ``layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (stdlib-only at import time)

PASSES = 4          # fresh children per workload in a session
DRIVER_PASSES = 3   # ... and in one driver run, which must fit ~20 s
PASS_SECONDS = 4.0
CHILD_TIMEOUT = 170.0
#: One driver run must exit within 180 s whatever its children do.
DRIVER_DEADLINE = 170.0
#: From outside the program 10 % unattributed time is the bar (ROADMAP asks
#: for 5 % once spans move inside it).
MIN_COVERAGE = 0.90
COVERAGE_WORKLOADS = ("tiles_default", "tiles_coarse", "grid_small_tiles")


class ChildFailed(Exception):
    pass


def run_child(request: dict, timeout: float = CHILD_TIMEOUT) -> dict:
    """One child, in its own process group so nothing it forked outlives it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{request['role']} child timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"{request['role']} child exited {proc.returncode}:\n"
                          + err[-2000:])
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def session(names: list[str], seed: int, pass_seconds: float, passes: int,
            trace_seconds: float, smoke: bool, deadline: float | None = None) -> dict:
    """Generate the inputs once, then ``passes`` untraced children per
    workload (interleaved, so a workload's samples span the session) and,
    with ``trace_seconds`` > 0, one replay child per workload.  Past
    ``deadline`` (``time.monotonic``) children are killed and the run fails."""

    def start(request: dict) -> dict:
        if deadline is None:
            return run_child(request)
        return run_child(request, min(CHILD_TIMEOUT, deadline - time.monotonic()))

    work = HERE / ".work" / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = {n: {"samples": [], "setups": [], "rss": [], "attempted": 0,
               "failed": 0, "failures": [], "error_px": 0.0, "layers": {}}
           for n in names}
    try:
        generate_s = start({
            "role": "generate", "seed": seed, "smoke": smoke,
            "datasets": {key: str(work / key)
                         for key in sorted({WORKLOADS[n].dataset for n in names})},
        })["generate_s"]

        def child(role: str, name: str, tag: str, **extra) -> dict:
            reply = start({
                "role": role, "workload": name, "smoke": smoke,
                "dataset_dir": str(work / WORKLOADS[name].dataset),
                "out_dir": str(work / f"out_{name}_{tag}"), **extra,
            })
            shutil.rmtree(work / f"out_{name}_{tag}", ignore_errors=True)
            row = out[name]
            for key in ("attempted", "failed", "failures"):
                row[key] += reply[key]
            row["error_px"] = max(row["error_px"], reply["error_px"])
            row["threads"] = reply["threads"]
            return reply

        for p in range(passes):
            for name in names:
                reply = child("measure", name, str(p), seconds=pass_seconds)
                out[name]["samples"] += reply["samples"]
                out[name]["setups"].append(reply["setup_s"])
                out[name]["rss"].append(reply["peak_rss_mb"])
        if trace_seconds > 0:
            for name in names:
                trace_path = HERE / "results" / f"trace_{name}.json"
                reply = child("trace", name, "trace", trace_path=str(trace_path),
                              seconds=trace_seconds)
                out[name]["layers"] = {
                    "synth.generate_s": generate_s[WORKLOADS[name].dataset],
                    **reply["metrics"],
                }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass  # another run's directory is still there
    return out


def end_to_end(row: dict) -> dict[str, float]:
    """The untraced numbers of one workload.  Timings are best-of-N: on a
    shared VM interference only ever adds time, so the minimum over samples
    spread across the session is the steadiest estimate (see README)."""
    return {
        "wall_s": min(row["samples"]),
        "peak_rss_mb": max(row["rss"]),
        "setup_s": min(row["setups"]),
    }


# -- driver protocol -----------------------------------------------------------


def driver_run(spec: dict, args) -> int:
    traced = bool(args.trace)
    row = session([args.workload], args.seed, args.seconds / DRIVER_PASSES,
                  0 if traced else DRIVER_PASSES,
                  trace_seconds=args.seconds if traced else 0.0,
                  smoke=args.smoke,
                  deadline=time.monotonic() + DRIVER_DEADLINE)[args.workload]
    if not traced and not row["samples"]:
        print("no operation succeeded:", *row["failures"], sep="\n", file=sys.stderr)
        return 1
    if traced:
        declared = spec["per_layer"]
        values = {m["name"]: row["layers"].get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = end_to_end(row)
        print(f"{args.workload}: {len(row['samples'])} operations, median "
              f"{statistics.median(row['samples']):.4f} s; set-ups "
              + " ".join(f"{s:.3f}" for s in row["setups"]), file=sys.stderr)
    for failure in row["failures"]:
        print("FAILED:", failure, file=sys.stderr)
    print(json.dumps({
        "correct": row["failed"] == 0,
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


# -- human session ------------------------------------------------------------


def summarise(spec: dict, layers: dict, rows: dict, seed: int, smoke: bool) -> dict:
    """The ledger: every metric by name with unit, bound, N and quartiles."""
    ledger = {"seed": seed, "smoke": smoke, "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        if name not in rows:
            continue
        row = rows[name]
        series = {"wall_s": row["samples"], "setup_s": row["setups"],
                  "peak_rss_mb": row["rss"]}
        e2e = {}
        if row["samples"]:
            best = end_to_end(row)
            for m in spec["end_to_end"]:
                q1, q2, q3 = quartiles(series[m["name"]])
                e2e[m["name"]] = {
                    "value": best[m["name"]], "unit": m["unit"],
                    "better": m["better"], "bound": m["bound"],
                    "n": len(series[m["name"]]), "q1": q1, "median": q2, "q3": q3,
                }
        ledger["workloads"][name] = {
            "why": entry["why"],
            "threads": row.get("threads"),
            "attempted": row["attempted"], "failed": row["failed"],
            "failed_frac": row["failed"] / max(1, row["attempted"]),
            "error_px": row["error_px"], "failures": row["failures"],
            "end_to_end": e2e,
            "per_layer": {
                m["name"]: {"value": row["layers"].get(m["name"], 0.0),
                            "unit": m["unit"], "better": m["better"],
                            "moves": layers[m["name"]]["moves"]}
                for m in spec["per_layer"]
            } if row["layers"] else {},
        }
    return ledger


def print_ledger(ledger: dict) -> None:
    for name, w in ledger["workloads"].items():
        print(f"\n== {name}  (seed {ledger['seed']}, {w['threads']} threads) ==")
        print(f"   {w['why']}")
        print(f"   {'failed_frac':<14}{w['failed_frac']:>12.4f} ratio   "
              f"({w['failed']} of {w['attempted']} operations)")
        print(f"   {'error_px':<14}{w['error_px']:>12.4f} px")
        for metric, m in w["end_to_end"].items():
            print(f"   {metric:<14}{m['value']:>12.4f} {m['unit']:<6}"
                  f"bound +{m['bound']:.0%}  N={m['n']}  median {m['median']:.4f}"
                  f"  quartiles {m['q1']:.4f}..{m['q3']:.4f}")
        for failure in w["failures"]:
            print(f"   FAILED: {failure}")
        for metric, m in w["per_layer"].items():
            moves = ", ".join(m["moves"]) or "watch only"
            print(f"     {metric:<42}{m['value']:>14.6g} {m['unit']:<7}-> {moves}")
        coverage = w["per_layer"].get("bench.layer_coverage", {}).get("value")
        if (name in COVERAGE_WORKLOADS and coverage is not None
                and coverage < MIN_COVERAGE):
            print(f"WARNING: {name}: layer spans cover {coverage:.1%} of the "
                  f"traced operation, below {MIN_COVERAGE:.0%}")


def disagreements(spec: dict, first: dict, second: dict) -> list[str]:
    """End-to-end metrics of two sessions that differ by more than their bound."""
    out = []
    for name, w in first["workloads"].items():
        for m in spec["end_to_end"]:
            a = w["end_to_end"][m["name"]]["value"]
            b = second["workloads"][name]["end_to_end"][m["name"]]["value"]
            if abs(b - a) > m["bound"] * min(a, b):
                out.append(f"{name} {m['name']}: {a:.4f} vs {b:.4f} "
                           f"{m['unit']} (bound {m['bound']:.0%})")
    return out


def main() -> int:
    # Without the program there is nothing to measure: fail before any output.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("src/repro not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (driver protocol)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver protocol: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken geometry, one pass")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the session twice; fail unless they agree")
    parser.add_argument("--out", type=Path, help="where to write the ledger JSON")
    args = parser.parse_args()

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return driver_run(spec, args)

    selected = [args.workload] if args.workload else names
    passes, pass_seconds = (1, 0.5) if args.smoke else (PASSES, PASS_SECONDS)
    if args.seconds is not None:
        pass_seconds = args.seconds / passes

    def one_session() -> dict:
        t0 = time.perf_counter()
        rows = session(selected, args.seed, pass_seconds, passes,
                       trace_seconds=pass_seconds * passes, smoke=args.smoke)
        ledger = summarise(spec, layers, rows, args.seed, args.smoke)
        ledger["session_s"] = time.perf_counter() - t0
        print_ledger(ledger)
        return ledger

    ledger = one_session()
    failed = sum(w["failed"] for w in ledger["workloads"].values())
    if args.repeat_check:
        bad = disagreements(spec, ledger, one_session())
        for line in bad:
            print("DISAGREE:", line)
        print(f"\nrepeat check: {len(bad)} end-to-end metrics outside their bound")
        failed += len(bad)
    out = args.out
    if out is None and args.workload is None and not args.smoke:
        out = HERE / "results" / "ledger.json"
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(ledger, indent=2) + "\n")
        print(f"\nledger written to {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
