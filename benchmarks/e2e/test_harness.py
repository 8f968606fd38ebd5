"""Checks on the benchmark harness itself (not part of tier-1).

Run by explicit path::

    python -m pytest benchmarks/e2e -q

The static tests check ``BENCHMARK.json`` and ``layers.json`` against the
contract; the smoke tests run ``run.py --smoke`` twice (two seeds, ~25 s
each) and check the emitted ledger, and that the seed changes the inputs
and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert len(SPEC["workloads"]) == 5
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + END_TO_END + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_layer_metric_names_what_it_should_move():
    assert set(LAYERS) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in LAYERS.items():
        assert name.startswith(entry["layer"] + "."), name
        assert entry["meaning"], name
        # No end-to-end target is a statement too: it must be made.
        assert entry["moves"] or "watch only" in entry["meaning"], name
        for move in entry["moves"]:
            metric, _, workload = move.partition("@")
            assert metric in END_TO_END, move
            assert workload in WORKLOADS, move


def test_workload_table_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    from workloads import DATASETS, SMOKE_DATASETS, WORKLOADS as TABLE

    assert list(TABLE) == WORKLOADS
    assert set(DATASETS) == set(SMOKE_DATASETS) == {
        w.dataset for w in TABLE.values()}


# -- smoke runs ----------------------------------------------------------------


def smoke(seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e-smoke")
    return smoke(1, tmp / "seed1.json"), smoke(2, tmp / "seed2.json")


def test_smoke_ledger_has_every_metric(ledgers):
    ledger = ledgers[0]
    assert list(ledger["workloads"]) == WORKLOADS
    for name, w in ledger["workloads"].items():
        assert w["why"]
        assert w["failed"] == 0 and w["failed_frac"] == 0.0, w["failures"]
        assert w["error_px"] == 0.0
        assert list(w["end_to_end"]) == END_TO_END
        for m in w["end_to_end"].values():
            assert m["value"] > 0 and m["n"] >= 1
            assert m["q1"] <= m["median"] <= m["q3"]
        assert set(w["per_layer"]) == set(LAYERS)
        for metric, m in w["per_layer"].items():
            assert m["moves"] == LAYERS[metric]["moves"]
        assert w["per_layer"]["bench.layer_coverage"]["value"] > 0.5
    for trace in (HERE / "results").glob("trace_*.json"):
        spans = json.loads(trace.read_text())["spans"]
        assert {"name", "start", "end", "parent", "workload"} <= set(spans[0])


def test_seed_changes_the_inputs_and_nothing_else(ledgers, tmp_path):
    first, second = ledgers

    def shape(ledger: dict) -> dict:
        return {name: (sorted(w["end_to_end"]), sorted(w["per_layer"]),
                       w["failed"], w["error_px"])
                for name, w in ledger["workloads"].items()}

    assert shape(first) == shape(second)

    def dataset_digest(seed: int, where: Path) -> str:
        request = {"role": "generate", "datasets": {"job": str(where)},
                   "seed": seed, "smoke": True}
        subprocess.run([sys.executable, str(HERE / "child.py"),
                        json.dumps(request)], check=True, capture_output=True,
                       timeout=120)
        digest = hashlib.sha256()
        for path in sorted(where.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        return digest.hexdigest()

    assert dataset_digest(1, tmp_path / "a") == dataset_digest(1, tmp_path / "b")
    assert dataset_digest(1, tmp_path / "a2") != dataset_digest(2, tmp_path / "c")
