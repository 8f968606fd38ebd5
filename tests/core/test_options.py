"""One ``StitchOptions`` behind every surface.

One table of ``(flat spelling, CLI spelling, outcome)`` rows is fed
through all three doors -- ``Stitcher(**flat)``, a service ``JobSpec``
and the ``repro stitch`` flags -- and the doors must agree: the same
resolved options, or a refusal at the door (never after phase 1).
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _stitch_options, build_parser, main
from repro.core.coarse import CoarseConfig
from repro.core.options import FLAT_KEYS, StitchOptions
from repro.core.pciam import CcfMode
from repro.core.quality_gate import QualityConfig
from repro.core.stitcher import Stitcher
from repro.grid.traversal import Traversal
from repro.service.jobs import (
    ALLOWED_OPTIONS,
    COMPOSE_OPTIONS,
    JobSpec,
    stitch_keys_of,
)
from repro.synth import make_synthetic_dataset

# (flat keys, ``repro stitch`` flags or None when the CLI cannot spell
# it, the fields that differ from the defaults)
RESOLVED = [
    ({}, [], {}),
    ({"n_peaks": 3}, ["--peaks", "3"], {"n_peaks": 3}),
    ({"max_retries": 2, "on_tile_error": "skip"},
     ["--max-retries", "2", "--on-tile-error", "skip"],
     {"max_retries": 2, "on_tile_error": "skip"}),
    ({"subpixel": True}, None, {"subpixel": True}),
    ({"traversal": "row"}, None, {"traversal": Traversal.ROW}),
    ({"pad_to_smooth": True}, ["--pad"], {"pad_to_smooth": True}),
    # ``refine`` is the gate's repair step: it turns the gate on, and
    # ``False`` is no switch at all.
    ({"refine": True}, ["--refine"], {"quality": QualityConfig(refine=True)}),
    ({"refine": False}, [], {}),
    ({"refine": True, "conf_thresh": 0.4}, ["--refine", "--conf-thresh", "0.4"],
     {"quality": QualityConfig(conf_thresh=0.4, refine=True)}),
    # The quality gate: the switch, or any knob -- even against the switch.
    ({"quality": True}, ["--quality-gate"], {"quality": QualityConfig()}),
    ({"conf_thresh": 0.4}, ["--conf-thresh", "0.4"],
     {"quality": QualityConfig(conf_thresh=0.4)}),
    ({"quality": False, "conf_thresh": 0.4}, ["--conf-thresh", "0.4"],
     {"quality": QualityConfig(conf_thresh=0.4)}),
    ({"min_peak_ratio": 1.1}, ["--min-peak-ratio", "1.1"],
     {"quality": QualityConfig(min_peak_ratio=1.1)}),
    ({"position_method": "least_squares", "quality": True,
      "residue_mode": "huber"},
     ["--positions", "least_squares", "--quality-gate",
      "--residue-mode", "huber"],
     {"position_method": "least_squares",
      "quality": QualityConfig(residue_mode="huber")}),
    # Coarse-to-fine registration, likewise.
    ({"coarse": True}, ["--coarse-registration"], {"coarse": CoarseConfig()}),
    ({"coarse_scale": 0.25}, ["--coarse-scale", "0.25"],
     {"coarse": CoarseConfig(factor=4)}),
    ({"coarse_scale": 0.5, "coarse_conf_thresh": 0.9},
     ["--coarse-scale", "0.5", "--coarse-conf-thresh", "0.9"],
     {"coarse": CoarseConfig(conf_thresh=0.9)}),
    ({"coarse": CoarseConfig(coarse_peaks=3, conf_thresh=0.9),
      "coarse_scale": 0.25}, None,
     {"coarse": CoarseConfig(factor=4, coarse_peaks=3, conf_thresh=0.9)}),
    # The paper's Fig. 2 verbatim: full-resolution PCIAM at every size.
    ({"ccf_mode": "paper4", "n_peaks": 1, "coarse": False}, ["--paper-faithful"],
     {"ccf_mode": CcfMode.PAPER4, "n_peaks": 1, "coarse": False}),
    ({"impl": "mt-cpu", "impl_options": {"workers": 3}},
     ["--impl", "mt-cpu", "--workers", "3"],
     {"impl": "mt-cpu", "impl_options": {"workers": 3}}),
]

# (flat keys, flags or None, what the refusal names).  Every row was
# accepted by at least one door at the parent commit.
REFUSED = [
    ({"position_method": "bogus"}, ["--positions", "bogus"], "position_method"),
    ({"n_peaks": 0}, ["--peaks", "0"], "n_peaks"),
    ({"n_peaks": "2"}, None, "n_peaks"),
    ({"n_peaks": "abc"}, ["--peaks", "abc"], "n_peaks"),
    ({"max_retries": -1}, ["--max-retries", "-1"], "max_retries"),
    ({"retry_backoff": -1}, None, "retry_backoff"),
    ({"on_tile_error": "bogus"}, ["--on-tile-error", "bogus"], "on_tile_error"),
    ({"conf_thresh": "x"}, ["--conf-thresh", "x"], "conf_thresh"),
    ({"residue_mode": "bogus"}, ["--residue-mode", "bogus"], "residue_mode"),
    # Only the least-squares solve damps residues; "mst" used to drop the mode.
    ({"residue_mode": "huber"}, ["--residue-mode", "huber"],
     "residue_mode 'huber' needs position_method 'least_squares'"),
    ({"position_method": "mst", "quality": True, "residue_mode": "threshold"},
     ["--positions", "mst", "--quality-gate", "--residue-mode", "threshold"],
     "residue_mode 'threshold' needs position_method"),
    ({"coarse_scale": 7}, ["--coarse-scale", "7"],
     r"coarse scale must be in \(0, 0.5\]"),
    ({"quality": "false"}, None, "quality"),
    ({"coarse": 1}, None, "coarse"),
    ({"subpixel": "yes"}, None, "subpixel"),
    ({"refine": "yes"}, None, "refine must be true or false"),
    ({"refine": 1}, None, "refine must be true or false"),
    ({"impl": "warp-drive"}, ["--impl", "warp-drive"], "unknown impl"),
]


def ids(rows):
    return [json.dumps(row[0], default=repr) for row in rows]


def job_options(flat):
    """What the service worker resolves a job's ``options`` to."""
    spec = JobSpec(dataset="x", options=flat)
    return StitchOptions.from_flat(stitch_keys_of(spec.options))


def cli_options(argv):
    return _stitch_options(build_parser().parse_args(["stitch", "ds", *argv]))


@pytest.mark.parametrize("flat,argv,changed", RESOLVED, ids=ids(RESOLVED))
def test_every_door_resolves_the_same_options(flat, argv, changed):
    expected = StitchOptions(**changed)
    assert Stitcher(**flat).options == expected
    if set(flat) <= ALLOWED_OPTIONS:
        assert job_options(flat) == expected
    if argv is not None:
        assert cli_options(argv) == expected


@pytest.mark.parametrize("flat,argv,match", REFUSED, ids=ids(REFUSED))
def test_every_door_refuses_at_the_door(flat, argv, match):
    with pytest.raises(ValueError, match=match):
        Stitcher(**flat)
    if set(flat) <= ALLOWED_OPTIONS:
        with pytest.raises(ValueError, match=match):
            JobSpec(dataset="x", options=flat)
    if argv is not None:
        # argparse refuses what ``type=``/``choices=`` catch (exit 2);
        # the rest is from_flat's ValueError.
        with pytest.raises((SystemExit, ValueError)):
            cli_options(argv)


@pytest.mark.parametrize("options,match", [
    ({"memory_budget": -5}, "memory_budget"),
    ({"memory_budget": "1M"}, "memory_budget"),
    ({"pyramid_levels": "many"}, "pyramid_levels"),
    ({"pyramid_levels": -1}, "pyramid_levels"),
    ([1, 2], "options must be a JSON object"),
    ("coarse", "options must be a JSON object"),
])
def test_job_spec_refuses_bad_compose_options(options, match):
    with pytest.raises(ValueError, match=match):
        JobSpec(dataset="x", options=options)


def test_job_spec_admits_a_tiny_budget():
    """Whether a budget fits the geometry is decided at compose time."""
    spec = JobSpec(dataset="x",
                   options={"memory_budget": 1000, "pyramid_levels": 0})
    assert stitch_keys_of(spec.options) == {}


def test_allowed_job_options_are_stitch_or_compose_keys():
    assert ALLOWED_OPTIONS - set(COMPOSE_OPTIONS) <= FLAT_KEYS
    assert set(COMPOSE_OPTIONS) <= ALLOWED_OPTIONS
    assert not set(COMPOSE_OPTIONS) & FLAT_KEYS


def test_unknown_option_name_is_a_type_error():
    with pytest.raises(TypeError, match="frobnicate"):
        Stitcher(frobnicate=1)
    # Deleted options (they could not change an answer) are unknown too.
    for name in ("planning", "use_tile_stats", "use_workspace"):
        with pytest.raises(TypeError, match=name):
            StitchOptions.from_flat({name: "measure"})


def test_resume_mode_checked_at_construction(tmp_path):
    with pytest.raises(ValueError, match="resume"):
        Stitcher(resume="bogus", checkpoint=str(tmp_path))


def test_keywords_override_an_options_value():
    base = StitchOptions(n_peaks=3, quality=QualityConfig(conf_thresh=0.4))
    assert Stitcher(base).options is base
    merged = Stitcher(base, residue_mode="huber", subpixel=True,
                      position_method="least_squares").options
    assert merged == StitchOptions(
        n_peaks=3, subpixel=True, position_method="least_squares",
        quality=QualityConfig(conf_thresh=0.4, residue_mode="huber"),
    )
    with pytest.raises(TypeError, match="StitchOptions"):
        Stitcher(Traversal.ROW)  # the first positional used to be traversal


def test_refine_false_runs_no_gate(dataset_4x4):
    result = Stitcher(refine=False).stitch(dataset_4x4)
    assert "quality_report" not in result.stats
    assert "refined_pairs" not in result.stats


def test_option_reads_forward_to_the_options():
    stitcher = Stitcher(coarse=True, n_peaks=3)
    assert stitcher.coarse == CoarseConfig()
    assert stitcher.n_peaks == 3 and stitcher.quality is None
    with pytest.raises(AttributeError):
        stitcher.no_such_option


# -- journal fingerprint: pinned to what the parent commit emitted -----------

DEFAULT_FINGERPRINT = (
    '{"dataset": {"rows": 4, "cols": 4, "tile_height": 64, "tile_width": 64, '
    '"overlap": 0.25, "bit_depth": 16, '
    '"pattern": "img_r{row:03d}_c{col:03d}.tif"}, '
    '"options": {"ccf_mode": "extended", "n_peaks": 2, "subpixel": false, '
    '"fft_shape": null, "position_method": "mst", "refine": false, '
    '"coarse": null}}'
)
VARIANT_FINGERPRINT = (
    '{"dataset": {"rows": 3, "cols": 3, "tile_height": 97, "tile_width": 97, '
    '"overlap": 0.25, "bit_depth": 16, '
    '"pattern": "img_r{row:03d}_c{col:03d}.tif"}, '
    '"options": {"ccf_mode": "paper4", "n_peaks": 1, "subpixel": true, '
    '"fft_shape": [98, 98], "position_method": "least_squares", '
    '"refine": true, "coarse": {"factor": 4, "conf_thresh": 0.95, '
    '"min_peak_ratio": 1.0, "coarse_peaks": 8, "search_radius": 8, '
    '"min_overlap_frac": 0.05}}}'
)


def test_fingerprint_is_what_the_parent_commit_emitted(dataset_4x4, tmp_path):
    assert json.dumps(StitchOptions().fingerprint(dataset_4x4)) == (
        DEFAULT_FINGERPRINT)
    ds97 = make_synthetic_dataset(
        tmp_path, rows=3, cols=3, tile_height=97, tile_width=97,
        overlap=0.25, seed=4,
    )
    variant = StitchOptions.from_flat({
        "coarse": True, "coarse_scale": 0.25, "pad_to_smooth": True,
        "position_method": "least_squares", "refine": True, "subpixel": True,
        "ccf_mode": "paper4", "n_peaks": 1,
        # None of these is result-affecting, so none is fingerprinted.
        "quality": True, "real_transforms": False, "max_retries": 2,
        "impl": "pipelined-cpu",
    })
    assert json.dumps(variant.fingerprint(ds97)) == VARIANT_FINGERPRINT


def test_a_job_that_says_coarse_false_runs_full_pciam_at_every_size():
    assert job_options({"coarse": False}).coarse_for((520, 696)) is None
    assert job_options({}).coarse_for((520, 696)) == CoarseConfig()


@pytest.mark.parametrize("shape,decided", [
    ((128, 128), None), ((512, 512), None), ((520, 696), CoarseConfig()),
    ((1040, 1392), CoarseConfig()),
])
def test_the_tile_shape_decides_an_undecided_coarse(shape, decided):
    assert StitchOptions().coarse_for(shape) == decided
    assert StitchOptions(coarse=False).coarse_for(shape) is None
    forced = CoarseConfig(factor=4)
    assert StitchOptions(coarse=forced).coarse_for(shape) is forced


def test_fingerprint_records_the_resolved_coarse_config():
    below, above = (128, 128), (520, 696)
    for tile_shape in (None, below):
        assert StitchOptions().fingerprint_options(tile_shape) == (
            StitchOptions(coarse=False).fingerprint_options(tile_shape))
    assert StitchOptions().fingerprint_options(above)["coarse"] == (
        CoarseConfig().to_fingerprint())
    assert StitchOptions(coarse=False).fingerprint_options(above)[
        "coarse"] is None


def test_journal_under_the_old_default_is_refused_from_the_gate(tmp_path):
    """A journal written with ``coarse=False`` -- full PCIAM, the default
    before coarse-to-fine was -- on tiles at the gate: the new default
    refuses it, naming ``options.coarse``; ``coarse=False`` and
    ``--no-coarse-registration`` resume it bit-identically."""
    from repro.recovery.journal import JournalMismatch

    dataset = make_synthetic_dataset(
        tmp_path / "ds", rows=1, cols=2, tile_height=520, tile_width=696,
        overlap=0.20, seed=3,
    )
    assert StitchOptions().coarse_for(dataset.tile_shape) is not None
    ckpt = tmp_path / "ckpt"
    first = Stitcher(coarse=False, checkpoint=str(ckpt)).stitch(dataset)
    header = (ckpt / "journal.jsonl").read_bytes().splitlines()[0]
    with pytest.raises(JournalMismatch, match="options.coarse") as ei:
        Stitcher(checkpoint=str(ckpt)).stitch(dataset)
    assert {path for path, _, _ in ei.value.differences} == {"options.coarse"}
    resumed = Stitcher(coarse=False, checkpoint=str(ckpt),
                       resume="require").stitch(dataset)
    journal = resumed.stats["journal"]
    assert (journal["resumed_pairs"], journal["recorded_pairs"]) == (1, 0)
    assert np.array_equal(resumed.positions.positions,
                          first.positions.positions)
    pj = tmp_path / "positions.json"
    assert main(["stitch", str(dataset.directory), "--no-coarse-registration",
                 "--checkpoint", str(ckpt), "--resume",
                 "--positions-json", str(pj)]) == 0
    assert np.array_equal(json.loads(pj.read_text()),
                          first.positions.positions)
    assert (ckpt / "journal.jsonl").read_bytes().splitlines()[0] == header


def test_journal_written_by_the_parent_commit_resumes(tmp_path):
    """``data/parent_1x4_journal.jsonl``: a default run of the parent
    commit over this 1x4 acquisition (3 pairs + both milestones)."""
    dataset = make_synthetic_dataset(
        tmp_path / "ds", rows=1, cols=4, tile_height=48, tile_width=48,
        overlap=0.25, seed=5,
    )
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    fixture = Path(__file__).parents[1] / "recovery/data/parent_1x4_journal.jsonl"
    shutil.copy(fixture, ckpt / "journal.jsonl")
    result = Stitcher(checkpoint=str(ckpt), resume="require").stitch(dataset)
    journal = result.stats["journal"]
    assert (journal["resumed_pairs"], journal["recorded_pairs"]) == (3, 0)
    assert result.position_errors().max() == 0.0


def test_default_journal_header_is_unchanged_below_the_gate(tmp_path):
    """Below the gate an undecided coarse is full PCIAM and fingerprints
    as ``null``: a fresh default run writes the parent commit's header."""
    dataset = make_synthetic_dataset(
        tmp_path / "ds", rows=1, cols=4, tile_height=48, tile_width=48,
        overlap=0.25, seed=5,
    )
    fixture = Path(__file__).parents[1] / "recovery/data/parent_1x4_journal.jsonl"
    for coarse in (None, False):
        ckpt = tmp_path / f"ckpt-{coarse}"
        Stitcher(coarse=coarse, checkpoint=str(ckpt)).stitch(dataset)
        assert ((ckpt / "journal.jsonl").read_bytes().splitlines()[0]
                == fixture.read_bytes().splitlines()[0])
