"""CLI: synth / stitch / info / simulate subcommands."""

import json

import numpy as np
import pytest

from repro.cli import main


class TestSynth:
    def test_creates_dataset(self, tmp_path, capsys):
        rc = main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "2",
                   "--tile-size", "48", "--overlap", "0.2", "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "ds" / "dataset.json").exists()
        assert "wrote 6 tiles" in capsys.readouterr().out


class TestStitch:
    @pytest.fixture
    def dataset_dir(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "2"])
        return tmp_path / "ds"

    def test_stitch_to_mosaic(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "mosaic.tif"
        rc = main(["stitch", str(dataset_dir), "-o", str(out)])
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "max 0.0 px" in text

    def test_positions_json(self, dataset_dir, tmp_path):
        pj = tmp_path / "pos.json"
        main(["stitch", str(dataset_dir), "--positions-json", str(pj)])
        pos = np.asarray(json.loads(pj.read_text()))
        assert pos.shape == (3, 3, 2)

    def test_flags(self, dataset_dir, tmp_path):
        rc = main(["stitch", str(dataset_dir),
                   "--pad", "--refine",
                   "--positions", "least_squares",
                   "--blend", "linear",
                   "-o", str(tmp_path / "m.tif")])
        assert rc == 0

    def test_paper_faithful_mode(self, dataset_dir):
        assert main(["stitch", str(dataset_dir), "--paper-faithful"]) == 0

    def test_coarse_registration_matches_full(self, dataset_dir, tmp_path,
                                              capsys):
        full = tmp_path / "full.json"
        coarse = tmp_path / "coarse.json"
        assert main(["stitch", str(dataset_dir),
                     "--positions-json", str(full)]) == 0
        capsys.readouterr()
        assert main(["stitch", str(dataset_dir), "--coarse-registration",
                     "--positions-json", str(coarse)]) == 0
        text = capsys.readouterr().out
        # The CI-greppable summary line: hits + fallbacks with the knobs.
        assert "coarse:" in text and "hits" in text and "fallbacks" in text
        assert json.loads(full.read_text()) == json.loads(coarse.read_text())

    def test_coarse_scale_and_thresh_imply_coarse(self, dataset_dir, capsys):
        assert main(["stitch", str(dataset_dir),
                     "--coarse-scale", "0.5",
                     "--coarse-conf-thresh", "0.9"]) == 0
        assert "conf >= 0.9" in capsys.readouterr().out

    def test_coarse_on_impl_path(self, dataset_dir, capsys):
        assert main(["stitch", str(dataset_dir), "--impl", "mt-cpu",
                     "--coarse-registration"]) == 0
        assert "coarse:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,coarse", [
        ([], None), (["--coarse-registration"], True),
        (["--no-coarse-registration"], False), (["--paper-faithful"], False),
        (["--paper-faithful", "--coarse-registration"], True),
    ])
    def test_coarse_registration_switch(self, argv, coarse):
        from repro.cli import _stitch_options, build_parser
        from repro.core.options import StitchOptions

        args = build_parser().parse_args(["stitch", "ds", *argv])
        assert _stitch_options(args).coarse == StitchOptions(
            coarse=coarse).coarse

    def test_coarse_line_follows_the_tile_size(self, tmp_path, capsys):
        """576 px tiles are above the gate: the default runs coarse and
        says so; --no-coarse-registration and --paper-faithful do not."""
        ds = tmp_path / "big"
        main(["synth", str(ds), "--rows", "1", "--cols", "2",
              "--tile-size", "576", "--overlap", "0.2", "--seed", "1"])
        runs = {}
        for flag in (None, "--no-coarse-registration", "--paper-faithful"):
            capsys.readouterr()
            pj = tmp_path / f"{flag}.json"
            argv = ["stitch", str(ds), "--positions-json", str(pj)]
            assert main(argv + ([flag] if flag else [])) == 0
            runs[flag] = ("coarse: 1 hits, 0 fallbacks" in
                          capsys.readouterr().out, json.loads(pj.read_text()))
        assert runs[None][0]
        assert not runs["--no-coarse-registration"][0]
        assert not runs["--paper-faithful"][0]
        assert runs[None][1] == runs["--no-coarse-registration"][1]

    def test_bad_coarse_scale_errors(self, dataset_dir, capsys):
        assert main(["stitch", str(dataset_dir), "--coarse-scale", "0.7"]) == 2
        assert "error: coarse scale must be in (0, 0.5]" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv,message", [
        (["--coarse-scale", "3"], "coarse scale must be in (0, 0.5]"),
        (["--conf-thresh", "7"], "conf_thresh must be in [-1, 1]"),
        (["--max-retries", "-1"], "max_retries must be >= 0"),
        (["--watchdog", "1", "--impl", "simple-gpu"],
         "impl 'simple-gpu' cannot honour watchdog"),
        (["--residue-mode", "huber"],
         "residue_mode 'huber' needs position_method 'least_squares'"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_refused_option_value_is_a_usage_error(self, dataset_dir, argv,
                                                   message, capsys):
        """StitchOptions refuses the value; the CLI says why and exits 2
        before any tile is read -- no traceback."""
        assert main(["stitch", str(dataset_dir), *argv]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_outline(self, dataset_dir, tmp_path):
        out = tmp_path / "o.tif"
        assert main(["stitch", str(dataset_dir), "-o", str(out), "--outline"]) == 0


class TestInfo:
    def test_dataset_info(self, tmp_path, capsys):
        main(["synth", str(tmp_path / "ds"), "--rows", "2", "--cols", "2",
              "--tile-size", "32"])
        capsys.readouterr()
        main(["info", str(tmp_path / "ds")])
        out = capsys.readouterr().out
        assert "grid: 2 x 2" in out
        assert "ground truth: yes" in out

    def test_tiff_info(self, tmp_path, capsys):
        from repro.io.tiff import write_tiff

        p = tmp_path / "t.tif"
        write_tiff(p, np.zeros((10, 12), dtype=np.uint16), description="hi")
        main(["info", str(p)])
        out = capsys.readouterr().out
        assert "10 x 12" in out and "hi" in out


class TestSimulate:
    def test_small_projection(self, capsys):
        rc = main(["simulate", "--rows", "6", "--cols", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pipelined-gpu" in out and "simple-cpu" in out

    def test_laptop_machine(self, capsys):
        assert main(["simulate", "--machine", "laptop",
                     "--rows", "4", "--cols", "4"]) == 0


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


class TestImplSelection:
    @pytest.fixture
    def ds_dir(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "9"])
        return tmp_path / "ds"

    @pytest.mark.parametrize("impl", ["simple-cpu", "pipelined-cpu", "pipelined-gpu"])
    def test_impl_choices(self, ds_dir, impl, capsys):
        rc = main(["stitch", str(ds_dir), "--impl", impl])
        assert rc == 0
        assert "max 0.0 px" in capsys.readouterr().out

    def test_pattern_discovery(self, ds_dir, capsys):
        (ds_dir / "dataset.json").unlink()
        rc = main(["stitch", str(ds_dir), "--pattern",
                   "img_r{row:03d}_c{col:03d}.tif", "--overlap", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "discovered 3x3 grid" in out


class TestMoreImplFlags:
    def test_numa_and_multi_gpu(self, tmp_path, capsys):
        """Per-socket Pipelined-CPU is ``--workers`` partitions."""
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "4",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "3"])
        capsys.readouterr()
        rc = main(["stitch", str(tmp_path / "ds"),
                   "--impl", "pipelined-cpu", "--workers", "2"])
        assert rc == 0
        rc = main(["stitch", str(tmp_path / "ds"),
                   "--impl", "pipelined-gpu", "--gpus", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("max 0.0 px") == 2


class TestWorkersFlag:
    def test_auto_counts_the_affinity_mask(self, monkeypatch, tmp_path):
        """``auto`` is the CPUs this process may run on, not the
        machine's: in a cpuset of one CPU on an 8-CPU host it is 1, for
        every flag that takes it."""
        import os

        from repro.cli import build_parser

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        parser = build_parser()
        args = parser.parse_args(["stitch", str(tmp_path), "--workers",
                                  "auto", "--compose-workers", "auto"])
        assert (args.workers, args.compose_workers) == (1, 1)
        args = parser.parse_args(["serve", "--workers", "auto"])
        assert args.workers == 1

    def test_proc_cpu_is_not_a_scheduler(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stitch", str(tmp_path), "--impl", "proc-cpu"])
        assert exc.value.code == 2
        assert "argument --impl: invalid choice: 'proc-cpu'" in (
            capsys.readouterr().err)


class TestRobustnessFlags:
    @pytest.fixture
    def ds_dir(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "64", "--overlap", "0.25", "--seed", "5"])
        return tmp_path / "ds"

    def test_real_transforms_flag_removed(self, ds_dir, capsys):
        with pytest.raises(SystemExit):
            main(["stitch", str(ds_dir), "--real-transforms"])
        assert "--real-transforms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--planning", "patient"], ["--wisdom", "f"]], ids=" ".join
    )
    def test_planning_flags_removed(self, ds_dir, argv, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["stitch", str(ds_dir), *argv])
        assert refused.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_quality_gate_flag(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir), "--quality-gate"]) == 0
        assert "quality gate:" in capsys.readouterr().out

    def test_quality_knobs_imply_gate(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir),
                     "--positions", "least_squares",
                     "--conf-thresh", "0.2",
                     "--residue-mode", "huber",
                     "--min-peak-ratio", "1.0"]) == 0
        assert "quality gate:" in capsys.readouterr().out

    def test_residue_mode_without_least_squares_is_a_usage_error(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir), "--residue-mode", "huber"]) == 2
        err = capsys.readouterr().err
        assert "residue_mode 'huber' needs position_method 'least_squares'" in err

    def test_quality_gate_on_impl_path(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir), "--impl", "mt-cpu",
                     "--quality-gate"]) == 0
        assert "quality gate:" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, ds_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["stitch", str(ds_dir), "--checkpoint", str(ckpt),
                     "--positions-json", str(pa)]) == 0
        assert (ckpt / "journal.jsonl").exists()
        capsys.readouterr()
        assert main(["stitch", str(ds_dir), "--checkpoint", str(ckpt),
                     "--resume", "--positions-json", str(pb)]) == 0
        assert "(0 pairs)" in capsys.readouterr().out  # nothing recomputed
        assert json.loads(pa.read_text()) == json.loads(pb.read_text())

    def test_resume_requires_checkpoint(self, ds_dir, capsys):
        assert main(["stitch", str(ds_dir), "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_without_journal_fails(self, ds_dir, tmp_path):
        from repro.recovery.journal import JournalError

        with pytest.raises(JournalError):
            main(["stitch", str(ds_dir), "--checkpoint",
                  str(tmp_path / "empty"), "--resume"])

    def test_mismatched_options_refuse_resume(self, ds_dir, tmp_path):
        from repro.recovery.journal import JournalMismatch

        ckpt = tmp_path / "ckpt"
        assert main(["stitch", str(ds_dir), "--checkpoint", str(ckpt)]) == 0
        with pytest.raises(JournalMismatch):
            main(["stitch", str(ds_dir), "--checkpoint", str(ckpt),
                  "--peaks", "5"])

    def test_checkpointed_impl_resume(self, ds_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["stitch", str(ds_dir), "--impl", "mt-cpu",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["stitch", str(ds_dir), "--impl", "pipelined-cpu",
                     "--checkpoint", str(ckpt), "--resume"]) == 0
        assert "(0 pairs)" in capsys.readouterr().out

    def test_fault_report_json(self, ds_dir, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["stitch", str(ds_dir), "--inject-faults", "11:missing=1",
                   "--max-retries", "0", "--on-tile-error", "skip",
                   "--fault-report", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["injected"] == {"missing": 1}
        assert payload["triggered"]["missing"] >= 1
        assert len(payload["fault_report"]["skipped_tiles"]) == 1

    def test_inject_faults_bare_seed_compat(self, ds_dir, capsys):
        rc = main(["stitch", str(ds_dir), "--inject-faults", "42",
                   "--max-retries", "1", "--on-tile-error", "skip"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "injecting faults (seed 42)" in out

    @staticmethod
    def refused_spec(ds_dir, capsys, spec) -> str:
        with pytest.raises(SystemExit) as exc:
            main(["stitch", str(ds_dir), "--inject-faults", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --inject-faults:" in err
        return err

    def test_inject_faults_bad_spec_errors(self, ds_dir, capsys):
        """A malformed spec is a usage error naming the bad part, before
        the dataset is opened -- not a traceback."""
        assert "integer seed" in self.refused_spec(ds_dir, capsys, "nope")

    @pytest.mark.parametrize("spec, named", [
        ("11:stall=3", "'stall'"),
        ("2:stage_error=2,stage=compute", "'stage_error'"),
        ("7:hang=1,stage=compute", "'stage'"),
        ("7:hang=1,latency=soon", "'latency'"),
    ])
    def test_inject_faults_unknown_key_or_value_errors(self, ds_dir, capsys,
                                                       spec, named):
        """Faults enter only through the tile read: there is no stage fault
        kind and no ``stage=`` target to name."""
        assert named in self.refused_spec(ds_dir, capsys, spec)

    def test_inject_faults_count_beyond_the_grid_errors(self, ds_dir, capsys):
        rc = main(["stitch", str(ds_dir), "--inject-faults", "5:missing=99"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --inject-faults: 99 tile faults")

    def test_watchdog_cancels_injected_hang(self, ds_dir, tmp_path, capsys):
        rc = main(["stitch", str(ds_dir),
                   "--impl", "pipelined-cpu",
                   "--watchdog", "0.3", "--stall-timeout", "10",
                   "--inject-faults", "7:hang=1,latency=0",
                   "--on-tile-error", "skip",
                   "--fault-report", str(tmp_path / "fr.json")])
        assert rc == 0  # completed (degraded), did not deadlock
        payload = json.loads((tmp_path / "fr.json").read_text())
        errs = payload["fault_report"]["skipped_tile_errors"]
        assert any("watchdog" in v for v in errs.values())


class TestServeFlags:
    def test_bad_brownout_is_a_usage_error(self, tmp_path, capsys):
        """A malformed ``--brownout`` is refused by argparse on stderr,
        before the service creates its spool."""
        spool = tmp_path / "spool"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--spool", str(spool), "--brownout", "bogus"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --brownout:" in captured.err
        assert not spool.exists()


class TestOneEntryPoint:
    """Every ``--impl`` goes through ``Stitcher``: no flag is dropped."""

    @pytest.fixture
    def ds97(self, tmp_path):
        main(["synth", str(tmp_path / "ds"), "--rows", "3", "--cols", "3",
              "--tile-size", "97", "--overlap", "0.25", "--seed", "4"])
        return tmp_path / "ds"

    def test_pad_refine_checkpoint_take_effect_on_impl_path(
        self, ds97, tmp_path, monkeypatch, ledger
    ):
        """The drift the second stitch path caused: ``--pad --refine
        --impl mt-cpu --checkpoint d`` journaled ``fft_shape=[98,98],
        refine=true`` while transforming at 97x97 and never refining."""
        from repro.core.stitcher import Stitcher
        from repro.recovery.journal import load_journal

        results = []
        stitch = Stitcher.stitch

        def recording_stitch(self, dataset):
            results.append(stitch(self, dataset))
            return results[-1]

        monkeypatch.setattr(Stitcher, "stitch", recording_stitch)
        ckpt = tmp_path / "d"
        pa, pb = tmp_path / "impl.json", tmp_path / "default.json"
        assert main(["stitch", str(ds97), "--pad", "--refine",
                     "--impl", "mt-cpu", "--checkpoint", str(ckpt),
                     "--positions-json", str(pa)]) == 0
        options = load_journal(
            ckpt / "journal.jsonl").header["fingerprint"]["options"]
        assert options["fft_shape"] == [98, 98]
        assert options["refine"] is True
        # The run transformed at the shape its journal says it did ...
        shapes = {tuple(row["shape"]) for row in ledger.stats()["per_shape"]}
        assert shapes == {(98, 98)}
        # ... ran the refine pass, phase 2 and the timing, once ...
        (result,) = results
        assert "refined_pairs" in result.stats
        assert result.implementation == "mt-cpu"
        assert result.phase2_seconds > 0
        # ... and agrees byte for byte with the default path.
        assert main(["stitch", str(ds97), "--pad", "--refine",
                     "--positions-json", str(pb)]) == 0
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("impl", ["fiji-baseline", "simple-gpu"])
    def test_watchdog_rejected_for_unsupervisable_impl(self, ds97, impl,
                                                       capsys):
        rc = main(["stitch", str(ds97), "--impl", impl, "--watchdog", "1",
                   "--inject-faults", "7:hang=1,latency=0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot honour watchdog" in err
        for name in ("simple-cpu", "mt-cpu", "pipelined-cpu",
                     "pipelined-gpu"):
            assert name in err

    @pytest.mark.parametrize(
        "flag", ["--complex-transforms", "--no-tile-stats", "--no-workspace",
                 "--backend"]
    )
    def test_escape_hatch_flags_removed(self, ds97, flag, capsys):
        with pytest.raises(SystemExit):
            main(["stitch", str(ds97), flag])
        assert flag in capsys.readouterr().err

    def test_stitch_argument_count(self):
        from repro.cli import build_parser

        sub = build_parser()._subparsers._group_actions[0].choices["stitch"]
        options = [a for a in sub._actions if a.dest != "help"]
        assert len(options) == 35
