"""Tests for the repro-study command-line interface."""

import csv

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory, small_dataset):
    path = tmp_path_factory.mktemp("cli") / "study.jsonl"
    small_dataset.to_jsonl(path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == pytest.approx(0.1)
        assert args.seed == 20140312

    def test_detect_threshold(self):
        args = build_parser().parse_args(
            ["detect", "x.jsonl", "--like-threshold", "100"]
        )
        assert args.like_threshold == 100.0


class TestCommands:
    def test_run_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "mini.jsonl"
        rc = main([
            "run", "--scale", "0.05", "--seed", "7",
            "--population", "250", "--out", str(out),
        ])
        captured = capsys.readouterr().out
        assert out.exists()
        assert "study complete" in captured
        assert rc in (0, 1)  # tiny worlds may fail some shape checks

    def test_report_renders_everything(self, dataset_path, capsys):
        rc = main(["report", str(dataset_path)])
        out = capsys.readouterr().out
        assert rc == 0
        for token in ("Table 1", "Figure 5", "Shape checks"):
            assert token in out

    def test_export_writes_csvs(self, dataset_path, tmp_path, capsys):
        rc = main(["export", str(dataset_path), "--dir", str(tmp_path / "csv")])
        assert rc == 0
        table1 = tmp_path / "csv" / "table1.csv"
        assert table1.exists()
        with table1.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 14

    def test_detect_flags_fakes(self, dataset_path, capsys):
        rc = main(["detect", str(dataset_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flagged as likely fake" in out
        # the stealth farm's row shows partial flagging
        assert "BL-USA" in out

    def test_missing_dataset_graceful_error(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "not found" in err

    def test_detect_threshold_changes_counts(self, dataset_path, capsys):
        main(["detect", str(dataset_path), "--like-threshold", "1"])
        strict = capsys.readouterr().out
        main(["detect", str(dataset_path), "--like-threshold", "100000"])
        lenient = capsys.readouterr().out

        def flagged_total(text):
            line = next(l for l in text.splitlines() if "flagged" in l)
            return int(line.split("/")[0])

        assert flagged_total(strict) >= flagged_total(lenient)


class TestStoreCommands:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory, small_dataset):
        from repro.store import HoneypotStore

        path = tmp_path_factory.mktemp("store-cli") / "study.sqlite"
        with HoneypotStore.create(path) as store:
            store.ingest_dataset(small_dataset)
        return path

    def test_run_with_store_writes_both_outputs(self, tmp_path, capsys):
        out = tmp_path / "mini.jsonl"
        db = tmp_path / "mini.sqlite"
        rc = main([
            "run", "--scale", "0.05", "--seed", "7",
            "--population", "250", "--out", str(out), "--store", str(db),
        ])
        captured = capsys.readouterr().out
        assert rc in (0, 1)
        assert db.exists()
        assert "rows/s" in captured

    def test_query_overlap(self, store_path, capsys):
        rc = main(["query", str(store_path), "overlap"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Liker multiplicity" in out
        assert "rows read" in out

    def test_query_temporal(self, store_path, capsys):
        rc = main(["query", str(store_path), "temporal"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Temporal delivery profiles" in out

    def test_query_summary(self, store_path, capsys):
        rc = main(["query", str(store_path), "summary"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Campaign summary" in out

    def test_query_missing_store_exits_2(self, tmp_path, capsys):
        rc = main(["query", str(tmp_path / "nope.sqlite"), "overlap"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_query_non_store_file_exits_2(self, dataset_path, capsys):
        rc = main(["query", str(dataset_path), "overlap"])
        assert rc == 2
        assert "store error" in capsys.readouterr().err


class TestCheckpointFlags:
    SMALL = ["run", "--scale", "0.02", "--seed", "11"]

    def test_parser_accepts_checkpoint_flags(self):
        args = build_parser().parse_args([
            "run", "--checkpoint-dir", "ck", "--checkpoint-every", "2.5",
        ])
        assert str(args.checkpoint_dir) == "ck"
        assert args.checkpoint_every == 2.5
        assert args.resume is None

    def test_checkpoint_dir_plus_resume_is_a_usage_error(self, tmp_path, capsys):
        rc = main(self.SMALL + [
            "--checkpoint-dir", str(tmp_path / "a"), "--resume", str(tmp_path / "b"),
        ])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_checkpointed_run_then_resume(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        out = tmp_path / "first.jsonl"
        rc = main(self.SMALL + [
            "--out", str(out), "--checkpoint-dir", str(ck), "--checkpoint-every", "5",
        ])
        assert rc in (0, 1)  # tiny worlds may fail some shape checks
        assert "checkpoint (fresh):" in capsys.readouterr().out
        out2 = tmp_path / "second.jsonl"
        rc = main(self.SMALL + ["--out", str(out2), "--resume", str(ck)])
        assert rc in (0, 1)
        assert "checkpoint (resumed):" in capsys.readouterr().out
        assert out.read_bytes() == out2.read_bytes()

    def test_refusal_to_clobber_exits_3(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        main(self.SMALL + ["--out", str(tmp_path / "a.jsonl"),
                           "--checkpoint-dir", str(ck)])
        capsys.readouterr()
        rc = main(self.SMALL + ["--out", str(tmp_path / "b.jsonl"),
                                "--checkpoint-dir", str(ck)])
        assert rc == 3
        assert "checkpoint error" in capsys.readouterr().err

    def test_resume_with_wrong_seed_exits_3(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        main(self.SMALL + ["--out", str(tmp_path / "a.jsonl"),
                           "--checkpoint-dir", str(ck)])
        capsys.readouterr()
        rc = main(["run", "--scale", "0.02", "--seed", "12",
                   "--out", str(tmp_path / "b.jsonl"), "--resume", str(ck)])
        assert rc == 3
        assert "seed" in capsys.readouterr().err

    def test_resume_with_wrong_scale_exits_3_naming_fingerprints(
        self, tmp_path, capsys
    ):
        # Same seed, different --scale: the config fingerprints differ, so
        # resume must refuse (exit 3) and name both fingerprints rather
        # than replay a checkpoint from another world.
        ck = tmp_path / "ck"
        main(self.SMALL + ["--out", str(tmp_path / "a.jsonl"),
                           "--checkpoint-dir", str(ck)])
        capsys.readouterr()
        rc = main(["run", "--scale", "0.03", "--seed", "11",
                   "--out", str(tmp_path / "b.jsonl"), "--resume", str(ck)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "config fingerprint" in err
        # both fingerprints are quoted, 16 hex chars each
        import re
        assert len(re.findall(r"'[0-9a-f]{16}'", err)) == 2

    def test_keyboard_interrupt_exits_130(self, monkeypatch, tmp_path, capsys):
        from repro.core.experiment import HoneypotExperiment

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(HoneypotExperiment, "run", interrupted)
        rc = main(self.SMALL + ["--out", str(tmp_path / "a.jsonl")])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err


class TestFailpointFlag:
    SMALL = ["run", "--scale", "0.02", "--seed", "11", "--population", "250"]

    def test_failpoint_does_not_leak_into_a_later_run(
        self, monkeypatch, tmp_path, capsys
    ):
        # --failpoint arms this process only; a later main() in the same
        # process, after a reset, must start with nothing armed.
        from repro import failpoints

        monkeypatch.delenv(failpoints.ENV_VAR, raising=False)
        failpoints.reset()
        try:
            rc = main(self.SMALL + ["--out", str(tmp_path / "a.jsonl"),
                                    "--failpoint", "store.open=count@1"])
            assert rc in (0, 1)
            failpoints.reset()
            rc = main(self.SMALL + ["--out", str(tmp_path / "b.jsonl")])
            assert rc in (0, 1)
            assert not failpoints.is_armed(), failpoints.state()["armed"]
        finally:
            failpoints.reset()
        capsys.readouterr()
