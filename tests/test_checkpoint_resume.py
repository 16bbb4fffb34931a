"""The kill-and-resume harness (``make crashtest``).

End-to-end enforcement of the durability contract: a study subprocess is
SIGKILLed at several seeded points mid-run, resumed with ``--resume``,
and the final artifacts — the dataset JSONL (byte-for-byte) and the
deterministic sections of the metrics manifest — must equal those of an
uninterrupted same-seed run.  Both the plain and ``--chaos`` crawl paths
are exercised, plus a double-kill chain (crash the resume, resume again).

Kill points are injected via ``REPRO_FAILPOINTS=ckpt.journal.record=kill@<n>``:
the child SIGKILLs *itself* right after its n-th durably journaled record
(see ``repro.ckpt.journal``).  That is a real, uncatchable SIGKILL — no flush,
no atexit — but it lands at a reproducible record boundary instead of a
racy wall-clock timer, so the harness is deterministic across machines.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import deterministic_sections

REPO = Path(__file__).resolve().parent.parent
SEED = 11
BASE_ARGS = ["run", "--scale", "0.02", "--seed", str(SEED), "--population", "250"]


def cli_env(crash_after=None, extra_env=None):
    """Subprocess environment with the injection knobs explicitly scrubbed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAILPOINTS", None)
    if crash_after is not None:
        env["REPRO_FAILPOINTS"] = f"ckpt.journal.record=kill@{crash_after}"
    if extra_env:
        env.update({k: str(v) for k, v in extra_env.items()})
    return env


def run_cli(tmp_path, name, extra, crash_after=None, chaos=False, extra_env=None):
    """One study subprocess; returns (returncode, dataset path, manifest path)."""
    out = tmp_path / f"{name}.jsonl"
    manifest = tmp_path / f"{name}-manifest.json"
    args = BASE_ARGS + ["--out", str(out), "--metrics", str(manifest)]
    if chaos:
        args.append("--chaos")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args + extra,
        env=cli_env(crash_after, extra_env),
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return completed, out, manifest


def reference_run(tmp_path, chaos):
    """The uninterrupted, checkpoint-free ground truth for one mode."""
    completed, out, manifest = run_cli(tmp_path, "reference", [], chaos=chaos)
    assert completed.returncode in (0, 1), completed.stderr
    return out.read_bytes(), deterministic_sections(json.loads(manifest.read_text()))


def journal_length(directory):
    return len((directory / "journal.jsonl").read_text().splitlines())


def kill_points(total_records, count):
    """``count`` distinct seeded kill points inside the journal's span."""
    rng = random.Random(0xC0FFEE ^ SEED)
    lo, hi = max(2, total_records // 10), max(3, total_records - 2)
    return sorted(rng.sample(range(lo, hi), count))


def assert_killed(completed):
    assert completed.returncode == -signal.SIGKILL, (
        f"expected the injected SIGKILL, got rc={completed.returncode}\n"
        f"{completed.stderr}"
    )


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
class TestKillAndResume:
    def test_killed_runs_resume_byte_identically(self, tmp_path, chaos):
        ref_bytes, ref_sections = reference_run(tmp_path, chaos)

        # Size the journal from one uninterrupted checkpointed run.
        whole_dir = tmp_path / "ck-whole"
        completed, whole_out, _ = run_cli(
            tmp_path, "whole",
            ["--checkpoint-dir", str(whole_dir), "--checkpoint-every", "5"],
            chaos=chaos,
        )
        assert completed.returncode in (0, 1), completed.stderr
        assert whole_out.read_bytes() == ref_bytes
        total = journal_length(whole_dir)
        assert total > 20, "journal too small to place kill points"

        for point in kill_points(total, count=3):
            name = f"kill{point}"
            directory = tmp_path / f"ck-{name}"
            completed, _, _ = run_cli(
                tmp_path, name,
                ["--checkpoint-dir", str(directory), "--checkpoint-every", "5"],
                crash_after=point, chaos=chaos,
            )
            assert_killed(completed)
            assert journal_length(directory) >= point

            completed, out, manifest = run_cli(
                tmp_path, f"{name}-resumed", ["--resume", str(directory)],
                chaos=chaos,
            )
            assert completed.returncode in (0, 1), completed.stderr
            assert "checkpoint (resumed):" in completed.stdout
            assert out.read_bytes() == ref_bytes, (
                f"dataset diverged after kill at record {point}"
            )
            sections = deterministic_sections(json.loads(manifest.read_text()))
            assert sections == ref_sections, (
                f"deterministic metrics diverged after kill at record {point}"
            )

    def test_double_kill_chain_resumes_byte_identically(self, tmp_path, chaos):
        """Crash the original run, crash the *resume*, then finish."""
        ref_bytes, ref_sections = reference_run(tmp_path, chaos)
        directory = tmp_path / "ck-chain"
        completed, _, _ = run_cli(
            tmp_path, "chain",
            ["--checkpoint-dir", str(directory), "--checkpoint-every", "5"],
            crash_after=40, chaos=chaos,
        )
        assert_killed(completed)
        # the resume's counter starts from zero *newly written* records,
        # so this second kill lands strictly deeper into the run
        completed, _, _ = run_cli(
            tmp_path, "chain-again", ["--resume", str(directory)],
            crash_after=30, chaos=chaos,
        )
        assert_killed(completed)
        completed, out, manifest = run_cli(
            tmp_path, "chain-final", ["--resume", str(directory)], chaos=chaos,
        )
        assert completed.returncode in (0, 1), completed.stderr
        assert out.read_bytes() == ref_bytes
        sections = deterministic_sections(json.loads(manifest.read_text()))
        assert sections == ref_sections


def test_out_of_range_campaigns_exits_2(tmp_path):
    completed, _, _ = run_cli(tmp_path, "badcamp", ["--campaigns", "99"])
    assert completed.returncode == 2

