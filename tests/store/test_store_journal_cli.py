"""The journal is the dataset: CLI round trips through ``query ... repair``.

A checkpointed ``repro-study run`` at the CLI's default scale journals
every dataset row, so a store rebuilt from its journal alone (no config)
exports the run's own JSONL bytes.  A journal that cannot be the dataset
(one killed before the collect barrier, or one in the old
``repro.ckpt/journal@1`` format) is refused by name and leaves the
existing store untouched.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.report import full_report
from repro.ckpt.journal import JOURNAL_SCHEMA
from repro.honeypot.storage import HoneypotDataset
from repro.store import HoneypotStore

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SRC = Path(__file__).resolve().parents[2] / "src"
RUN = ["run", "--checkpoint-dir", "ck", "--store", "s.sqlite", "--out", "d.jsonl"]
REPAIR = ["query", "s.sqlite", "repair", "--journal", "ck/journal.jsonl"]


def cli(cwd: Path, args, failpoint=None):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAILPOINTS"}
    env["PYTHONPATH"] = str(SRC)
    if failpoint is not None:
        env["REPRO_FAILPOINTS"] = failpoint
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=240,
    )


@pytest.mark.parametrize("extra", [[], ["--chaos"]], ids=["plain", "chaos"])
def test_repair_from_the_journal_exports_the_run_bytes(tmp_path, extra):
    run = cli(tmp_path, RUN + extra)
    assert run.returncode in (0, 1), run.stderr
    (tmp_path / "s.sqlite").write_bytes(b"garbage")
    repair = cli(tmp_path, REPAIR)
    assert repair.returncode == 0, repair.stderr
    with HoneypotStore.open(tmp_path / "s.sqlite") as store:
        store.to_jsonl(tmp_path / "rebuilt.jsonl")
        rebuilt_report = full_report(store.to_dataset())
    dataset = tmp_path / "d.jsonl"
    assert (tmp_path / "rebuilt.jsonl").read_bytes() == dataset.read_bytes()
    assert rebuilt_report == full_report(HoneypotDataset.from_jsonl(dataset))


# Record 400 is a monitor snapshot mid-simulation; record 2000 is a liker
# row mid-crawl.  Neither journal has reached the collect barrier.
@pytest.mark.parametrize("record", [400, 2000])
def test_repair_refuses_a_journal_killed_before_the_collect_barrier(
    tmp_path, record
):
    spec = f"ckpt.journal.record=kill@{record}"
    crash = cli(tmp_path, RUN, failpoint=spec)
    assert crash.returncode == -signal.SIGKILL, crash.stderr
    store = tmp_path / "s.sqlite"
    store.write_bytes(b"the original store")
    repair = cli(tmp_path, REPAIR)
    assert repair.returncode == 2, repair.stderr
    assert "store error" in repair.stderr
    assert "ends before the collect barrier" in repair.stderr
    assert "Traceback" not in repair.stderr
    assert store.read_bytes() == b"the original store"
    assert not store.with_name(store.name + ".repair").exists()


def test_a_journal_at_schema_1_refuses_resume_and_repair(tmp_path):
    crash = cli(tmp_path, RUN, failpoint="ckpt.journal.record=kill@400")
    assert crash.returncode == -signal.SIGKILL, crash.stderr
    journal = tmp_path / "ck" / "journal.jsonl"
    header, rest = journal.read_text().split("\n", 1)
    old = json.loads(header)
    assert old["schema"] == JOURNAL_SCHEMA
    old["schema"] = "repro.ckpt/journal@1"
    journal.write_text(json.dumps(old) + "\n" + rest)
    before = journal.read_bytes()
    store = tmp_path / "s.sqlite"
    store.write_bytes(b"the original store")

    resume = cli(tmp_path, ["run", "--resume", "ck", "--store", "s.sqlite",
                            "--out", "d.jsonl"])
    repair = cli(tmp_path, REPAIR)
    for proc in (resume, repair):
        assert proc.returncode == 3, proc.stderr
        assert "checkpoint error" in proc.stderr
        assert "journal schema 'repro.ckpt/journal@1'" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert store.read_bytes() == b"the original store"
    assert journal.read_bytes() == before
    assert not (tmp_path / "d.jsonl").exists()
