"""The store export property: ``run --store`` equals ``--out`` byte for byte.

One seeded study per execution mode — plain and ``--chaos``
(fault-injected crawl) — each through the real CLI, then the
store's JSONL export is compared byte for byte against the legacy
``--out`` file of the *same* run.
"""

import pytest

from repro.cli import main
from repro.store import HoneypotStore


@pytest.mark.parametrize(
    "mode, extra",
    [
        ("plain", []),
        ("chaos", ["--chaos"]),
    ],
)
def test_store_export_is_byte_identical(tmp_path, capsys, mode, extra):
    out = tmp_path / f"{mode}.jsonl"
    db = tmp_path / f"{mode}.sqlite"
    assert main(
        ["run", "--seed", "20140312", "--out", str(out), "--store", str(db)]
        + extra
    ) == 0
    assert f"-> {db}" in capsys.readouterr().out
    exported = tmp_path / f"{mode}-store.jsonl"
    with HoneypotStore.open(db) as store:
        store.to_jsonl(exported)
    assert exported.read_bytes() == out.read_bytes()
