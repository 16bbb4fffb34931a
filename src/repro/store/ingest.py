"""Rebuild a store from a checkpoint WAL: the journal is the dataset.

The checkpoint journal (:mod:`repro.ckpt.journal`) holds every row of the
dataset: each liker and baseline row as it is crawled, the ``meta`` row
and every campaign row at the collect barrier, and one termination record
per campaign after the month-later sweep.  :func:`ingest_journal` is a
projection of it into a :class:`~repro.store.store.HoneypotStore`: it
checks each record type against one allowlist, applies the termination
records to the campaign and liker rows, and passes the rows to
:meth:`~repro.store.store.HoneypotStore.ingest_rows` in export order.  A
store rebuilt from a finished run's journal therefore exports the run's
own JSONL bytes.  :func:`repair_from_journal` uses the same replay to
rebuild a damaged store.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

from repro.ckpt.journal import read_journal
from repro.store.errors import StoreError
from repro.store.store import HoneypotStore

#: The dataset rows the journal holds, in export order.
_ROW_TYPES = ("meta", "campaign", "liker", "baseline")
#: Every journal record type the replay understands (others are corruption).
_JOURNAL_TYPES = _ROW_TYPES + ("phase", "monitor-snapshot", "termination")


def ingest_journal(store: HoneypotStore, journal_path: Path) -> Dict[str, int]:
    """Replay a checkpoint WAL into the store.

    Returns ``{"records": <journal records consumed>, "rows": <store rows
    ingested>, "torn": 0|1}``.  A torn final journal line is salvage (the
    crash-mid-append signature, same contract as resume); an unknown
    record type, or a journal that ends before the collect barrier (it
    holds no campaign rows), is a :class:`StoreError`.  A missing journal
    is an empty ingest.
    """
    recovery = read_journal(Path(journal_path), metrics=store.metrics)
    rows: Dict[str, List[Dict]] = {kind: [] for kind in _ROW_TYPES}
    terminations: Dict[str, Dict] = {}
    collected = False
    for record in recovery.records:
        kind = record.get("type")
        if kind not in _JOURNAL_TYPES:
            raise StoreError(
                f"{journal_path}: unknown journal record type {kind!r}; "
                "refusing to replay a journal this build does not understand"
            )
        if kind in rows:
            rows[kind].append(record)
        elif kind == "termination":
            terminations[record["campaign_id"]] = record
        elif kind == "phase" and record["phase"] == "collect":
            collected = True
    if recovery.records and not collected:
        raise StoreError(
            f"{journal_path}: the journal ends before the collect barrier, "
            "so it holds no campaign rows; resume the run before rebuilding "
            "a store from it"
        )
    # Campaign and liker rows are journaled before the termination sweep;
    # apply its records the way the study does after the fact.
    terminated_ids = set()
    for campaign in rows["campaign"]:
        termination = terminations.get(campaign["campaign_id"])
        if termination is not None:
            campaign["terminated_liker_ids"] = termination["terminated_liker_ids"]
            campaign["removed_like_count"] = termination["removed_like_count"]
            terminated_ids.update(termination["terminated_liker_ids"])
    for liker in rows["liker"]:
        if liker["user_id"] in terminated_ids:
            liker["terminated"] = True

    ingested = store.ingest_rows(
        row for kind in _ROW_TYPES for row in rows[kind]
    )
    return {
        "records": recovery.salvaged,
        "rows": ingested,
        "torn": int(recovery.torn),
    }


def repair_from_journal(path: Path, journal_path: Path) -> Dict[str, int]:
    """Rebuild a damaged store from a checkpoint WAL, atomically.

    The replacement is built as a ``<name>.repair`` sibling and renamed
    over ``path`` only once its own :meth:`HoneypotStore.verify` comes
    back clean — a crash mid-repair leaves the original (damaged) file
    untouched plus a ``.repair`` orphan that the next ``open()`` sweeps.
    A journal with no dataset rows (a mistyped path) is a
    :class:`StoreError`, not an empty store.  Returns the
    :func:`ingest_journal` summary.
    """
    path = Path(path)
    rebuild_path = path.with_name(path.name + ".repair")
    rebuild_path.unlink(missing_ok=True)
    rebuild = HoneypotStore.create(rebuild_path)
    try:
        summary = ingest_journal(rebuild, Path(journal_path))
        if not summary["rows"]:
            raise StoreError(
                f"{journal_path} holds no dataset rows; refusing to replace "
                f"{path} with an empty store"
            )
        problems = rebuild.verify()
        if problems:
            raise StoreError(
                f"repair of {path} produced an unhealthy store: "
                + "; ".join(problems)
            )
    except BaseException:
        rebuild.close()
        rebuild_path.unlink(missing_ok=True)
        raise
    rebuild.close()
    os.replace(rebuild_path, path)
    return summary
