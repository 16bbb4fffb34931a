"""The write-ahead dataset journal.

An append-only JSONL file inside the checkpoint directory.  Every durable
fact the study produces — each :class:`~repro.honeypot.monitor.MonitorSnapshot`,
each crawled :class:`~repro.honeypot.storage.LikerRecord` and
:class:`~repro.honeypot.storage.BaselineRecord` row, the dataset's
``meta`` row and every campaign row at the collect barrier, each
termination event, and a marker at every phase boundary — is appended as
one JSON line and fsync'd before the study proceeds.  The journal thus
holds every dataset row (:mod:`repro.store.ingest` rebuilds a store from
it).  A SIGKILL loses at most the record in flight, and that record can
only be *torn* (a partial final line), never silently corrupting earlier
ones.

Recovery (:func:`read_journal`) tolerates exactly that failure mode: a
final line that does not parse is dropped and reported; damage anywhere
else is real corruption and refuses loudly.

On resume the journal runs in *replay-verify* mode: records the resumed
(deterministic) run re-produces are compared byte-for-byte against the
salvaged prefix instead of being re-written — any mismatch means the
replay diverged from the crashed run and resumption is refused rather
than silently forking history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, List, Optional

from repro import failpoints
from repro.ckpt.errors import CheckpointError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.durable import atomic_write_text, fsync_handle

#: Journal format identifier (bump on breaking layout changes; ``@2``
#: added the meta and campaign rows).
JOURNAL_SCHEMA = "repro.ckpt/journal@2"


@dataclass
class JournalRecovery:
    """What :func:`read_journal` salvaged from a journal file.

    ``records`` excludes the header; ``torn`` is True when a partial final
    line (the crash-mid-append signature) was dropped.
    """

    path: Path
    header: Optional[Dict] = None
    records: List[Dict] = field(default_factory=list)
    torn: bool = False

    @property
    def salvaged(self) -> int:
        """How many complete records survived."""
        return len(self.records)


def read_journal(
    path: Path, metrics: Optional[MetricsRegistry] = None
) -> JournalRecovery:
    """Read a journal, salvaging through a torn final record.

    A missing file yields an empty recovery (a run killed before its first
    append).  A final line that fails to parse is dropped, counted, and
    reported via a ``journal_salvage`` trace event; a bad line anywhere
    else, or a bad/missing header, raises :class:`CheckpointError`.
    """
    metrics = metrics if metrics is not None else NULL_METRICS
    path = Path(path)
    recovery = JournalRecovery(path=path)
    if not path.exists():
        return recovery
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            if line_number == len(lines):
                recovery.torn = True
                metrics.trace_event(
                    "journal_salvage",
                    path=str(path),
                    line=line_number,
                    salvaged=recovery.salvaged,
                    reason=error.msg,
                )
                break
            raise CheckpointError(
                f"{path}:{line_number}: corrupt journal line before the tail "
                f"({error.msg}); a torn final record is recoverable, "
                "mid-file damage is not"
            ) from error
        if recovery.header is None:
            if row.get("type") != "journal-header":
                raise CheckpointError(
                    f"{path}:1: not a checkpoint journal (missing header)"
                )
            if row.get("schema") != JOURNAL_SCHEMA:
                raise CheckpointError(
                    f"{path}: journal schema {row.get('schema')!r} is not "
                    f"{JOURNAL_SCHEMA!r}; refusing to resume across formats"
                )
            recovery.header = row
            continue
        recovery.records.append(row)
    return recovery


class DatasetJournal:
    """Append-only fsync'd JSONL journal with a replay-verify resume mode."""

    def __init__(self, path: Path, metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = Path(path)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._handle: Optional[IO] = None
        self._replay: List[Dict] = []
        self._replay_index = 0
        self.records_written = 0
        self.fsyncs = 0

    # -- constructors -------------------------------------------------------------

    @classmethod
    def start(
        cls,
        path: Path,
        seed: int,
        config_hash: str,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "DatasetJournal":
        """Create a fresh journal, writing and fsyncing the header."""
        journal = cls(path, metrics=metrics)
        journal._handle = journal.path.open("w", encoding="utf-8")
        header = {
            "type": "journal-header",
            "schema": JOURNAL_SCHEMA,
            "seed": seed,
            "config_hash": config_hash,
        }
        journal._write_row(header)
        journal.records_written = 0  # the header is not a dataset record
        return journal

    @classmethod
    def resume(
        cls,
        path: Path,
        recovery: JournalRecovery,
        seed: int,
        config_hash: str,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "DatasetJournal":
        """Reopen a salvaged journal for replay-verified continuation.

        The file is first rewritten to exactly the salvaged prefix (in
        place, truncating any torn tail), then reopened for appends.  The
        salvaged records become the replay-verify queue.
        """
        if recovery.header is not None:
            if recovery.header.get("seed") != seed:
                raise CheckpointError(
                    f"journal was written by seed {recovery.header.get('seed')}, "
                    f"this run uses seed {seed}; refusing to resume"
                )
            if recovery.header.get("config_hash") != config_hash:
                raise CheckpointError(
                    "journal was written under config fingerprint "
                    f"{recovery.header.get('config_hash')!r}, this run is "
                    f"{config_hash!r}; refusing to resume"
                )
            journal = cls(path, metrics=metrics)
            rows = [recovery.header] + recovery.records
            # Rewrite the salvaged prefix atomically (temp + fsync + rename)
            # so a crash *during recovery* cannot lose what the crash
            # *before* recovery did not.
            atomic_write_text(
                journal.path,
                "".join(json.dumps(row) + "\n" for row in rows),
                tag="journal",
            )
            journal._handle = journal.path.open("a", encoding="utf-8")
            journal._replay = list(recovery.records)
            journal.records_written = 0
            return journal
        # No salvageable header: the crashed run died before its first
        # fsync'd line landed, so this is a fresh start.
        return cls.start(path, seed, config_hash, metrics=metrics)

    # -- appends ------------------------------------------------------------------

    @property
    def position(self) -> int:
        """Dataset records accounted for so far (replayed + newly written)."""
        return self._replay_index + self.records_written

    @property
    def replayed(self) -> int:
        """Records verified against the salvaged prefix instead of written."""
        return self._replay_index

    def append(self, row: Dict) -> None:
        """Durably append one record — or verify it against the salvage.

        While a salvaged prefix remains, the record the study just
        re-produced must equal the one already on disk; a mismatch means
        the deterministic replay diverged from the crashed run, and the
        journal refuses rather than fork history.
        """
        if self._replay_index < len(self._replay):
            expected = self._replay[self._replay_index]
            if row != expected:
                raise CheckpointError(
                    f"journal divergence at record {self._replay_index}: "
                    f"replay produced {json.dumps(row)[:200]}, journal holds "
                    f"{json.dumps(expected)[:200]}; refusing to resume"
                )
            self._replay_index += 1
            return
        self._write_row(row)

    def _write_row(self, row: Dict) -> None:
        if self._handle is None:
            raise CheckpointError(f"journal {self.path} is not open for appends")
        try:
            self._handle.write(json.dumps(row) + "\n")
            fsync_handle(self._handle, tag="journal")
            # The record is durably on disk; a kill/stall fired here
            # lands at a reproducible journal position, and an errno
            # fired here refuses through the same channel a real disk
            # fault would.
            failpoints.hit("ckpt.journal.record")
        except OSError as error:
            raise CheckpointError(
                f"journal append to {self.path} failed: {error}"
            ) from error
        self.fsyncs += 1
        self.records_written += 1

    def close(self) -> None:
        """Close the underlying handle (appends after this raise)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
