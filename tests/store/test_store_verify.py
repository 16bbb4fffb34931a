"""Store health checks and WAL-based repair (verify / repair_from_journal)."""

import dataclasses
import json

import pytest

from repro.ckpt.journal import JOURNAL_SCHEMA
from repro.ckpt.manager import CheckpointConfig
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.store import HoneypotStore, StoreError, repair_from_journal
from repro.store.ingest import ingest_journal
from repro.store.schema import META_ROWCOUNTS_KEY, META_SCHEMA_KEY

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def checkpointed_run(tmp_path_factory):
    """A checkpointed small run: (dataset, journal path)."""
    directory = tmp_path_factory.mktemp("wal")
    config = dataclasses.replace(
        StudyConfig.small(), checkpoint=CheckpointConfig(directory=directory)
    )
    artifacts = HoneypotStudy(config).run()
    return artifacts.dataset, directory / "journal.jsonl"


class TestVerify:
    def test_healthy_store_has_no_problems(self, tmp_path, small_dataset):
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            store.ingest_dataset(small_dataset)
            assert store.verify() == []

    def test_fresh_empty_store_is_healthy(self, tmp_path):
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            assert store.verify() == []

    def test_rows_lost_behind_the_counts_are_reported(
        self, tmp_path, small_dataset
    ):
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            store.ingest_dataset(small_dataset)
            store._db.execute(
                "DELETE FROM likers WHERE rowid IN "
                "(SELECT rowid FROM likers LIMIT 5)"
            )
            store._db.commit()
            problems = store.verify()
        assert len(problems) == 1
        assert "table likers holds" in problems[0]
        assert "meta records" in problems[0]

    def test_missing_rowcounts_meta_reads_as_torn_ingest(
        self, tmp_path, small_dataset
    ):
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            store.ingest_dataset(small_dataset)
            store._db.execute(
                "DELETE FROM meta WHERE key = ?", (META_ROWCOUNTS_KEY,)
            )
            store._db.commit()
            problems = store.verify()
        assert problems == ["no rowcounts record in meta (torn ingest?)"]

    def test_foreign_schema_tag_is_reported_not_raised(self, tmp_path):
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            store._db.execute(
                "UPDATE meta SET value = ? WHERE key = ?",
                ("repro.store/schema@99", META_SCHEMA_KEY),
            )
            store._db.commit()
            problems = store.verify()
        assert any("schema@99" in p for p in problems)

    def test_broken_query_degrades_to_a_problem_report(
        self, tmp_path, small_dataset
    ):
        with HoneypotStore.create(tmp_path / "s.sqlite") as store:
            store.ingest_dataset(small_dataset)
            store._db.execute("DROP TABLE baseline")
            store._db.commit()
            problems = store.verify()
        assert any("verification query failed" in p for p in problems)


class TestRepairFromJournal:
    def test_rebuilds_a_damaged_store_in_place(
        self, tmp_path, checkpointed_run
    ):
        dataset, journal = checkpointed_run
        path = tmp_path / "study.sqlite"
        path.write_bytes(b"not a database at all")  # the damaged original
        summary = repair_from_journal(path, journal)
        assert summary["rows"] > 0 and not summary["torn"]
        with HoneypotStore.open(path) as store:
            assert store.verify() == []
            assert store.campaign_ids() == dataset.campaign_ids()
        assert not path.with_name(path.name + ".repair").exists()

    def test_repair_matches_a_direct_journal_ingest(
        self, tmp_path, checkpointed_run
    ):
        _, journal = checkpointed_run
        repaired = tmp_path / "repaired.sqlite"
        repaired.write_bytes(b"garbage")
        repair_from_journal(repaired, journal)
        with HoneypotStore.create(tmp_path / "direct.sqlite") as direct:
            ingest_journal(direct, journal)
            direct_counts = direct.counts()
            direct_rows = list(direct.iter_rows())
        with HoneypotStore.open(repaired) as store:
            assert store.counts() == direct_counts
            assert list(store.iter_rows()) == direct_rows

    def test_failed_repair_leaves_the_original_untouched(self, tmp_path):
        path = tmp_path / "study.sqlite"
        path.write_bytes(b"damaged original")
        bad_journal = tmp_path / "journal.jsonl"
        bad_journal.write_text(
            json.dumps({
                "type": "journal-header", "schema": JOURNAL_SCHEMA,
                "seed": 1, "config_hash": "x",
            }) + "\n"
            '{"type": "mystery"}\n'
        )
        with pytest.raises(StoreError, match="unknown journal record"):
            repair_from_journal(path, bad_journal)
        assert path.read_bytes() == b"damaged original"
        assert not path.with_name(path.name + ".repair").exists()

    def test_a_journal_without_rows_leaves_the_original_untouched(
        self, tmp_path
    ):
        # A mistyped --journal path must not swap a good store for an
        # empty one.
        path = tmp_path / "study.sqlite"
        path.write_bytes(b"the original store")
        with pytest.raises(StoreError, match="holds no dataset rows"):
            repair_from_journal(path, tmp_path / "absent.jsonl")
        assert path.read_bytes() == b"the original store"
        assert not path.with_name(path.name + ".repair").exists()

    def test_open_sweeps_a_stale_repair_orphan(self, tmp_path, small_dataset):
        path = tmp_path / "study.sqlite"
        with HoneypotStore.create(path) as store:
            store.ingest_dataset(small_dataset)
        orphan = path.with_name(path.name + ".repair")
        orphan.write_bytes(b"half-built")
        with HoneypotStore.open(path) as store:
            assert store.verify() == []
        assert not orphan.exists()
