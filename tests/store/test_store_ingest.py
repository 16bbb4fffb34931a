"""The WAL replay ingest path lands exactly in the store."""

import dataclasses
import json

import pytest

from repro.ckpt.journal import JOURNAL_SCHEMA
from repro.ckpt.manager import CheckpointConfig
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.store import HoneypotStore, StoreError
from repro.store.ingest import ingest_journal

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


class TestJournalIngest:
    def test_observations_and_terminations_are_exact(
        self, tmp_path, checkpointed_run
    ):
        dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            stats = ingest_journal(store, journal)
            assert stats["rows"] > 0 and not stats["torn"]
            for campaign_id in dataset.campaign_ids():
                want = dataset.campaign(campaign_id)
                got = store.campaign(campaign_id)
                assert got.observations == want.observations
                assert got.terminated_liker_ids == want.terminated_liker_ids
                assert got.total_likes == want.total_likes

    def test_rebuilt_store_exports_the_dataset_bytes(
        self, tmp_path, checkpointed_run
    ):
        dataset, journal = checkpointed_run
        dataset.to_jsonl(tmp_path / "dataset.jsonl")
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            ingest_journal(store, journal)
            store.to_jsonl(tmp_path / "rebuilt.jsonl")
        assert (tmp_path / "rebuilt.jsonl").read_bytes() == (
            tmp_path / "dataset.jsonl"
        ).read_bytes()

    def test_likers_and_baseline_are_exact(self, tmp_path, checkpointed_run):
        dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            ingest_journal(store, journal)
            assert {
                liker.user_id: liker for liker in store.iter_likers()
            } == dataset.likers
            assert list(store.iter_baseline()) == dataset.baseline

    def test_missing_journal_is_empty_ingest(self, tmp_path):
        with HoneypotStore.create(tmp_path / "empty.sqlite") as store:
            stats = ingest_journal(store, tmp_path / "absent.jsonl")
            assert stats == {"records": 0, "rows": 0, "torn": 0}

    def test_unknown_record_type_refuses(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            json.dumps({
                "type": "journal-header", "schema": JOURNAL_SCHEMA,
                "seed": 1, "config_hash": "x",
            }) + "\n"
            '{"type": "mystery"}\n'
        )
        with HoneypotStore.create(tmp_path / "bad.sqlite") as store:
            with pytest.raises(StoreError, match="unknown journal record"):
                ingest_journal(store, journal)
