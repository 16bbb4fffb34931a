"""The WAL replay ingest path lands exactly in the store."""

import dataclasses

import pytest

from repro.analysis.economics import campaign_economics
from repro.analysis.report import full_report
from repro.ckpt.manager import CheckpointConfig
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.store import HoneypotStore, StoreError
from repro.store.ingest import ingest_journal

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def checkpointed_run(tmp_path_factory):
    """A checkpointed small run: (config, dataset, journal path)."""
    directory = tmp_path_factory.mktemp("wal")
    config = dataclasses.replace(
        StudyConfig.small(), checkpoint=CheckpointConfig(directory=directory)
    )
    artifacts = HoneypotStudy(config).run()
    return config, artifacts.dataset, directory / "journal.jsonl"


class TestJournalIngest:
    def test_observations_and_terminations_are_exact(
        self, tmp_path, checkpointed_run
    ):
        config, dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            stats = ingest_journal(store, journal, config=config)
            assert stats["rows"] > 0 and not stats["torn"]
            for campaign_id in dataset.campaign_ids():
                want = dataset.campaign(campaign_id)
                got = store.campaign(campaign_id)
                assert got.observations == want.observations
                assert got.terminated_liker_ids == want.terminated_liker_ids
                assert got.total_likes == want.total_likes

    def test_campaign_order_follows_config_specs(
        self, tmp_path, checkpointed_run
    ):
        config, dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            ingest_journal(store, journal, config=config)
            assert store.campaign_ids() == dataset.campaign_ids()

    def test_likers_and_baseline_are_exact(self, tmp_path, checkpointed_run):
        config, dataset, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            ingest_journal(store, journal, config=config)
            assert {
                liker.user_id: liker for liker in store.iter_likers()
            } == dataset.likers
            assert list(store.iter_baseline()) == dataset.baseline

    def test_unknown_cost_survives_into_the_full_report(
        self, tmp_path, checkpointed_run
    ):
        # The WAL records no campaign cost: the store keeps it as None,
        # and the report renders it as unknown instead of crashing.
        config, _, journal = checkpointed_run
        with HoneypotStore.create(tmp_path / "wal.sqlite") as store:
            ingest_journal(store, journal, config=config)
            replayed = store.to_dataset()
        assert all(
            record.total_cost is None for record in replayed.campaigns.values()
        )
        for econ in campaign_economics(replayed):
            assert econ.cost_per_like is None
            assert econ.cost_per_retained_like is None
        report = full_report(replayed)
        table = report[report.index("Campaign economics"):].splitlines()
        rows = [line.split("|") for line in table if line.startswith("FB-")]
        assert rows and all(row[1].strip() == "-" for row in rows)

    def test_missing_journal_is_empty_ingest(self, tmp_path):
        with HoneypotStore.create(tmp_path / "empty.sqlite") as store:
            stats = ingest_journal(store, tmp_path / "absent.jsonl")
            assert stats == {"records": 0, "rows": 0, "torn": 0}

    def test_unknown_record_type_refuses(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            '{"type": "journal-header", "schema": "repro.ckpt/journal@1", '
            '"seed": 1, "config_hash": "x"}\n'
            '{"type": "mystery"}\n'
        )
        with HoneypotStore.create(tmp_path / "bad.sqlite") as store:
            with pytest.raises(StoreError, match="unknown journal record"):
                ingest_journal(store, journal)
