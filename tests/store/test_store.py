"""HoneypotStore lifecycle, ingest accounting, and export identity."""

import sqlite3

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.store import STORE_SCHEMA, HoneypotStore, StoreError
from repro.store.schema import META_SCHEMA_KEY


@pytest.fixture()
def store(tmp_path, small_dataset):
    with HoneypotStore.create(tmp_path / "study.sqlite") as s:
        s.ingest_dataset(small_dataset)
        yield s


class TestLifecycle:
    def test_create_refuses_existing_file(self, tmp_path):
        path = tmp_path / "study.sqlite"
        path.write_text("occupied")
        with pytest.raises(StoreError, match="already exists"):
            HoneypotStore.create(path)

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="not found"):
            HoneypotStore.open(tmp_path / "nope.sqlite")

    def test_open_refuses_non_database(self, tmp_path):
        path = tmp_path / "study.jsonl"
        path.write_text('{"type": "meta"}\n')
        with pytest.raises(StoreError, match="not a honeypot store"):
            HoneypotStore.open(path)

    def test_open_refuses_foreign_schema_tag(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with HoneypotStore.create(path) as store:
            store._db.execute(
                "UPDATE meta SET value = ? WHERE key = ?",
                ("repro.store/schema@99", META_SCHEMA_KEY),
            )
            store._db.commit()
        with pytest.raises(StoreError, match="schema@99"):
            HoneypotStore.open(path)

    def test_open_refuses_plain_sqlite_database(self, tmp_path):
        path = tmp_path / "other.sqlite"
        db = sqlite3.connect(str(path))
        db.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        db.commit()
        db.close()
        with pytest.raises(StoreError, match="refusing to guess"):
            HoneypotStore.open(path)

    def test_schema_tag_round_trips(self, tmp_path):
        path = tmp_path / "study.sqlite"
        HoneypotStore.create(path).close()
        with HoneypotStore.open(path) as store:
            row = store._db.execute(
                "SELECT value FROM meta WHERE key = ?", (META_SCHEMA_KEY,)
            ).fetchone()
        assert row[0] == STORE_SCHEMA


class TestIngest:
    def test_counts_match_dataset(self, store, small_dataset):
        counts = store.counts()
        assert counts["campaigns"] == len(small_dataset.campaigns)
        assert counts["likers"] == len(small_dataset.likers)
        assert counts["baseline"] == len(small_dataset.baseline)
        assert counts["observations"] == small_dataset.total_likes
        assert counts["liker_campaigns"] == sum(
            len(liker.campaign_ids) for liker in small_dataset.likers.values()
        )
        assert counts["terminations"] == sum(
            len(record.terminated_liker_ids)
            for record in small_dataset.campaigns.values()
        )

    def test_rows_written_accounting_matches_counts(self, store):
        assert store.rows_written == {
            table: n for table, n in store.counts().items() if n
        }

    def test_rows_written_metrics_counters(self, tmp_path, small_dataset):
        metrics = MetricsRegistry()
        with HoneypotStore.create(
            tmp_path / "counted.sqlite", metrics=metrics
        ) as store:
            store.ingest_dataset(small_dataset)
            for table, n in store.counts().items():
                if n:
                    assert metrics.counters_snapshot()[f"store.rows_written.{table}"] == n

    def test_rows_read_metrics_counters(self, tmp_path, small_dataset):
        metrics = MetricsRegistry()
        with HoneypotStore.create(
            tmp_path / "readback.sqlite", metrics=metrics
        ) as store:
            store.ingest_dataset(small_dataset)
            store.campaign_ids()
            assert metrics.counters_snapshot()["store.rows_read.campaigns"] == len(
                small_dataset.campaigns
            )

    def test_export_reads_every_row_once(self, tmp_path, small_dataset):
        with HoneypotStore.create(tmp_path / "export.sqlite") as store:
            store.ingest_dataset(small_dataset)
            store.to_jsonl(tmp_path / "export.jsonl")
            assert store.rows_read == {
                table: n for table, n in store.counts().items() if n
            }

    def test_unknown_row_type_refuses(self, tmp_path):
        with HoneypotStore.create(tmp_path / "bad.sqlite") as store:
            with pytest.raises(StoreError, match="unknown ingest row type"):
                store.ingest_rows(iter([{"type": "likerish"}]))


class TestRecordAccessors:
    def test_campaign_round_trips_exactly(self, store, small_dataset):
        for campaign_id in small_dataset.campaign_ids():
            assert store.campaign(campaign_id) == small_dataset.campaign(
                campaign_id
            )

    def test_campaign_order_is_insertion_order(self, store, small_dataset):
        assert store.campaign_ids() == small_dataset.campaign_ids()

    def test_unknown_campaign_refuses(self, store):
        with pytest.raises(StoreError, match="no campaign"):
            store.campaign("NOPE-1")

    def test_null_cost_from_an_old_journal_replay_refuses(
        self, store, small_dataset, tmp_path
    ):
        # Stores rebuilt by the journal@1 replay hold NULL costs; reading
        # one names the store instead of crashing the economics table.
        campaign_id = small_dataset.campaign_ids()[0]
        store._db.execute(
            "UPDATE campaigns SET total_cost = NULL WHERE campaign_id = ?",
            (campaign_id,),
        )
        store._db.commit()
        with pytest.raises(StoreError, match="pre-@2 journal replay"):
            store.campaign(campaign_id)
        with pytest.raises(StoreError, match="pre-@2 journal replay"):
            store.to_dataset()
        with pytest.raises(StoreError, match="pre-@2 journal replay"):
            store.to_jsonl(tmp_path / "old.jsonl")
        assert not (tmp_path / "old.jsonl").exists()

    def test_likers_round_trip_exactly(self, store, small_dataset):
        assert {liker.user_id: liker for liker in store.iter_likers()} == (
            small_dataset.likers
        )

    def test_baseline_round_trips_exactly(self, store, small_dataset):
        assert list(store.iter_baseline()) == small_dataset.baseline

    def test_globals_round_trip_with_key_order(self, store, small_dataset):
        gender, age, country = store.globals_report()
        assert list(gender.items()) == list(small_dataset.global_gender.items())
        assert list(age.items()) == list(small_dataset.global_age.items())
        assert list(country.items()) == list(small_dataset.global_country.items())

    def test_to_dataset_materialises_the_same_dataset(
        self, store, small_dataset
    ):
        rebuilt = store.to_dataset()
        assert rebuilt.campaigns == small_dataset.campaigns
        assert rebuilt.likers == small_dataset.likers
        assert rebuilt.baseline == small_dataset.baseline


class TestExport:
    def test_export_is_byte_identical_to_legacy(self, store, small_dataset, tmp_path):
        legacy = tmp_path / "legacy.jsonl"
        small_dataset.to_jsonl(legacy)
        exported = tmp_path / "store.jsonl"
        store.to_jsonl(exported)
        assert exported.read_bytes() == legacy.read_bytes()

    def test_export_survives_reopen(self, tmp_path, small_dataset):
        path = tmp_path / "reopened.sqlite"
        with HoneypotStore.create(path) as store:
            store.ingest_dataset(small_dataset)
        legacy = tmp_path / "legacy.jsonl"
        small_dataset.to_jsonl(legacy)
        with HoneypotStore.open(path) as store:
            exported = tmp_path / "reopened.jsonl"
            store.to_jsonl(exported)
        assert exported.read_bytes() == legacy.read_bytes()
