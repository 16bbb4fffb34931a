"""``record_row`` is the one record -> row encoder, pinned to ``asdict``.

The journal, the JSONL export and the store export all encode dataset
records through :func:`repro.honeypot.storage.record_row`, so its rows
must be exactly what :func:`dataclasses.asdict` gave those paths before:
the same keys in field order, the same values, and no list shared with
the record.
"""

from dataclasses import asdict, dataclass, field
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.honeypot.storage import (
    BaselineRecord,
    LikeObservation,
    LikerRecord,
    record_row,
)
from repro.honeypot.study import HoneypotStudy, StudyConfig
from tests.honeypot.test_storage_properties import campaign_records, liker_records

_ids = st.integers(min_value=1, max_value=10_000)
_baseline_records = st.builds(
    BaselineRecord, user_id=_ids, declared_like_count=st.integers(0, 10_000)
)
_observations = st.builds(
    LikeObservation, observed_at=st.integers(0, 100_000), user_id=_ids
)


def assert_row_matches(record) -> None:
    row = record_row(record)
    expected = asdict(record)
    assert row == expected
    assert list(row) == list(expected)


@pytest.fixture(scope="module")
def chaos_dataset():
    return HoneypotStudy(StudyConfig.chaos()).run().dataset


class TestMatchesAsdict:
    @settings(max_examples=60, deadline=None)
    @given(record=st.one_of(
        liker_records(), campaign_records(), _baseline_records, _observations,
    ))
    def test_generated_records(self, record):
        assert_row_matches(record)

    def test_every_record_of_a_chaos_study(self, chaos_dataset):
        records = [
            *chaos_dataset.campaigns.values(),
            *chaos_dataset.likers.values(),
            *chaos_dataset.baseline,
        ]
        assert any(
            record.crawl_status != "complete"
            for record in chaos_dataset.likers.values()
        )
        for record in records:
            assert_row_matches(record)

    def test_observations_become_plain_dicts(self, chaos_dataset):
        record = next(
            c for c in chaos_dataset.campaigns.values() if c.observations
        )
        first = record.observations[0]
        assert record_row(record)["observations"][0] == {
            "observed_at": first.observed_at, "user_id": first.user_id,
        }


class TestNoAliasing:
    @settings(max_examples=30, deadline=None)
    @given(record=liker_records())
    def test_liker_lists_are_fresh(self, record):
        before = asdict(record)
        row = record_row(record)
        for name in ("visible_friend_ids", "liked_page_ids",
                     "campaign_ids", "failed_fields"):
            row[name].append(-1)
        assert asdict(record) == before

    @settings(max_examples=30, deadline=None)
    @given(record=campaign_records())
    def test_campaign_lists_are_fresh(self, record):
        before = asdict(record)
        row = record_row(record)
        row["terminated_liker_ids"].append(-1)
        for obs in row["observations"]:
            obs["user_id"] = -1
        row["observations"].append({"observed_at": 0, "user_id": 0})
        assert asdict(record) == before


class TestFieldDrift:
    def test_a_new_list_field_is_encoded(self):
        @dataclass
        class TaggedLikerRecord(LikerRecord):
            tags: List[str] = field(default_factory=list)

        record = TaggedLikerRecord(
            user_id=7, gender="F", age_bracket="18-24", country="US",
            friend_list_public=False, declared_friend_count=None,
            liked_page_ids=[3, 1], campaign_ids=["A"], tags=["new"],
        )
        row = record_row(record)
        assert list(row)[-1] == "tags"
        assert_row_matches(record)
        row["tags"].append("more")
        assert record.tags == ["new"]

    def test_a_field_without_a_copy_rule_is_refused(self):
        @dataclass(frozen=True)
        class ScoredBaselineRecord(BaselineRecord):
            scores: Dict[str, int] = field(default_factory=dict)

        with pytest.raises(TypeError, match="ScoredBaselineRecord.scores"):
            record_row(ScoredBaselineRecord(user_id=1, declared_like_count=2))
