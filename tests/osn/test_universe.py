"""Tests for repro.osn.universe."""

import pytest

from repro.osn.universe import (
    CLICKWORKER_MIX,
    DEFAULT_SPAM_KEYS,
    SHARED_SPAM_KEY,
    LikeMix,
    PageUniverse,
    build_universe,
)
from repro.util.rng import RngStream
from repro.util.validation import ValidationError


@pytest.fixture()
def universe(rng):
    return build_universe(
        page_ids=list(range(1000, 1400)),
        spam_page_ids=list(range(5000, 5120)),
        countries=["US", "IN", "TR"],
        country_weights=[5.0, 3.0, 2.0],
        rng=rng.child("universe"),
    )


class TestLikeMix:
    def test_counts_sum(self):
        mix = LikeMix(global_frac=0.5, regional_frac=0.3, spam_frac=0.2)
        counts = mix.counts(100)
        assert sum(counts.values()) == 100

    def test_over_one_rejected(self):
        with pytest.raises(ValidationError):
            LikeMix(global_frac=0.6, regional_frac=0.3, spam_frac=0.2)

    def test_remainder_goes_global(self):
        mix = LikeMix(global_frac=0.0, regional_frac=0.3, spam_frac=0.2)
        counts = mix.counts(10)
        assert counts["global"] == 5


class TestBuildUniverse:
    def test_partition_complete_and_disjoint(self, universe):
        global_pages = set(universe.global_pages)
        regional = [set(universe.regional_pages(c)) for c in ("US", "IN", "TR")]
        spam = set(universe.spam_pages)
        everything = set(universe.all_page_ids)
        assert everything == global_pages | spam | set().union(*regional)
        assert len(everything) == 400 + 120
        for seg in regional:
            assert not (seg & global_pages)

    def test_regional_sizes_proportional(self, universe):
        us = len(universe.regional_pages("US"))
        tr = len(universe.regional_pages("TR"))
        assert us > tr

    def test_spam_segments(self, universe):
        shared = universe.spam_segment(SHARED_SPAM_KEY)
        assert len(shared) > 0
        for key in DEFAULT_SPAM_KEYS:
            assert len(universe.spam_segment(key)) > 0

    def test_unknown_regional_empty(self, universe):
        assert universe.regional_pages("ZZ") == []

    def test_needs_spam_pages(self, rng):
        with pytest.raises(ValidationError):
            build_universe(
                page_ids=[1, 2, 3], spam_page_ids=[], countries=[],
                country_weights=[], rng=rng,
            )


class TestSampleLikes:
    """Behaviour of `sample_likes_many`, the cohort sampler the generators call."""

    def test_distinct_and_sized(self, universe, rng):
        totals = [60, 0, 25, 60]
        cohort = universe.sample_likes_many(
            rng, totals, CLICKWORKER_MIX, ["US", "IN", "TR", "ZZ"],
            spam_key="clickworker",
        )
        assert [len(likes) for likes in cohort] == totals
        for likes in cohort:
            assert len(set(likes.tolist())) == len(likes)

    def test_zero(self, universe, rng):
        assert universe.sample_likes_many(rng, [], CLICKWORKER_MIX, []) == []
        (likes,) = universe.sample_likes_many(rng, [0], CLICKWORKER_MIX, ["US"])
        assert likes.tolist() == []

    def test_regional_pages_used(self, universe, rng):
        mix = LikeMix(global_frac=0.0, regional_frac=1.0, spam_frac=0.0)
        (likes,) = universe.sample_likes_many(rng, [10], mix, ["TR"])
        assert set(likes.tolist()) <= set(universe.regional_pages("TR"))

    def test_unknown_country_spills_to_global(self, universe, rng):
        mix = LikeMix(global_frac=0.0, regional_frac=1.0, spam_frac=0.0)
        (likes,) = universe.sample_likes_many(rng, [10], mix, ["ZZ"])
        assert set(likes.tolist()) <= set(universe.global_pages)

    def test_spam_key_prefers_own_segment(self, universe, rng):
        mix = LikeMix(global_frac=0.0, regional_frac=0.0, spam_frac=1.0)
        (likes,) = universe.sample_likes_many(rng, [20], mix, ["US"], spam_key="alms")
        own = set(universe.spam_segment("alms"))
        shared = set(universe.spam_segment(SHARED_SPAM_KEY))
        assert set(likes.tolist()) <= own | shared
        assert len(set(likes.tolist()) & own) > 0

    def test_no_spam_key_uses_shared_only(self, universe, rng):
        mix = LikeMix(global_frac=0.0, regional_frac=0.0, spam_frac=1.0)
        (likes,) = universe.sample_likes_many(rng, [10], mix, ["US"])
        shared = set(universe.spam_segment(SHARED_SPAM_KEY))
        assert set(likes.tolist()) <= shared

    def test_two_operators_disjoint_own_segments(self, universe, rng):
        assert not (
            set(universe.spam_segment("alms")) & set(universe.spam_segment("socialformula"))
        )
