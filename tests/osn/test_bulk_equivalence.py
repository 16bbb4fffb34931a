"""Scalar-vs-cohort equivalence for the OSN write paths.

Each kind of write has two paths: the scalar one the event loop calls
(`like_page`, `add_friendship`, `LikeLog.record`) and the cohort one the
world generators call (`like_pages_fresh_many`, `add_friendships_arrays`,
`LikeLog.record_arrays`).  The cohort paths exist purely for speed; their
contract is that final network state is identical to looping the scalar
calls in the same order, and that a rejected batch applies nothing.
These tests pin that contract at the unit level and end-to-end: a seeded
small study must produce the identical dataset whether the generators
write through the cohort paths or through per-item scalar calls.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.osn.universe as universe_module
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.osn.events import LikeEvent, LikeLog
from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.osn.universe import (
    CLICKWORKER_MIX,
    ORGANIC_MIX,
    SHARED_SPAM_KEY,
    PageUniverse,
)
from repro.util.rng import RngStream
from repro.util.validation import ValidationError


def _network_with(n_users: int, n_pages: int) -> tuple:
    network = SocialNetwork()
    users = [
        network.create_user(gender=Gender.FEMALE, age=30, country="US").user_id
        for _ in range(n_users)
    ]
    pages = [network.create_page(f"p{i}").page_id for i in range(n_pages)]
    return network, users, pages


def _like_state(network: SocialNetwork, users, pages) -> tuple:
    return (
        [network.page_liker_ids(p) for p in pages],
        [sorted(network.user_liked_page_ids(u)) for u in users],
        [network.likes.for_page(p) for p in pages],
        [network.likes.for_user(u) for u in users],
        len(network.likes),
    )


def _fresh(page_lists) -> list:
    return [np.asarray(pages, dtype=np.int64) for pages in page_lists]


class TestLikePagesBulk:
    """`like_pages_fresh_many`, the cohort like path."""

    def test_matches_scalar_loop(self):
        scalar_net, users, pages = _network_with(3, 10)
        bulk_net, bulk_users, bulk_pages = _network_with(3, 10)
        batches = [pages[0:6], pages[3:9], pages[2:10:2]]
        for user_id, batch in zip(users, batches):
            for page_id in batch:
                scalar_net.like_page(user_id, page_id, time=4)
        added = bulk_net.like_pages_fresh_many(bulk_users, _fresh(batches), time=4)
        assert added == sum(len(batch) for batch in batches)
        assert _like_state(scalar_net, users, pages) == _like_state(
            bulk_net, bulk_users, bulk_pages
        )

    def test_keeps_materialised_liker_sets_coherent(self):
        # A scalar like materialises the page's liker set; a later cohort
        # write onto that page must land in the set too, or like_page
        # would record a duplicate like.
        network, (alice, bob), pages = _network_with(2, 2)
        assert network.like_page(alice, pages[0], time=0)
        network.like_pages_fresh_many([bob], _fresh([pages]), time=1)
        assert not network.like_page(bob, pages[0], time=2)
        assert network.page_liker_ids(pages[0]) == [alice, bob]
        assert len(network.likes) == 3

    def test_rejects_unknown_page_and_bad_time(self):
        network, (alice, *_), pages = _network_with(1, 2)
        with pytest.raises(ValidationError):
            network.like_pages_fresh_many([alice], _fresh([[pages[0], 424242]]), time=0)
        with pytest.raises(ValidationError):
            network.like_pages_fresh_many([alice], _fresh([pages]), time=-1)

    def test_rejects_unknown_user(self):
        network, (alice, *_), pages = _network_with(1, 2)
        with pytest.raises(ValidationError, match="unknown user 999999"):
            network.like_pages_fresh_many(
                [alice, 999999], _fresh([pages[:1], pages[1:]]), time=0
            )

    def test_rejects_terminated_user(self):
        network, (alice, *_), pages = _network_with(1, 2)
        network.terminate_account(alice, time=5)
        with pytest.raises(ValidationError):
            network.like_pages_fresh_many([alice], _fresh([pages]), time=6)

    def test_failed_batch_applies_nothing(self):
        # A rejected batch must not leave the liker sets and the like log
        # disagreeing: either every valid page before the bad one is fully
        # recorded, or none is.  We guarantee the stronger form — nothing.
        network, (alice, bob, carol), pages = _network_with(3, 3)
        network.like_page(carol, pages[0], time=0)  # materialises a liker set
        network.add_friendship(alice, bob)
        network.terminate_account(carol, time=1)
        before = _like_state(network, [alice, bob, carol], pages)
        bad_batches = [
            ([alice, bob], [pages, [pages[0], 424242]], 2),  # unknown page
            ([alice, carol], [pages, pages[1:]], 2),  # terminated user
            ([alice, bob], [pages, pages], -1),  # negative time
        ]
        for user_ids, page_lists, time in bad_batches:
            with pytest.raises(ValidationError):
                network.like_pages_fresh_many(user_ids, _fresh(page_lists), time)
            assert _like_state(network, [alice, bob, carol], pages) == before
            assert network.graph.edge_count == 1
        # the materialised set did not absorb the rejected likes either
        assert network.like_page(alice, pages[0], time=3)

    def test_empty_batch(self):
        network, (alice, bob), pages = _network_with(2, 1)
        assert network.like_pages_fresh_many([], [], time=0) == 0
        empty = _fresh([[], []])
        assert network.like_pages_fresh_many([alice, bob], empty, time=0) == 0
        assert len(network.likes) == 0
        assert network.page_liker_ids(pages[0]) == []


class TestRecordArrays:
    """The cohort-wide columnar append is state-identical to scalar records."""

    def test_matches_scalar_records(self):
        scalar_log, bulk_log = LikeLog(), LikeLog()
        users = np.array([7, 7, 8, 9, 9, 9], dtype=np.int64)
        pages = np.array([10, 11, 10, 12, 11, 13], dtype=np.int64)
        for user_id, page_id in zip(users.tolist(), pages.tolist()):
            scalar_log.record(LikeEvent(user_id=user_id, page_id=page_id, time=3))
        bulk_log.record_arrays(users, pages, 3)
        for page_id in (10, 11, 12, 13):
            assert scalar_log.for_page(page_id) == bulk_log.for_page(page_id)
        for user_id in (7, 8, 9):
            assert scalar_log.for_user(user_id) == bulk_log.for_user(user_id)
        assert len(scalar_log) == len(bulk_log) == 6

    def test_out_of_order_batch_raises_and_applies_nothing(self):
        log = LikeLog()
        log.record(LikeEvent(user_id=1, page_id=10, time=5))
        with pytest.raises(ValidationError):
            # page 11 would be fine; page 10 violates per-page chronology
            log.record_arrays(
                np.array([2, 2], dtype=np.int64),
                np.array([11, 10], dtype=np.int64),
                4,
            )
        assert log.for_page(11) == ()
        assert log.for_user(2) == ()
        assert len(log) == 1

    def test_rejects_negative_time(self):
        log = LikeLog()
        with pytest.raises(ValidationError):
            log.record_arrays(
                np.array([2], dtype=np.int64), np.array([11], dtype=np.int64), -1
            )
        assert len(log) == 0

    def test_equal_time_batch_accepted_below_high_water_mark(self):
        # time == a page's newest event is chronological; the vectorised
        # slow-path check (time < _max_time) must not over-reject it.
        log = LikeLog()
        log.record(LikeEvent(user_id=1, page_id=10, time=4))
        log.record(LikeEvent(user_id=1, page_id=12, time=9))
        log.record_arrays(
            np.array([2, 2], dtype=np.int64),
            np.array([10, 11], dtype=np.int64),
            4,
        )
        assert len(log) == 4
        assert [e.user_id for e in log.for_page(10)] == [1, 2]


class TestProfileStoreViews:
    """ProfileView reads are equivalent to the written attributes/columns."""

    def test_views_match_writes_and_columns(self):
        network = SocialNetwork()
        specs = [
            (Gender.FEMALE, 19, "US", True, "organic"),
            (Gender.MALE, 44, "IN", False, "clickworker"),
            (Gender.MALE, 31, "EG", True, "farm:X"),
            (Gender.FEMALE, 67, "US", False, "organic"),
        ]
        ids = [
            network.create_user(
                gender=g, age=a, country=c, friend_list_public=p, cohort=coh
            ).user_id
            for g, a, c, p, coh in specs
        ]
        for user_id, (g, a, c, p, coh) in zip(ids, specs):
            view = network.user(user_id)
            assert (view.gender, view.age, view.country) == (g, a, c)
            assert view.friend_list_public is p
            assert view.cohort == coh
            assert view.terminated_at is None and not view.is_terminated
        # object identity: the store caches one view per row
        assert network.user(ids[0]) is network.user(ids[0])
        # column reads agree with per-view reads
        store = network.profiles
        assert store.ages().tolist() == [a for _, a, _, _, _ in specs]
        assert [store.strings.value(c) for c in store.country_codes()] == [
            c for _, _, c, _, _ in specs
        ]
        assert store.friend_list_public_mask().tolist() == [
            p for _, _, _, p, _ in specs
        ]

    def test_termination_and_background_counts_round_trip(self):
        network = SocialNetwork()
        user = network.create_user(gender=Gender.MALE, age=25, country="TR")
        user.background_friend_count = 321
        user.background_like_count = 55
        assert user.background_friend_count == 321
        assert user.background_like_count == 55
        network.terminate_account(user.user_id, time=17)
        assert user.is_terminated
        assert user.terminated_at == 17
        assert network.profiles.alive_mask().tolist() == [False]


class TestFriendshipGraphCSR:
    """CSR graph queries match a plain dict-of-sets reference."""

    def _reference(self, edges):
        ref = {}
        for a, b in edges:
            ref.setdefault(a, set()).add(b)
            ref.setdefault(b, set()).add(a)
        return ref

    def test_queries_match_reference(self):
        network, users, _ = _network_with(40, 1)
        generator = np.random.default_rng(4821)
        pairs = set()
        while len(pairs) < 120:
            a, b = generator.integers(0, len(users), size=2).tolist()
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        pairs = sorted(pairs)
        edges = [(users[a], users[b]) for a, b in pairs]
        # half through the array fast path (compiled core), half through
        # scalar adds (overlay) — queries must merge both
        half = len(edges) // 2
        network.add_friendships_arrays(
            np.array([a for a, _ in edges[:half]], dtype=np.int64),
            np.array([b for _, b in edges[:half]], dtype=np.int64),
        )
        for a, b in edges[half:]:
            network.add_friendship(a, b)
        ref = self._reference(edges)
        graph = network.graph
        assert graph.edge_count == len(edges)
        for user_id in users:
            assert graph.neighbors(user_id) == ref.get(user_id, set())
            assert graph.degree(user_id) == len(ref.get(user_id, set()))
        for a, b in edges[:20]:
            assert graph.are_friends(a, b) and graph.are_friends(b, a)
        subset = users[:15]
        expected_within = {
            (min(a, b), max(a, b))
            for a, b in edges
            if a in set(subset) and b in set(subset)
        }
        got_within = {
            (min(int(a), int(b)), max(int(a), int(b)))
            for a, b in graph.edges_within(subset)
        }
        assert got_within == expected_within
        probe = users[0]
        expected_two_hop = set()
        for n in ref.get(probe, set()):
            expected_two_hop |= ref.get(n, set())
        expected_two_hop -= ref.get(probe, set())
        expected_two_hop -= {probe}
        assert graph.two_hop_neighbors(probe) == expected_two_hop


def _test_universe() -> PageUniverse:
    base = 9_500_000
    return PageUniverse(
        global_pages=range(base, base + 40),
        regional_pages={
            "US": range(base + 40, base + 70),
            "IN": range(base + 70, base + 90),
        },
        spam_segments={
            SHARED_SPAM_KEY: range(base + 90, base + 110),
            "clickworker": range(base + 110, base + 125),
        },
        popularity_exponent=0.9,
    )


class TestBatchedSamplerEquivalence:
    """sample_likes_many is draw-for-draw identical to the scalar loop."""

    CASES = [
        (ORGANIC_MIX, None),
        (CLICKWORKER_MIX, "clickworker"),
    ]

    @pytest.mark.parametrize("mix,spam_key", CASES)
    def test_bit_identical_to_scalar_loop(self, mix, spam_key):
        universe = _test_universe()
        totals = [0, 3, 17, 30, 8, 1, 25, 12]
        countries = ["US", "IN", "US", "FR", "IN", "US", "FR", "IN"]
        batched = universe.sample_likes_many(
            RngStream(777, "t"), totals, mix, countries, spam_key=spam_key
        )
        scalar_rng = RngStream(777, "t")
        scalar = [
            universe.sample_likes_array(
                scalar_rng, total, mix, country, spam_key=spam_key
            )
            for total, country in zip(totals, countries)
        ]
        assert len(batched) == len(scalar)
        for got, expected in zip(batched, scalar):
            assert np.array_equal(got, expected)

    def test_chunk_boundaries_do_not_change_draws(self, monkeypatch):
        # Force many tiny chunks: per-user plans must split the uniform
        # blocks exactly where the one-big-block path would.
        universe = _test_universe()
        totals = [12, 30, 5, 22, 9, 18, 0]
        countries = ["US", "IN", "FR", "US", "IN", "US", "IN"]
        unchunked = universe.sample_likes_many(
            RngStream(31, "c"), totals, CLICKWORKER_MIX, countries,
            spam_key="clickworker",
        )
        monkeypatch.setattr(universe_module, "_DRAW_CHUNK", 64)
        chunked = universe.sample_likes_many(
            RngStream(31, "c"), totals, CLICKWORKER_MIX, countries,
            spam_key="clickworker",
        )
        assert len(chunked) == len(unchunked) == len(totals)
        for got, expected in zip(chunked, unchunked):
            assert np.array_equal(got, expected)


def _arrays(pairs) -> tuple:
    return (
        np.array([a for a, _ in pairs], dtype=np.int64),
        np.array([b for _, b in pairs], dtype=np.int64),
    )


class TestAddFriendshipsBulk:
    """`add_friendships_arrays`, the cohort friendship path."""

    def test_matches_scalar_loop(self):
        scalar_net, users, _ = _network_with(6, 1)
        bulk_net, bulk_users, _ = _network_with(6, 1)
        pairs = [(0, 1), (1, 2), (0, 1), (3, 4), (2, 0)]
        for a, b in pairs:
            scalar_net.add_friendship(users[a], users[b])
        added = bulk_net.add_friendships_arrays(
            *_arrays([(bulk_users[a], bulk_users[b]) for a, b in pairs])
        )
        assert added == 4  # one duplicate pair
        assert scalar_net.graph.edge_count == bulk_net.graph.edge_count
        # both networks allocate identical user ids, so edges compare directly
        for user_id in users:
            assert scalar_net.graph.neighbors(user_id) == bulk_net.graph.neighbors(
                user_id
            )

    def test_rejects_self_loops_and_unknown_users(self):
        network, users, _ = _network_with(2, 1)
        with pytest.raises(ValidationError):
            network.add_friendships_arrays(*_arrays([(users[0], users[0])]))
        with pytest.raises(ValidationError):
            network.add_friendships_arrays(*_arrays([(users[0], 999999)]))

    def test_failed_batch_adds_no_edges(self):
        network, users, _ = _network_with(3, 1)
        with pytest.raises(ValidationError):
            network.add_friendships_arrays(
                *_arrays([(users[0], users[1]), (users[2], users[2])])
            )
        assert network.graph.edge_count == 0
        assert all(network.graph.neighbors(u) == set() for u in users)


def _scalar_like_pages_fresh_many(self, user_ids, page_lists, time):
    """The fully scalar like path: one `like_page` call per page."""
    added = 0
    for user_id, pages in zip(user_ids, page_lists):
        for page_id in np.asarray(pages, dtype=np.int64).tolist():
            if self.like_page(user_id, page_id, time):
                added += 1
    return added


def _scalar_add_friendships_arrays(self, a, b):
    before = self.graph.edge_count
    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        self.add_friendship(x, y)
    return self.graph.edge_count - before


def _study_fingerprint(config: StudyConfig) -> dict:
    artifacts = HoneypotStudy(config).run()
    network = artifacts.network
    return {
        "like_counts": {
            campaign_id: record.total_likes
            for campaign_id, record in artifacts.dataset.campaigns.items()
        },
        "liker_ids": {
            campaign_id: sorted(obs.user_id for obs in record.observations)
            for campaign_id, record in artifacts.dataset.campaigns.items()
        },
        "edge_count": network.graph.edge_count,
        "like_events": len(network.likes),
        "baseline_ids": sorted(record.user_id for record in artifacts.dataset.baseline),
    }


class TestSeededStudyEquivalence:
    """A seeded small study is identical via the scalar and cohort write paths."""

    def test_dataset_identical(self, monkeypatch):
        config = StudyConfig.small(seed=991)
        bulk = _study_fingerprint(config)
        # Swap out the two cohort write entry points the generators use:
        # cohort-wide like appends and array edge wiring both collapse to
        # per-item scalar calls.
        monkeypatch.setattr(
            SocialNetwork, "like_pages_fresh_many", _scalar_like_pages_fresh_many
        )
        monkeypatch.setattr(
            SocialNetwork, "add_friendships_arrays", _scalar_add_friendships_arrays
        )
        scalar = _study_fingerprint(config)
        assert scalar == bulk
