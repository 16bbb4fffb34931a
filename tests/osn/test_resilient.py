"""Tests for repro.osn.resilient (retry/backoff, circuit breaker)."""

import pytest

from repro.osn.api import PlatformAPI, PublicPage, RequestStats
from repro.osn.faults import (
    CrawlTimeout,
    EndpointUnavailable,
    RateLimited,
    TransientError,
    TruncatedResponse,
)
from repro.osn.network import SocialNetwork
from repro.osn.profile import Gender
from repro.osn.resilient import CircuitBreaker, ResilientAPI, RetryPolicy
from repro.util.rng import RngStream
from repro.util.validation import ValidationError


class ScriptedAPI:
    """A fake inner API that replays a per-endpoint script of outcomes.

    Script entries are either an exception instance (raised) or a plain
    value (returned).  Once a script runs dry the endpoint keeps returning
    its last value.
    """

    def __init__(self, script):
        self.stats = RequestStats()
        self._script = list(script)
        self.calls = 0

    def _next(self):
        self.calls += 1
        outcome = self._script.pop(0) if self._script else "ok"
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def get_profile(self, user_id):
        return self._next()

    def get_friend_list(self, user_id):
        return self._next()

    def get_declared_friend_count(self, user_id):
        return self._next()

    def get_page_likes(self, user_id):
        return self._next()

    def get_declared_like_count(self, user_id):
        return self._next()

    def get_page(self, page_id):
        return self._next()


def resilient(script, **policy_kwargs):
    inner = ScriptedAPI(script)
    policy = RetryPolicy(**policy_kwargs) if policy_kwargs else RetryPolicy()
    return ResilientAPI(inner, policy, RngStream(5, "backoff")), inner


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy(base_backoff=10.0, max_backoff=5.0)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_backoff=2.0, backoff_factor=2.0, max_backoff=6.0)
        assert policy.backoff_for(1) == 2.0
        assert policy.backoff_for(2) == 4.0
        assert policy.backoff_for(3) == 6.0  # capped
        assert policy.backoff_for(10) == 6.0


class TestRetries:
    def test_success_after_transient_failures(self):
        api, inner = resilient([TransientError(), CrawlTimeout(), "value"])
        assert api.get_profile(1) == "value"
        assert inner.calls == 3
        assert api.stats.retries == 2
        assert api.stats.backoff_minutes > 0
        assert api.stats.failures == 0

    def test_rate_limit_waits_out_the_hint(self):
        api, _ = resilient([RateLimited(retry_after=42), "value"])
        assert api.get_profile(1) == "value"
        assert api.stats.backoff_minutes == 42.0

    def test_budget_exhaustion_raises(self):
        api, inner = resilient([TransientError()] * 10, max_attempts=3)
        with pytest.raises(EndpointUnavailable):
            api.get_profile(1)
        assert inner.calls == 3  # the hard budget
        assert api.stats.failures == 1

    def test_deterministic_jitter(self):
        def run(seed):
            inner = ScriptedAPI([TransientError(), TransientError(), "v"])
            api = ResilientAPI(inner, RetryPolicy(), RngStream(seed, "backoff"))
            api.get_profile(1)
            return api.stats.backoff_minutes

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_no_rng_consumed_without_retries(self):
        rng = RngStream(5, "backoff")
        api = ResilientAPI(ScriptedAPI(["v"]), RetryPolicy(), rng)
        assert api.get_profile(1) == "v"
        assert rng.random() == RngStream(5, "backoff").random()


class TestTruncationRecovery:
    def test_retry_recovers_full_response(self):
        api, _ = resilient([TruncatedResponse([1, 2]), [1, 2, 3, 4]])
        assert api.get_friend_list(1) == [1, 2, 3, 4]
        assert api.stats.failures == 0

    def test_longest_partial_returned_on_exhaustion(self):
        api, _ = resilient(
            [TruncatedResponse([1]), TruncatedResponse([1, 2, 3]),
             TruncatedResponse([1, 2])],
            max_attempts=3,
        )
        assert api.get_friend_list(1) == [1, 2, 3]
        assert api.stats.failures == 1  # degraded, and counted as such

    def test_partial_page_usable(self):
        page = PublicPage(page_id=1, name="P", description="d",
                          like_count=4, liker_ids=(10, 11))
        api, _ = resilient([TruncatedResponse(page)] * 3, max_attempts=3)
        result = api.get_page(1)
        assert result.like_count == 4
        assert result.liker_ids == (10, 11)


class TestCircuitBreaker:
    def test_unit_state_machine(self):
        breaker = CircuitBreaker(threshold=2, cooldown=3)
        assert breaker.allow()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # trips
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # third swallowed call opens the probe window
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.record_failure()  # failed probe: straight back open
        assert breaker.state == CircuitBreaker.OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.allow()  # cooldown of 1: immediate half-open probe
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_trip_and_fast_fail_without_touching_platform(self):
        api, inner = resilient(
            [TransientError()] * 100,
            max_attempts=2, breaker_threshold=2, breaker_cooldown=4, jitter=0.0,
        )
        with pytest.raises(EndpointUnavailable):
            api.get_profile(1)  # two failures: trips the breaker
        assert api.stats.breaker_trips == 1
        calls_before = inner.calls
        with pytest.raises(EndpointUnavailable):
            api.get_profile(1)  # fast-fail: the platform is not called
        assert inner.calls == calls_before
        assert api.stats.breaker_fastfails >= 1

    def test_breakers_are_per_endpoint(self):
        api, inner = resilient(
            [TransientError()] * 4 + ["page-ok"],
            max_attempts=2, breaker_threshold=2,
        )
        with pytest.raises(EndpointUnavailable):
            api.get_profile(1)
        with pytest.raises(EndpointUnavailable):
            api.get_friend_list(1)  # own breaker: still reaches the platform
        assert api.breaker("get_profile").state == CircuitBreaker.OPEN
        assert api.breaker("get_friend_list").state == CircuitBreaker.OPEN
        assert api.get_page(1) == "page-ok"  # untouched endpoint unaffected

    def test_rate_limits_do_not_trip_the_breaker(self):
        api, _ = resilient(
            [RateLimited(2), RateLimited(2), RateLimited(2), "v"],
            max_attempts=4, breaker_threshold=2,
        )
        assert api.get_profile(1) == "v"
        assert api.stats.breaker_trips == 0


class TestPassThroughOverRealAPI:
    def test_fault_free_wrap_is_transparent(self):
        net = SocialNetwork()
        user = net.create_user(gender=Gender.FEMALE, age=22, country="US",
                               friend_list_public=True)
        page = net.create_page("P")
        net.like_page(user.user_id, page.page_id, time=0)
        inner = PlatformAPI(net)
        api = ResilientAPI(inner, RetryPolicy(), RngStream(1, "backoff"))
        assert api.get_profile(user.user_id) == inner.get_profile(user.user_id)
        assert api.get_page(page.page_id).like_count == 1
        assert api.stats is inner.stats
        assert api.stats.retries == 0
        assert api.stats.failures == 0


class TestBreakerStateDict:
    """A checkpoint barrier compares breaker states, so every position in
    the state machine that changes what the next call does must show."""

    @staticmethod
    def _tripped(threshold, cooldown):
        breaker = CircuitBreaker(threshold=threshold, cooldown=cooldown)
        for _ in range(threshold):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        return breaker

    def test_open_breaker_stays_open_mid_cooldown(self):
        breaker = self._tripped(threshold=2, cooldown=4)
        fresh = self._tripped(threshold=2, cooldown=4)
        assert not breaker.allow()  # 1 of 4 swallowed
        assert breaker.state == fresh.state == CircuitBreaker.OPEN
        # same state name, different distance to the probe
        assert breaker.state_dict() != fresh.state_dict()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # 4th swallow flips to half-open
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_breaker_keeps_its_probe(self):
        breaker = self._tripped(threshold=1, cooldown=1)
        fresh = self._tripped(threshold=1, cooldown=1)
        assert breaker.allow()  # open -> half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.state_dict() != fresh.state_dict()
        assert breaker.record_failure()  # failed probe goes straight back open
        assert breaker.state == CircuitBreaker.OPEN

    def test_closed_breaker_does_not_reopen_early(self):
        breaker = CircuitBreaker(threshold=3, cooldown=2)
        fresh = CircuitBreaker(threshold=3, cooldown=2)
        breaker.record_failure()
        breaker.record_failure()  # streak of 2, still closed
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.state_dict() != fresh.state_dict()
        # a success wipes the streak back to the fresh breaker's state
        breaker.record_success()
        assert breaker.state_dict() == fresh.state_dict()
        assert not breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestResilientAPIStateDict:
    def _api(self, rng=None):
        network = SocialNetwork()
        inner = PlatformAPI(network, stats=RequestStats())
        return ResilientAPI(
            inner, RetryPolicy(breaker_threshold=2, breaker_cooldown=3),
            rng if rng is not None else RngStream(5, "backoff"),
        )

    def test_state_covers_every_breaker_and_the_jitter_stream(self):
        jitter = RngStream(5, "backoff")
        api = self._api(jitter)
        api.breaker("get_profile").record_failure()
        api.breaker("get_profile").record_failure()  # open
        api.breaker("get_page").record_failure()  # closed, streak 1
        state = api.state_dict()
        assert sorted(state["breakers"]) == ["get_page", "get_profile"]
        assert state["breakers"]["get_profile"]["state"] == CircuitBreaker.OPEN
        assert state["breakers"]["get_page"] == (
            api.breaker("get_page").state_dict()
        )
        jitter.uniform(-1.0, 1.0)  # one backoff jitter draw
        assert api.state_dict()["breakers"] == state["breakers"]
        assert api.state_dict()["rng"] != state["rng"]

    def test_state_is_json_pure(self):
        import json

        api = self._api()
        api.breaker("get_profile").record_failure()
        state = api.state_dict()
        assert json.loads(json.dumps(state)) == state
