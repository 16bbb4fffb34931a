"""Tests for repro.util.rng."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import RngStream, derive_seed
from repro.util.validation import ValidationError


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "ads") == derive_seed(42, "ads")

    def test_label_changes_seed(self):
        assert derive_seed(42, "ads") != derive_seed(42, "farms")

    def test_root_changes_seed(self):
        assert derive_seed(42, "ads") != derive_seed(43, "ads")

    def test_empty_label_rejected(self):
        with pytest.raises(ValidationError):
            derive_seed(42, "")

    @given(st.integers(), st.text(min_size=1, max_size=32))
    def test_always_non_negative(self, seed, label):
        assert derive_seed(seed, label) >= 0


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(7).generator.random(10)
        b = RngStream(7).generator.random(10)
        assert list(a) == list(b)

    def test_child_independent_of_parent_state(self):
        parent = RngStream(7)
        child_before = parent.child("x").random()
        parent.random()  # consume parent state
        child_after = parent.child("x").random()
        assert child_before == child_after

    def test_children_with_different_labels_differ(self):
        parent = RngStream(7)
        assert parent.child("a").random() != parent.child("b").random()

    def test_bernoulli_extremes(self):
        stream = RngStream(1)
        assert not stream.bernoulli(0.0)
        assert stream.bernoulli(1.0)

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            RngStream(1).bernoulli(1.5)

    def test_randint_bounds(self):
        stream = RngStream(3)
        draws = [stream.randint(2, 5) for _ in range(200)]
        assert set(draws) <= {2, 3, 4}
        assert set(draws) == {2, 3, 4}  # all values reachable

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValidationError):
            RngStream(1).randint(5, 5)

    def test_choice_single(self):
        assert RngStream(1).choice(["only"]) == "only"

    def test_choice_empty_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(1).choice([])

    def test_choice_with_size(self):
        out = RngStream(1).choice(list(range(10)), size=4)
        assert len(out) == 4
        assert all(x in range(10) for x in out)

    def test_shuffled_preserves_multiset_and_input(self):
        items = [1, 2, 3, 4, 5]
        original = list(items)
        shuffled = RngStream(9).shuffled(items)
        assert sorted(shuffled) == sorted(original)
        assert items == original

    def test_sample_without_replacement_distinct(self):
        out = RngStream(5).sample_without_replacement(list(range(20)), 10)
        assert len(out) == len(set(out)) == 10

    def test_sample_without_replacement_too_many(self):
        with pytest.raises(ValidationError):
            RngStream(5).sample_without_replacement([1, 2], 3)

    def test_poisson_non_negative(self):
        stream = RngStream(11)
        assert all(stream.poisson(3.0) >= 0 for _ in range(100))

    @given(st.integers(min_value=0, max_value=2**32))
    def test_uniform_within_bounds(self, seed):
        value = RngStream(seed).uniform(2.0, 3.0)
        assert 2.0 <= value < 3.0


class TestStateDict:
    def test_round_trip_resumes_the_exact_sequence(self):
        # Resume replays every stream from its seed; a checkpoint barrier
        # compares the replayed state with the stored one, so the same draws
        # must match it and continue the exact sequence, and one more must not.
        stream = RngStream(42, "ckpt")
        [stream.uniform(0, 1) for _ in range(10)]
        state = json.loads(json.dumps(stream.state_dict()))
        resumed = RngStream(42, "ckpt")
        [resumed.uniform(0, 1) for _ in range(10)]
        assert resumed.state_dict() == state
        expected = [stream.uniform(0, 1) for _ in range(5)]
        assert [resumed.uniform(0, 1) for _ in range(5)] == expected
        ahead = RngStream(42, "ckpt")
        [ahead.uniform(0, 1) for _ in range(11)]
        assert ahead.state_dict() != state

    def test_state_differs_by_seed_or_label(self):
        # the identity is part of the fingerprint: a replay under the wrong
        # seed or label never matches the stored state
        state = RngStream(42, "ckpt").state_dict()
        assert RngStream(43, "ckpt").state_dict() != state
        assert RngStream(42, "other").state_dict() != state

    def test_state_is_json_pure(self):
        state = RngStream(42, "ckpt").state_dict()
        assert json.loads(json.dumps(state)) == state

    def test_child_states_are_independent(self):
        parent = RngStream(42, "study")
        child = parent.child("baseline")
        state = child.state_dict()
        parent.uniform(0, 1)  # advancing the parent must not move the child
        assert child.state_dict() == state
        assert RngStream(42, "study").child("baseline").state_dict() == state
