"""Tests for the random variable registry (the world table)."""

import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.errors import InvalidDistributionError, VariableError


class TestCreation:
    def test_fresh_from_sequence(self):
        registry = VariableRegistry()
        var = registry.fresh([0.2, 0.8])
        assert registry.domain(var) == (0, 1)
        assert registry.probability(var, 1) == 0.8

    def test_fresh_from_mapping(self):
        registry = VariableRegistry()
        var = registry.fresh({1: 0.25, 0: 0.75})
        assert registry.domain(var) == (0, 1)
        assert registry.distribution(var) == {0: 0.75, 1: 0.25}

    @pytest.mark.parametrize("sparse", [{5: 0.5, 9: 0.5}, {1: 1.0}, {-1: 0.5, 0: 0.5}])
    def test_fresh_from_sparse_mapping_refused(self, sparse):
        with pytest.raises(InvalidDistributionError, match="not 0.."):
            VariableRegistry().fresh(sparse)

    def test_fresh_boolean(self):
        registry = VariableRegistry()
        var = registry.fresh_boolean(0.3)
        assert registry.probability(var, 1) == pytest.approx(0.3)
        assert registry.probability(var, 0) == pytest.approx(0.7)

    def test_ids_are_unique_and_positive(self):
        registry = VariableRegistry()
        ids = [registry.fresh([1.0]) for _ in range(10)]
        assert len(set(ids)) == 10
        assert all(i > 0 for i in ids)

    def test_names(self):
        registry = VariableRegistry()
        var = registry.fresh([1.0], name="x_custom")
        assert registry.name(var) == "x_custom"
        anon = registry.fresh([1.0])
        assert registry.name(anon) == f"x{anon}"

    def test_top_variable_reserved(self):
        registry = VariableRegistry()
        assert TOP_VARIABLE in registry
        assert registry.probability(TOP_VARIABLE, 0) == 1.0
        assert len(registry) == 0  # top doesn't count


class TestValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistributionError):
            VariableRegistry().fresh([1.2, -0.2])

    def test_sum_not_one_rejected(self):
        with pytest.raises(InvalidDistributionError):
            VariableRegistry().fresh([0.5, 0.4])

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            VariableRegistry().fresh([])

    def test_zero_probability_alternative_allowed(self):
        registry = VariableRegistry()
        var = registry.fresh([0.0, 1.0])
        assert registry.probability(var, 0) == 0.0

    def test_boolean_probability_range(self):
        with pytest.raises(InvalidDistributionError):
            VariableRegistry().fresh_boolean(1.5)

    def test_unknown_variable(self):
        registry = VariableRegistry()
        with pytest.raises(VariableError):
            registry.domain(42)

    def test_probability_outside_domain_is_zero(self):
        registry = VariableRegistry()
        var = registry.fresh([0.5, 0.5])
        assert registry.probability(var, 7) == 0.0


class TestWholeRegistry:
    def test_world_count(self):
        registry = VariableRegistry()
        registry.fresh([0.5, 0.5])
        registry.fresh([0.2, 0.3, 0.5])
        assert registry.world_count() == 6

    def test_world_count_skips_zero_probability(self):
        registry = VariableRegistry()
        registry.fresh([0.0, 1.0])
        assert registry.world_count() == 1

    def test_copy_is_independent(self):
        registry = VariableRegistry()
        registry.fresh([1.0])
        clone = registry.copy()
        clone.fresh([1.0])
        assert len(clone) == 2
        assert len(registry) == 1

    def test_assignment_probability(self):
        registry = VariableRegistry()
        a = registry.fresh([0.5, 0.5])
        b = registry.fresh([0.25, 0.75])
        assert registry.assignment_probability({a: 0, b: 1}) == pytest.approx(0.375)


class TestSampling:
    def test_sample_value_in_domain(self):
        registry = VariableRegistry()
        var = registry.fresh([0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5])
        rng = random.Random(1)
        for _ in range(50):
            assert registry.sample_value(var, rng) in (3, 8)

    def test_sample_respects_point_mass(self):
        registry = VariableRegistry()
        var = registry.fresh([0.0, 0.0, 0.0, 0.0, 1.0])
        rng = random.Random(1)
        assert all(registry.sample_value(var, rng) == 4 for _ in range(20))

    def test_sample_frequency_approximates_distribution(self):
        registry = VariableRegistry()
        var = registry.fresh([0.2, 0.8])
        rng = random.Random(7)
        draws = [registry.sample_value(var, rng) for _ in range(20000)]
        assert draws.count(1) / len(draws) == pytest.approx(0.8, abs=0.02)

    def test_sample_assignment_honours_fixed(self):
        registry = VariableRegistry()
        a = registry.fresh([0.5, 0.5])
        b = registry.fresh([0.5, 0.5])
        rng = random.Random(3)
        assignment = registry.sample_assignment(rng, fixed={a: 1})
        assert assignment[a] == 1
        assert b in assignment

    @given(st.integers(2, 6))
    def test_distribution_returns_copy(self, size):
        registry = VariableRegistry()
        var = registry.fresh([1.0 / size] * size)
        dist = registry.distribution(var)
        dist[0] = 99.0
        assert registry.probability(var, 0) == pytest.approx(1.0 / size)


def _chances(width, salt):
    weights = [float((salt + i) % 5 + 1) for i in range(width)]
    total = sum(weights)
    return [w / total for w in weights]


class TestArrays:
    """The bulk gather against the scalar reads and the chances put in."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gather_equals_scalar_reads(self, data):
        registry = VariableRegistry()
        reference = {TOP_VARIABLE: [1.0]}
        for salt, width in enumerate(
            data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        ):
            reference[registry.fresh(_chances(width, salt))] = _chances(width, salt)
        durable = sorted(reference)
        scope = registry.scope()
        widths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
        laid = [_chances(width, salt + 7) for salt, width in enumerate(widths)]
        start = scope.mint(widths, [p for chances in laid for p in chances])
        minted = list(range(start, start + len(widths)))
        reference.update(zip(minted, laid))
        promoted = data.draw(st.lists(st.sampled_from(minted), unique=True))
        for var, name, distribution in registry.minted(promoted):
            registry.promote(var, distribution, name)
        rolled_back = (
            data.draw(st.lists(st.sampled_from(promoted), unique=True))
            if promoted
            else []
        )
        for var in rolled_back:
            registry.unregister(var)
        stored = durable + [var for var in promoted if var not in rolled_back]
        restored = VariableRegistry()
        restored.restore_state(registry.dump_state())

        for reader, known in (
            (registry, stored),
            (scope, durable + minted),
            (restored, stored),
        ):
            pairs = data.draw(
                st.lists(st.tuples(st.sampled_from(known), st.integers(-2, 5)))
            )
            variables = np.array([var for var, _ in pairs], dtype=np.int64)
            values = np.array([value for _, value in pairs], dtype=np.int64)
            expected = [
                reference[var][value] if 0 <= value < len(reference[var]) else 0.0
                for var, value in pairs
            ]
            assert [reader.probability(v, d) for v, d in pairs] == expected
            assert reader.probabilities(variables, values).tolist() == expected
            unknown = sorted(set(range(registry.durable._next_id + 1)) - set(known))
            with pytest.raises(VariableError, match=f"unknown variable id {unknown[0]}"):
                reader.probabilities(
                    np.append(variables, unknown), np.zeros(len(pairs) + len(unknown))
                )

    def test_gather_keeps_the_shape(self):
        registry = VariableRegistry()
        a, b = registry.fresh([0.25, 0.75]), registry.fresh([0.5, 0.5])
        out = registry.probabilities(np.array([[a, b], [b, 0]]), np.array([[1, 0], [2, 0]]))
        assert out.tolist() == [[0.75, 0.5], [0.0, 1.0]]

    def test_no_gather_is_torn_while_minting_and_promoting(self):
        """One thread mints into scopes and promotes (the durable arrays
        grow and are replaced many times); another gathers the variables
        being promoted and every one already promoted: each read is either
        unknown (not promoted yet) or exactly the chances put in."""
        registry = VariableRegistry()
        promoting = [0]
        published = []
        done = threading.Event()
        failures = []

        def chance(var):
            return (var % 97) / 97.0

        def writer():
            try:
                for _ in range(300):
                    scope = registry.scope()
                    ps = [chance(scope.durable._next_id + i) for i in range(7)]
                    start = scope.mint([2] * 7, [q for p in ps for q in (1.0 - p, p)])
                    for var in range(start, start + 7):
                        promoting[:] = [var]
                        p = chance(var)
                        registry.promote(var, {0: 1.0 - p, 1: p}, f"v{var}")
                        published.append(var)
            finally:
                done.set()

        def reader():
            while not done.is_set():
                for var in promoting[:] * 64:
                    try:
                        got = registry.probabilities([var], [1])
                    except VariableError:
                        continue
                    if got[0] != chance(var):
                        failures.append((var, got[0]))
                ids = np.array(published[-64:] + published[:64], dtype=np.int64)
                got = registry.probabilities(ids, np.ones(len(ids), dtype=np.int64))
                if not (got == [chance(var) for var in ids.tolist()]).all():
                    failures.append((ids, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(published) == 300 * 7
        assert not failures


class TestBulkRestore:
    GOOD = [1, "a", [[0, 0.5], [1, 0.5]]]

    def test_restore_state_round_trips(self):
        registry = VariableRegistry()
        registry.fresh([0.2, 0.3, 0.5], name="three")
        registry.fresh_boolean(0.25)
        restored = VariableRegistry()
        restored.restore_state(registry.dump_state())
        assert restored.dump_state() == registry.dump_state()
        assert restored.fresh([1.0]) == registry.fresh([1.0])

    @pytest.mark.parametrize(
        "bad",
        [
            [[0, 0.7], [1, 0.7]],
            [[0, 1.5], [1, -0.5]],
            [[0, float("nan")], [1, 1.0]],
            [[0, 0.5], [2, 0.5]],
            [],
        ],
        ids=["sum", "negative", "nan", "sparse", "empty"],
    )
    def test_bad_distribution_refused_like_a_single_restore(self, bad):
        state = {
            "next_id": 4,
            "variables": [self.GOOD, [2, "b", bad], [3, "c", [[0, 1.0]]]],
        }
        registry = VariableRegistry()
        with pytest.raises(InvalidDistributionError) as bulk:
            registry.restore_state(state)
        with pytest.raises(InvalidDistributionError) as single:
            VariableRegistry().restore(2, bad)
        assert str(bulk.value) == str(single.value)
        assert len(registry) == 0
        assert registry.fresh([1.0]) == 1  # the frontier did not move

    def test_top_variable_refused(self):
        with pytest.raises(VariableError):
            VariableRegistry().restore_state(
                {"next_id": 1, "variables": [[0, "t", [[0, 1.0]]]]}
            )
