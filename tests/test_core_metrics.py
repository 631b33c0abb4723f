"""Unit and property tests for the degrees-of-decoupling metrics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import (
    DegreePoint,
    DegreeSweep,
    anonymity_bits,
    anonymity_set_size,
    entropy_bits,
    normalized_entropy,
    uniformity_l1_distance,
)
from repro.scenario import run_scenario


class TestEntropy:
    def test_uniform_distribution_hits_log2_n(self):
        assert entropy_bits([1, 1, 1, 1]) == pytest.approx(2.0)

    def test_point_mass_has_zero_entropy(self):
        assert entropy_bits({"a": 1.0}) == 0.0

    def test_accepts_counts_not_just_probabilities(self):
        assert entropy_bits([10, 10]) == pytest.approx(1.0)

    def test_empty_and_zero_distributions(self):
        assert entropy_bits([]) == 0.0
        assert entropy_bits([0, 0]) == 0.0

    def test_degenerate_mappings_are_defined(self):
        assert entropy_bits({}) == 0.0
        assert entropy_bits({"a": 0.0, "b": 0.0}) == 0.0
        assert not math.isnan(entropy_bits({"a": 0.0}))

    def test_denormal_weight_does_not_raise(self):
        # 5e-324 / 2.0 underflows to exactly 0.0; log2(0.0) must not fire.
        assert entropy_bits({"a": 5e-324, "b": 2.0}) == pytest.approx(0.0)

    def test_negative_weights_are_ignored(self):
        assert entropy_bits({"a": -1.0, "b": 2.0}) == 0.0
        assert entropy_bits([-1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_normalized_entropy_degenerate_inputs(self):
        assert normalized_entropy([]) == 0.0
        assert normalized_entropy([0, 0]) == 0.0
        assert normalized_entropy({"a": 1.0}) == 0.0
        assert normalized_entropy({}) == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=10))
    def test_entropy_bounded_by_log2_n(self, weights):
        assert 0 <= entropy_bits(weights) <= math.log2(len(weights)) + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=2, max_size=10))
    def test_normalized_entropy_in_unit_interval(self, weights):
        assert 0 <= normalized_entropy(weights) <= 1 + 1e-9

    def test_normalized_entropy_of_uniform_is_one(self):
        assert normalized_entropy([5, 5, 5]) == pytest.approx(1.0)


class TestUniformity:
    def test_perfectly_even_counts_have_zero_distance(self):
        assert uniformity_l1_distance({"a": 3, "b": 3, "c": 3}) == pytest.approx(0.0)

    def test_all_mass_on_one_is_worst_case(self):
        distance = uniformity_l1_distance({"a": 9, "b": 0, "c": 0})
        assert distance == pytest.approx(2 * (1 - 1 / 3))

    def test_empty_counts(self):
        assert uniformity_l1_distance({}) == 0.0


class TestAnonymitySet:
    def test_counts_distinct_candidates(self):
        assert anonymity_set_size(["u1", "u2", "u1"]) == 2

    def test_degenerate_populations_are_defined(self):
        assert anonymity_set_size([]) == 0
        assert anonymity_set_size(["only"]) == 1

    def test_anonymity_bits_of_sizes(self):
        assert anonymity_bits(8) == pytest.approx(3.0)
        assert anonymity_bits(1) == 0.0
        assert anonymity_bits(0) == 0.0

    def test_anonymity_bits_of_candidate_iterables(self):
        assert anonymity_bits(["u1", "u2", "u1", "u3", "u4"]) == pytest.approx(2.0)
        assert anonymity_bits([]) == 0.0
        assert anonymity_bits(["only"]) == 0.0

    def test_mixnet_run_uses_core_helpers(self):
        run = run_scenario("mixnet", mixes=2, senders=4)
        assert run.anonymity_set_size() == min(
            4, run.mixes[0].batch_size
        )
        assert run.anonymity_bits() == anonymity_bits(run.anonymity_set_size())


class TestDegreeSweep:
    def _sweep(self, resistances, latencies):
        sweep = DegreeSweep(name="test")
        for degree, (resistance, latency) in enumerate(
            zip(resistances, latencies), start=1
        ):
            sweep.add(
                DegreePoint(
                    degree=degree,
                    collusion_resistance=resistance,
                    latency=latency,
                )
            )
        return sweep

    def test_monotone_checks_pass_for_well_behaved_sweep(self):
        sweep = self._sweep([1, 2, 3], [0.1, 0.2, 0.3])
        assert sweep.privacy_is_monotone()
        assert sweep.cost_is_monotone()
        assert sweep.has_diminishing_returns()

    def test_privacy_regression_detected(self):
        sweep = self._sweep([2, 1, 3], [0.1, 0.2, 0.3])
        assert not sweep.privacy_is_monotone()

    def test_cost_regression_detected(self):
        sweep = self._sweep([1, 2, 3], [0.3, 0.2, 0.1])
        assert not sweep.cost_is_monotone()

    def test_accelerating_returns_detected(self):
        sweep = self._sweep([1, 2, 5], [0.1, 0.2, 0.3])
        assert not sweep.has_diminishing_returns()

    def test_render_has_one_row_per_degree(self):
        sweep = self._sweep([1, 2], [0.1, 0.2])
        lines = sweep.render().splitlines()
        assert len(lines) == 4  # name + header + 2 rows

    def test_privacy_per_cost(self):
        point = DegreePoint(degree=1, collusion_resistance=4, latency=2.0)
        assert point.privacy_per_cost() == pytest.approx(2.0)
        free = DegreePoint(degree=1, collusion_resistance=4, latency=0.0)
        assert free.privacy_per_cost() == math.inf
