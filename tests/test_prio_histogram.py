"""Tests for Prio histogram (one-hot vector) aggregation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.secretshare import (
    check_histogram_shares,
    make_histogram_proof,
    reconstruct_additive,
)
from repro.ppm import PAPER_TABLE_T7
from repro.scenario import run_scenario


class TestHistogramProofs:
    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=10)
    def test_honest_one_hot_passes(self, bucket, parties):
        proofs = make_histogram_proof(bucket, 4, parties, rng=random.Random(1))
        assert check_histogram_shares(proofs)

    def test_shares_reconstruct_the_one_hot_vector(self):
        proofs = make_histogram_proof(2, 4, 3, rng=random.Random(2))
        for entry_index in range(4):
            value = reconstruct_additive(
                [p.entries[entry_index].x_share for p in proofs]
            )
            assert value == (1 if entry_index == 2 else 0)

    def test_two_hot_vector_fails_the_sum_check(self):
        """Forge: combine entries from two different one-hot proofs."""
        a = make_histogram_proof(0, 3, 2, rng=random.Random(3))
        b = make_histogram_proof(1, 3, 2, rng=random.Random(4))
        from repro.crypto.secretshare import HistogramProof

        forged = [
            HistogramProof(
                entries=(a[i].entries[0], b[i].entries[1], a[i].entries[2])
            )
            for i in range(2)
        ]
        assert not check_histogram_shares(forged)

    def test_out_of_range_bucket_rejected(self):
        with pytest.raises(ValueError):
            make_histogram_proof(5, 4, 2)

    def test_inconsistent_widths_rejected(self):
        a = make_histogram_proof(0, 3, 2, rng=random.Random(5))
        b = make_histogram_proof(0, 4, 2, rng=random.Random(6))
        with pytest.raises(ValueError):
            check_histogram_shares([a[0], b[1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_histogram_shares([])


class TestHistogramProtocol:
    @pytest.fixture(scope="class")
    def run(self):
        return run_scenario("prio-histogram", clients=6, aggregators=2, buckets=4)

    def test_histogram_is_exact(self, run):
        assert run.reported_histogram == run.true_histogram
        assert sum(run.reported_histogram) == run.clients

    def test_table_still_matches_the_paper(self, run):
        assert run.table().as_mapping() == PAPER_TABLE_T7

    def test_decoupled_and_aggregate_only(self, run):
        assert run.analyzer.verdict().decoupled
        assert not run.collector_sees_individual_values()

    def test_collusion_still_needs_all_aggregators(self, run):
        (coalition,) = run.analyzer.minimal_recoupling_coalitions()
        assert coalition == frozenset({"aggregator-org-1", "aggregator-org-2"})

    def test_three_aggregators(self):
        run = run_scenario("prio-histogram", clients=5, aggregators=3, buckets=3)
        assert run.reported_histogram == run.true_histogram
        assert run.analyzer.collusion_resistance() == 3
