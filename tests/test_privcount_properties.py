"""Property battery for the PrivCount scenario's cryptographic claims.

Three families of proof obligations:

1. **Exactness** -- counter shares recombine to the exact count mod q,
   and the full protocol's blinding cancels: sum of blinded registers
   plus sum of share-keeper blinding sums equals the true total.
2. **Secrecy** -- any strict subset of share keepers holds values
   statistically independent of the true count: the same subset of
   shares is consistent with *every* possible count, and the subset's
   distribution does not move when the count changes (seeded
   uniformity check).
3. **Calibration** -- the Laplace noise the tally adds has exactly the
   scale the statistic's declared sensitivity and epsilon allocation
   demand, and empirical draws match that scale.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.secretshare import (
    COUNTER_MODULUS,
    combine_shares,
    share_counter,
)
from repro.privcount import (
    DEFAULT_EPSILON,
    STATISTICS,
    epsilon_allocation,
    laplace_scale,
    sample_laplace,
    statistics_for,
)
from repro.scenario import run_scenario

counts = st.integers(min_value=0, max_value=COUNTER_MODULUS - 1)
party_counts = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestExactRecombination:
    @given(counts, party_counts, seeds)
    def test_all_shares_recombine_exactly(self, value, parties, seed):
        shares = share_counter(value, parties, rng=random.Random(seed))
        assert combine_shares(shares) == value % COUNTER_MODULUS

    @given(
        st.lists(counts, min_size=1, max_size=6), party_counts, seeds
    )
    def test_blinding_cancels_across_registers(self, values, parties, seed):
        """The protocol identity the tally relies on: the sum of the
        collectors' blinded registers plus the sum of every keeper's
        blinding sum reconstructs the exact total."""
        rng = random.Random(seed)
        keeper_sums = [0] * (parties - 1)
        blinded_total = 0
        for value in values:
            shares = share_counter(value, parties, rng=rng)
            blinded_total = (blinded_total + shares[-1]) % COUNTER_MODULUS
            for keeper, share in enumerate(shares[:-1]):
                keeper_sums[keeper] = (
                    keeper_sums[keeper] + share
                ) % COUNTER_MODULUS
        reconstructed = combine_shares([blinded_total] + keeper_sums)
        assert reconstructed == sum(values) % COUNTER_MODULUS


class TestStrictSubsetSecrecy:
    @given(counts, counts, party_counts, seeds)
    def test_subset_is_independent_of_the_count(
        self, value_a, value_b, parties, seed
    ):
        """The first ``parties - 1`` shares are drawn before the value
        enters the arithmetic, so two different counts shared under the
        same rng state yield *identical* keeper shares -- the keepers'
        view carries zero information about the count."""
        shares_a = share_counter(value_a, parties, rng=random.Random(seed))
        shares_b = share_counter(value_b, parties, rng=random.Random(seed))
        assert shares_a[:-1] == shares_b[:-1]

    @given(counts, party_counts, seeds)
    def test_any_strict_subset_is_forgeable(self, value, parties, seed):
        """Every strict subset of shares is consistent with every
        possible count: pick any target, and one forged balancing share
        completes the subset to it."""
        shares = share_counter(value, parties, rng=random.Random(seed))
        drop = seed % parties  # any single missing share will do
        subset = shares[:drop] + shares[drop + 1 :]
        target = (value + 1 + seed) % COUNTER_MODULUS
        forged = (target - sum(subset)) % COUNTER_MODULUS
        assert combine_shares(subset + [forged]) == target

    def test_keeper_shares_are_uniform(self):
        """Seeded frequency check: keeper shares of a *constant* count
        spread uniformly over a small modulus (chi-squared well under
        the df + 4*sqrt(2*df) red line for 16 bins)."""
        modulus, draws = 16, 4096
        rng = random.Random(20221114)
        bins = [0] * modulus
        for _ in range(draws):
            shares = share_counter(7, 3, modulus=modulus, rng=rng)
            bins[shares[0]] += 1
        expected = draws / modulus
        chi2 = sum((b - expected) ** 2 / expected for b in bins)
        assert chi2 < (modulus - 1) + 4 * math.sqrt(2 * (modulus - 1))


class TestNoiseCalibration:
    def test_allocation_splits_the_budget(self):
        allocation = epsilon_allocation(STATISTICS, DEFAULT_EPSILON)
        assert sum(allocation.values()) == pytest.approx(DEFAULT_EPSILON)
        assert len(set(allocation.values())) == 1

    @given(
        st.integers(min_value=1, max_value=len(STATISTICS)),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_scale_is_sensitivity_over_epsilon(self, count, epsilon):
        statistics = statistics_for(count)
        allocation = epsilon_allocation(statistics, epsilon)
        for statistic in statistics:
            scale = laplace_scale(statistic, allocation[statistic.name])
            assert scale == pytest.approx(
                statistic.sensitivity * count / epsilon
            )

    def test_run_reports_declared_scales(self):
        """The scenario's published noise scales are exactly the
        per-statistic sensitivity over the per-statistic epsilon."""
        run = run_scenario("privcount")
        statistics = statistics_for(len(run.noise_scales))
        allocation = epsilon_allocation(statistics, DEFAULT_EPSILON)
        for statistic in statistics:
            assert run.noise_scales[statistic.name] == pytest.approx(
                laplace_scale(statistic, allocation[statistic.name])
            )

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.5, max_value=50.0), seeds)
    def test_empirical_scale_matches(self, scale, seed):
        """Mean |draw| of Laplace(0, b) is b; 4000 seeded draws land
        within 15% -- loose enough to never flake, tight enough to
        catch a mis-sized mechanism (e.g. b/2 or 2b)."""
        rng = random.Random(seed)
        draws = 4000
        mean_abs = sum(abs(sample_laplace(scale, rng)) for _ in range(draws))
        mean_abs /= draws
        assert mean_abs == pytest.approx(scale, rel=0.15)

    def test_zero_scale_is_exact(self):
        assert sample_laplace(0.0, random.Random(1)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_laplace(-1.0)
        with pytest.raises(ValueError):
            laplace_scale(STATISTICS[0], 0.0)
        with pytest.raises(ValueError):
            statistics_for(0)
        with pytest.raises(ValueError):
            epsilon_allocation([], 1.0)


class TestEndToEndExactness:
    """The full scenario, fault-free: published = exact + noise, and
    exact equals the ground-truth event counts."""

    def test_exact_totals_match_ground_truth(self):
        run = run_scenario("privcount")
        assert run.reconstructed
        assert run.exact_totals == run.true_totals
        for name, published in run.published.items():
            assert published is not None
            # Noise is integer-rounded onto the exact total.
            assert isinstance(published, int)

    def test_sharded_exactness(self):
        run = run_scenario("privcount-sharded")
        assert run.reconstructed
        assert run.exact_totals == run.true_totals
