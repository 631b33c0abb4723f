"""D4: DNS query striping across resolvers (section 5.1).

"A user can improve DNS privacy by distributing their queries across
multiple resolvers, thereby limiting the information available about a
given user at each."

Sweep resolver count 1..8 under round-robin striping over a workload of
distinct names; measure the best-informed resolver's share of queries
and of distinct names.  Expected shape: per-resolver knowledge ~1/n,
monotonically decreasing; hash (sticky) striping trades knowledge
concentration for cache friendliness.  Both run the harness's one
striping world (:func:`repro.harness.striping_stub`), which differs
only in the policy.
"""

from repro.dns.striping import HashPolicy
from repro.harness import STRIPING_NAMES, striping_stub, sweep_striping


def test_d4_striping_sweep(benchmark):
    series = benchmark(sweep_striping)
    shares = [row["max_query_share"] for row in series]
    coverages = [row["max_name_coverage"] for row in series]

    # One resolver sees everything; knowledge falls as 1/n.
    assert shares[0] == 1.0 and coverages[0] == 1.0
    for row in series:
        assert row["max_query_share"] == 1.0 / row["resolvers"]
    assert shares == sorted(shares, reverse=True)
    assert coverages == sorted(coverages, reverse=True)

    # Load entropy grows toward log2(n) -- even distribution.
    entropies = [row["load_entropy_bits"] for row in series]
    assert entropies == sorted(entropies)
    assert all(row["imbalance"] < 1e-9 for row in series)

    benchmark.extra_info["series"] = series


def test_d4_hash_striping_concentrates_per_name(benchmark):
    stub = benchmark(lambda: striping_stub(4, HashPolicy()))
    # Sticky hashing still spreads *names*, but any one name's queries
    # all land on one resolver (coverage below 1, share above 1/n is
    # possible depending on the hash).
    assert stub.max_name_coverage(len(STRIPING_NAMES)) < 1.0
    assert sum(stub.queries_by_resolver.values()) == len(STRIPING_NAMES)
