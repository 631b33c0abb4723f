"""What the analyzer's queries build: probes, kernel builds, gates, cells.

The equivalence suites pin what the analyzer answers; these tests pin
how little it builds to answer:

* ``collusion_resistance()`` walks one subject's rows to an upper
  bound, then probes only coalitions one size below it (coupling is
  monotone in the coalition, so a size at which no coalition re-couples
  rules out every smaller one);
* the verdict dismisses entities that hold one side only before any
  pair gate, yet an entity holding ▲ and secret shares still reaches
  the kernel;
* ``table()`` builds each distinct knowledge cell once.

Every answer is also checked against an oracle: the smallest minimal
coalition, the full-scan ``tests/analyzer_reference.py`` verdict, or a
cell built per entity.
"""

import itertools

import pytest

from analyzer_reference import ReferenceAnalyzer
from repro.core import analysis
from repro.core.analysis import DecouplingAnalyzer
from repro.core.ledger import Ledger
from repro.core.labels import NONSENSITIVE_DATA, SENSITIVE_DATA, SENSITIVE_IDENTITY
from repro.core.tuples import cell_from_labels
from repro.core.values import LabeledValue, ShareInfo, Subject
from repro.faults import FaultPlan, LinkFault
from repro.population.workload import (
    PROXY_ENTITY,
    PROXY_ORG,
    TARGET_ENTITY,
    TARGET_ORG,
    build_scale_world,
)
from repro.scenario import run_scenario


def _lossy_mixnet(senders: int):
    """A ``mixnet`` run under the benchmark's ``mixnet-lossy`` fault plan."""
    plan = FaultPlan(
        seed=7,
        links=(
            LinkFault(src="sender-[1-9]*", loss=0.05),
            LinkFault(duplicate=0.02, reorder=0.05, jitter=0.002),
        ),
    )
    return run_scenario("mixnet", seed=7, senders=senders, batch_size=10, faults=plan)


@pytest.fixture(scope="module")
def lossy_mixnet():
    return _lossy_mixnet(200)


def _count_builds(monkeypatch, query):
    """``query()``'s answer and the number of kernel builds it made."""
    builds = []
    linkage_init = analysis._Linkage.__init__

    def counted_build(self, *args, **kwargs):
        builds.append(None)
        linkage_init(self, *args, **kwargs)

    monkeypatch.setattr(analysis._Linkage, "__init__", counted_build)
    answer = query()
    monkeypatch.undo()
    return answer, len(builds)


def _traced_resistance(monkeypatch, analyzer):
    """``collusion_resistance()`` with its probes split into the bound
    walk's and the descent's, each as (coalition, answer)."""
    bound_walk, descent = [], []
    probing = [descent]
    probe = DecouplingAnalyzer._probe
    smallest_for = DecouplingAnalyzer._smallest_for

    def counted_probe(self, orgs, oids, sids):
        answer = probe(self, orgs, oids, sids)
        probing[0].append((orgs, answer))
        return answer

    def counted_walk(self, *args):
        probing[0] = bound_walk
        try:
            return smallest_for(self, *args)
        finally:
            probing[0] = descent

    monkeypatch.setattr(DecouplingAnalyzer, "_probe", counted_probe)
    monkeypatch.setattr(DecouplingAnalyzer, "_smallest_for", counted_walk)
    resistance, builds = _count_builds(monkeypatch, analyzer.collusion_resistance)
    return resistance, builds, bound_walk, descent


def _assert_one_size_below_the_bound(resistance, bound_walk, descent):
    # The walk ends at its first coupling coalition, which bounds the
    # answer; here the bound is the answer.
    assert bound_walk and bound_walk[-1][1]
    assert not any(answer for _, answer in bound_walk[:-1])
    assert len(bound_walk[-1][0]) == resistance
    # After the bound, only coalitions one size smaller are probed,
    # and none of them re-couples.
    assert descent
    assert {len(coalition) for coalition, _ in descent} == {resistance - 1}
    assert not any(answer for _, answer in descent)


def test_collusion_resistance_probes_one_size_below_its_bound(monkeypatch):
    """On a 2,000-query ``odns`` run the bound walk stops at a
    re-coupling pair and the descent probes the single organizations:
    2 kernel builds, and the answer is the smallest minimal coalition's
    size."""
    run = run_scenario("odns", queries=2000)
    resistance, builds, bound_walk, descent = _traced_resistance(
        monkeypatch, DecouplingAnalyzer(run.world)
    )
    assert resistance == 2
    _assert_one_size_below_the_bound(resistance, bound_walk, descent)
    assert builds == 2
    coalitions = DecouplingAnalyzer(run.world).minimal_recoupling_coalitions()
    assert bound_walk[-1][0] in coalitions
    assert resistance == min(len(coalition) for coalition in coalitions)


def test_lossy_mixnet_builds_fewer_kernels_than_a_smallest_first_walk(
    monkeypatch, lossy_mixnet
):
    """Resistance 4 is the organization count, so a smallest-first walk
    probes every smaller coalition for every subject; the bound and the
    descent probe only the size-3 coalitions."""
    world = lossy_mixnet.world
    walked = DecouplingAnalyzer(world)

    def smallest_first():
        organizations = walked.non_user_organizations()
        for size in range(1, len(organizations) + 1):
            for combo in itertools.combinations(organizations, size):
                if walked.coalition_couples(combo):
                    return size
        return len(organizations) + 1

    walk_answer, walk_builds = _count_builds(monkeypatch, smallest_first)
    resistance, builds, bound_walk, descent = _traced_resistance(
        monkeypatch, DecouplingAnalyzer(world)
    )
    assert resistance == walk_answer == 4
    _assert_one_size_below_the_bound(resistance, bound_walk, descent)
    assert builds < walk_builds


def _record_arrivals(ledger: Ledger, first: int, count: int) -> None:
    """Arrivals of the scale topology: the proxy sees (▲, ⊙), the target
    (⊙, ●), linked by the ciphertext."""
    for index in range(first, first + count):
        subject = Subject(f"user-{index % 7}")
        ciphertext = f"ct-{index}"
        ledger.record_fast(
            PROXY_ENTITY,
            PROXY_ORG,
            [
                LabeledValue(f"ip-{index}", SENSITIVE_IDENTITY, subject, "client address"),
                LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
            ],
            session=f"px-{index}",
        )
        ledger.record_fast(
            TARGET_ENTITY,
            TARGET_ORG,
            [
                LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
                LabeledValue(f"q-{index}", SENSITIVE_DATA, subject, "decrypted query"),
            ],
            session=f"tg-{index}",
        )


def _count_pair_gates(monkeypatch, query):
    """``query()``'s answer and the number of pair-gate evaluations."""
    gates = []
    is_candidate = Ledger._is_candidate

    def counted_gate(self, *args):
        gates.append(args)
        return is_candidate(self, *args)

    monkeypatch.setattr(Ledger, "_is_candidate", counted_gate)
    answer = query()
    monkeypatch.undo()
    return answer, len(gates)


def test_one_sided_entities_reach_no_pair_gate(monkeypatch):
    """The proxy holds identities and no data, the target data and no
    identities: neither the prime nor the incremental verdict gates a
    single (entity, subject) pair."""
    world = build_scale_world()
    world.ledger.configure_segments(rows=16)
    analyzer = DecouplingAnalyzer(world)
    _record_arrivals(world.ledger, 0, 20)
    verdict, gates = _count_pair_gates(monkeypatch, analyzer.verdict)
    assert verdict.decoupled and gates == 0
    _record_arrivals(world.ledger, 20, 20)
    analyzer._sync()
    assert analyzer._pending  # the next verdict is the incremental pass
    verdict, gates = _count_pair_gates(monkeypatch, analyzer.verdict)
    assert verdict.decoupled and gates == 0
    assert str(verdict) == str(ReferenceAnalyzer(world).verdict())


def _share(subject: Subject, index: int) -> LabeledValue:
    return LabeledValue(
        f"share-{index}",
        NONSENSITIVE_DATA,
        subject,
        "secret share",
        share_info=ShareInfo(group="g", index=index, total=2),
    )


@pytest.mark.parametrize("primed", [False, True], ids=["prime", "incremental"])
def test_identity_and_shares_without_data_still_reach_the_kernel(monkeypatch, primed):
    """The Prio shape: an aggregator holding ▲ and every share of a
    group, but no ●, reconstructs the data.  The entity gate counts the
    shares, so both verdict passes reach the kernel and report it."""
    world = build_scale_world()
    ledger = world.ledger
    alice = Subject("alice")
    analyzer = DecouplingAnalyzer(world)
    ledger.record_fast(
        TARGET_ENTITY,
        TARGET_ORG,
        [LabeledValue("ip-1", SENSITIVE_IDENTITY, alice, "client address"), _share(alice, 0)],
        session="s1",
    )
    if primed:
        assert analyzer.verdict().decoupled
    ledger.record_fast(TARGET_ENTITY, TARGET_ORG, [_share(alice, 1)], session="s2")
    verdict, builds = _count_builds(monkeypatch, analyzer.verdict)
    assert builds == 1
    assert not verdict.decoupled
    assert str(verdict) == str(ReferenceAnalyzer(world).verdict())


def test_table_builds_each_distinct_cell_once(monkeypatch, lossy_mixnet):
    """A table over every entity of a 200-sender lossy ``mixnet`` run
    holds a handful of distinct cells; each is built once, and the
    table equals one built cell by cell."""
    world = lossy_mixnet.world
    analyzer = DecouplingAnalyzer(world)
    built = []

    def counted_cell(labels, facets):
        built.append(None)
        return cell_from_labels(labels, facets)

    monkeypatch.setattr(analysis, "cell_from_labels", counted_cell)
    table = analyzer.table()
    monkeypatch.undo()
    distinct = set(table.rows.values())
    assert len(table.rows) > 200
    assert len(built) <= len(distinct) < 10
    facets = analyzer.facets()
    expected = {
        name: cell_from_labels(world.ledger.labels_of(name), facets)
        for name in table.rows
    }
    assert table.rows == expected
    assert table.render() == type(table)(rows=expected, facets=facets).render()
