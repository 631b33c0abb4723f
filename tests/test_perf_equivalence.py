"""Indexed-analyzer equivalence: the analyzer must equal a full scan.

The indexed ledger and the memoized analyzer exist only for speed;
their contract is that every derived fact -- verdicts, breach reports,
knowledge tables, coalitions -- is *identical* to what the full-scan
test oracle (``tests/analyzer_reference.py``) derives with none of
their machinery, not even the coupling kernel.  These tests check that
on seeded randomized ledgers that exercise every linkage feature
(sessions, shared digests, secret shares, identity facets, channels),
and that memoized results invalidate correctly when observations are
appended after a query.
"""

import itertools
import random

import pytest

from analyzer_reference import ReferenceAnalyzer
from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    PARTIAL_SENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_HUMAN_IDENTITY,
    SENSITIVE_IDENTITY,
    SENSITIVE_NETWORK_IDENTITY,
)
from repro.core.tuples import facets_in_ledger
from repro.core.values import LabeledValue, ShareInfo, Subject

_LABELS = (
    SENSITIVE_IDENTITY,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    PARTIAL_SENSITIVE_DATA,
    NONSENSITIVE_DATA,
    SENSITIVE_HUMAN_IDENTITY,
    SENSITIVE_NETWORK_IDENTITY,
)

_CHANNELS = ("message", "wire", "attestation", "breach")


def _random_world(seed, entities=5, subjects=6, observations=120):
    """A randomized ledger touching every linkage feature.

    Payload collisions (shared value digests), shared sessions, and
    secret-share groups are all drawn with enough probability that the
    coupling analysis sees reconstructions and cross-entity joins.
    """
    rng = random.Random(seed)
    world = World()
    world.entity("User", "user-device", trusted_by_user=True)
    cast = [world.entity(f"E{i}", f"org-{i % max(entities - 1, 1)}") for i in range(entities)]
    subject_pool = [Subject(f"s{i}") for i in range(subjects)]
    for index in range(observations):
        entity = rng.choice(cast)
        subject = rng.choice(subject_pool)
        label = rng.choice(_LABELS)
        share_info = None
        if label is NONSENSITIVE_DATA and rng.random() < 0.25:
            group = f"grp-{rng.randrange(4)}"
            share_info = ShareInfo(group=group, index=rng.randrange(3), total=3)
        # A small payload space makes digest collisions (cross-entity
        # linkage through a shared value) common on purpose.
        value = LabeledValue(
            payload=f"v{rng.randrange(20)}",
            label=label,
            subject=subject,
            description=f"d{rng.randrange(8)}",
            share_info=share_info,
        )
        entity.observe(
            value,
            time=float(index),
            channel=rng.choice(_CHANNELS),
            session=f"sess-{rng.randrange(25)}" if rng.random() < 0.7 else "",
        )
    return world


def _assert_equivalent(world):
    indexed = DecouplingAnalyzer(world)
    reference = ReferenceAnalyzer(world)
    assert indexed.facets() == reference.facets()
    assert indexed.verdict() == reference.verdict()
    assert indexed.verdict(trust_attested=True) == reference.verdict(
        trust_attested=True
    )
    assert indexed.breach_reports() == reference.breach_reports()
    assert indexed.table().render() == reference.table().render()
    assert (
        indexed.minimal_recoupling_coalitions()
        == reference.minimal_recoupling_coalitions()
    )
    assert indexed.collusion_resistance() == reference.collusion_resistance()
    organizations = reference.non_user_organizations()
    coalitions = [
        combo for size in (1, 2) for combo in itertools.combinations(organizations, size)
    ]
    for subject in world.ledger.subjects():
        for entity in world.ledger.entities():
            assert indexed.entity_couples(entity, subject) == reference.entity_couples(
                entity, subject
            ), (entity, subject)
        for coalition in coalitions:
            assert indexed.coalition_couples(
                coalition, subject
            ) == reference.coalition_couples(coalition, subject), (coalition, subject)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_indexed_matches_naive(self, seed):
        """The analyzer equals the full-scan oracle on one seeded ledger."""
        _assert_equivalent(_random_world(seed))

    def test_many_entities_few_subjects(self):
        _assert_equivalent(_random_world(101, entities=12, subjects=2))

    def test_few_entities_many_subjects(self):
        _assert_equivalent(_random_world(202, entities=2, subjects=15))

    def test_empty_ledger(self):
        world = World()
        world.entity("User", "user-device", trusted_by_user=True)
        world.entity("Server", "server-org")
        _assert_equivalent(world)

    def test_facets_in_ledger_naive_flag_matches(self):
        """The ledger's identity-facet summary against a full scan."""
        world = _random_world(303)
        assert facets_in_ledger(world.ledger) == ReferenceAnalyzer(world).facets()


class TestLedgerIndices:
    def test_index_accessors_match_scans(self):
        world = _random_world(7)
        ledger = world.ledger
        all_obs = list(ledger)
        for entity in ledger.entities():
            assert list(ledger.by_entity(entity)) == [
                o for o in all_obs if o.entity == entity
            ]
        for subject in ledger.subjects():
            assert list(ledger.by_subject(subject)) == [
                o for o in all_obs if o.subject == subject
            ]
        for entity in ledger.entities():
            for subject in ledger.subjects():
                assert list(ledger.by_pair(entity, subject)) == [
                    o for o in all_obs if o.entity == entity and o.subject == subject
                ]
        orgs = {o.organization for o in all_obs}
        for org in orgs:
            for subject in ledger.subjects():
                assert list(ledger.by_org_subject(org, subject)) == [
                    o
                    for o in all_obs
                    if o.organization == org and o.subject == subject
                ]

    def test_subjects_of_entity_preserves_global_order(self):
        world = _random_world(11)
        ledger = world.ledger
        for entity in ledger.entities():
            expected = [
                s
                for s in ledger.subjects()
                if any(o.subject == s for o in ledger.by_entity(entity))
            ]
            assert list(ledger.subjects_of_entity(entity)) == expected

    def test_version_counts_mutations(self):
        world = _random_world(13, observations=17)
        assert world.ledger.version == 17
        world.ledger.clear()
        assert world.ledger.version == 18
        assert world.ledger.subjects() == ()
        assert world.ledger.entities() == ()

    def test_merged_ledger_is_fully_indexed(self):
        a, b = _random_world(21, observations=30), _random_world(22, observations=30)
        merged = a.ledger.merged(b.ledger)
        assert len(merged) == 60
        for entity in merged.entities():
            assert list(merged.by_entity(entity)) == [
                o for o in merged if o.entity == entity
            ]
        assert merged.identity_facets() == (
            a.ledger.identity_facets() | b.ledger.identity_facets()
        )

    def test_labels_of_matches_scan(self):
        """The per-entity and per-pair label summaries against a scan."""
        world = _random_world(31)
        ledger = world.ledger
        for entity in ledger.entities():
            assert ledger.labels_of(entity) == {
                o.label for o in ledger if o.entity == entity
            }
            for subject in ledger.subjects():
                assert ledger.labels_of(entity, subject) == {
                    o.label
                    for o in ledger
                    if o.entity == entity and o.subject == subject
                }


class TestMemoInvalidation:
    def test_append_after_memoized_query_invalidates(self):
        """Recording after a query must flip the memoized answer."""
        world = World()
        world.entity("User", "user-device", trusted_by_user=True)
        server = world.entity("Server", "server-org")
        alice = Subject("alice")
        analyzer = DecouplingAnalyzer(world)

        server.observe(
            LabeledValue("1.2.3.4", SENSITIVE_IDENTITY, alice, "ip"),
            channel="wire",
            session="sess-1",
        )
        assert not analyzer.entity_couples("Server", alice)
        assert analyzer.verdict().decoupled

        # Same session as the identity above: this couples.
        server.observe(
            LabeledValue("secret-query", SENSITIVE_DATA, alice, "query"),
            channel="wire",
            session="sess-1",
        )
        assert analyzer.entity_couples("Server", alice)
        verdict = analyzer.verdict()
        assert not verdict.decoupled
        assert verdict == ReferenceAnalyzer(world).verdict()

    def test_facets_memo_invalidates_on_append(self):
        world = World()
        world.entity("User", "user-device", trusted_by_user=True)
        server = world.entity("Server", "server-org")
        alice = Subject("alice")
        analyzer = DecouplingAnalyzer(world)
        server.observe(LabeledValue("x", SENSITIVE_IDENTITY, alice, "ip"))
        first = analyzer.facets()
        server.observe(LabeledValue("imsi", SENSITIVE_NETWORK_IDENTITY, alice, "imsi"))
        assert analyzer.facets() != first
        assert analyzer.facets() == ReferenceAnalyzer(world).facets()

    def test_breach_reports_track_appends(self):
        world = _random_world(41, observations=40)
        analyzer = DecouplingAnalyzer(world)
        before = analyzer.breach_reports()
        entity = next(iter(world.non_user_entities()))
        entity.observe(
            LabeledValue("late-ip", SENSITIVE_IDENTITY, Subject("s0"), "ip"),
            time=999.0,
            session="late-sess",
        )
        entity.observe(
            LabeledValue("late-query", SENSITIVE_DATA, Subject("s0"), "query"),
            time=999.5,
            session="late-sess",
        )
        after = analyzer.breach_reports()
        assert after != before
        assert after == ReferenceAnalyzer(world).breach_reports()


class TestObservationHashing:
    def test_cached_hash_matches_field_tuple_semantics(self):
        world = _random_world(51, observations=10)
        for obs in world.ledger:
            assert hash(obs) == hash(obs)
        # Equal observations (same fields) hash equal.
        a = list(world.ledger)[0]
        import dataclasses

        b = dataclasses.replace(a)
        assert a == b
        assert hash(a) == hash(b)
