"""Unit and property tests for the linkage-based decoupling analyzer."""

import pytest
from hypothesis import given, strategies as st

from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.values import LabeledValue, Sealed, ShareInfo, Subject

ALICE = Subject("alice")


def _identity(payload="ip-1"):
    return LabeledValue(payload, SENSITIVE_IDENTITY, ALICE, "ip")


def _data(payload="query-1"):
    return LabeledValue(payload, SENSITIVE_DATA, ALICE, "query")


def _world_with(*entity_names, user=True):
    world = World()
    if user:
        world.entity("User", "device", trusted_by_user=True)
    for name in entity_names:
        world.entity(name, f"org-{name}")
    return world


class TestEntityCoupling:
    def test_same_session_couples(self):
        world = _world_with("Server")
        world.get("Server").observe([_identity(), _data()], session="pkt:1")
        analyzer = DecouplingAnalyzer(world)
        assert analyzer.entity_couples("Server", ALICE)
        assert not analyzer.verdict().decoupled

    def test_different_sessions_no_shared_value_do_not_couple(self):
        world = _world_with("Server")
        server = world.get("Server")
        server.observe(_identity(), session="pkt:1")
        server.observe(_data(), session="pkt:2")
        analyzer = DecouplingAnalyzer(world)
        assert not analyzer.entity_couples("Server", ALICE)
        assert analyzer.verdict().decoupled

    def test_shared_pseudonym_bridges_sessions(self):
        world = _world_with("Server")
        server = world.get("Server")
        handle = LabeledValue("token-9", NONSENSITIVE_IDENTITY, ALICE, "token")
        server.observe([_identity(), handle], session="pkt:1")
        server.observe([handle, _data()], session="pkt:2")
        analyzer = DecouplingAnalyzer(world)
        assert analyzer.entity_couples("Server", ALICE)

    def test_user_coupling_is_not_a_violation(self):
        world = _world_with()
        world.get("User").observe([_identity(), _data()], session="self")
        assert DecouplingAnalyzer(world).verdict().decoupled

    def test_violation_reports_entity_and_cell(self):
        world = _world_with("Server")
        world.get("Server").observe([_identity(), _data()], session="pkt:1")
        verdict = DecouplingAnalyzer(world).verdict()
        (violation,) = verdict.violations
        assert violation.entity == "Server"
        assert violation.cell.render() == "(▲, ●)"
        assert "Server" in str(verdict)


class TestCoalitions:
    def _split_world(self):
        """A sees identity + ciphertext; B opens the same ciphertext."""
        world = _world_with("A", "B")
        envelope = Sealed.wrap("kb", [_data()])
        world.get("A").observe([_identity(), envelope], session="pkt:1")
        world.get("B").grant_key("kb")
        world.get("B").observe(envelope, session="pkt:2")
        return world

    def test_ciphertext_digest_bridges_organizations(self):
        analyzer = DecouplingAnalyzer(self._split_world())
        assert not analyzer.coalition_couples(["org-A"])
        assert not analyzer.coalition_couples(["org-B"])
        assert analyzer.coalition_couples(["org-A", "org-B"])

    def test_minimal_coalitions_and_resistance(self):
        analyzer = DecouplingAnalyzer(self._split_world())
        assert analyzer.minimal_recoupling_coalitions() == (
            frozenset({"org-A", "org-B"}),
        )
        assert analyzer.collusion_resistance() == 2

    def test_unlinkable_worlds_resist_all_coalitions(self):
        world = _world_with("A", "B")
        world.get("A").observe(_identity(), session="pkt:1")
        world.get("B").observe(_data(), session="pkt:2")
        analyzer = DecouplingAnalyzer(world)
        assert analyzer.minimal_recoupling_coalitions() == ()
        # resistance = number of non-user orgs + 1 (unreachable)
        assert analyzer.collusion_resistance() == 3

    def test_coalition_coupling_is_monotone_in_membership(self):
        analyzer = DecouplingAnalyzer(self._split_world())
        assert analyzer.coalition_couples(["org-A", "org-B", "org-nonexistent"])

    def test_resistance_per_subject(self):
        """``collusion_resistance(subject=...)`` counts one subject's
        pooled rows: alice re-couples at A alone, bob only with B."""
        world = self._split_world()
        bob = Subject("bob")
        world.get("A").observe(
            [
                LabeledValue("ip-2", SENSITIVE_IDENTITY, bob, "ip"),
                LabeledValue("ct-2", NONSENSITIVE_DATA, bob, "ciphertext"),
            ],
            session="pkt:3",
        )
        world.get("A").observe(_data("query-9"), session="pkt:1")
        world.get("B").observe(
            [LabeledValue("ct-2", NONSENSITIVE_DATA, bob, "ciphertext"),
             LabeledValue("query-2", SENSITIVE_DATA, bob, "query")],
            session="pkt:4",
        )
        analyzer = DecouplingAnalyzer(world)
        assert analyzer.collusion_resistance(subject=ALICE) == 1
        assert analyzer.collusion_resistance(subject=bob) == 2
        assert analyzer.collusion_resistance(subject=bob, max_size=1) == 3
        assert analyzer.collusion_resistance(subject=Subject("carol")) == 3
        assert analyzer.collusion_resistance() == 1


class TestShareReconstruction:
    def _share(self, index, total, group="g1"):
        return LabeledValue(
            payload=1000 + index,
            label=NONSENSITIVE_DATA,
            subject=ALICE,
            description="share",
            share_info=ShareInfo(group=group, index=index, total=total),
        )

    def test_all_shares_in_one_entity_couple_with_identity(self):
        world = _world_with("S")
        entity = world.get("S")
        entity.observe([_identity(), self._share(0, 2)], session="pkt:1")
        entity.observe([_identity("ip-1"), self._share(1, 2)], session="pkt:2")
        assert DecouplingAnalyzer(world).entity_couples("S", ALICE)

    def test_missing_share_does_not_reconstruct(self):
        world = _world_with("S")
        entity = world.get("S")
        entity.observe([_identity(), self._share(0, 3)], session="pkt:1")
        entity.observe([_identity("ip-1"), self._share(1, 3)], session="pkt:2")
        assert not DecouplingAnalyzer(world).entity_couples("S", ALICE)

    def test_shares_across_coalition_reconstruct(self):
        world = _world_with("A", "B")
        world.get("A").observe([_identity(), self._share(0, 2)], session="pkt:1")
        world.get("B").observe([_identity("ip-1"), self._share(1, 2)], session="pkt:2")
        analyzer = DecouplingAnalyzer(world)
        assert not analyzer.coalition_couples(["org-A"])
        assert analyzer.coalition_couples(["org-A", "org-B"])


class TestBreach:
    def test_breach_report_fields(self):
        world = _world_with("Server")
        world.get("Server").observe([_identity(), _data()], session="pkt:1")
        report = DecouplingAnalyzer(world).breach("org-Server")
        assert report.subjects_identified == (ALICE,)
        assert report.subjects_with_sensitive_data == (ALICE,)
        assert not report.breach_proof

    def test_decoupled_org_is_breach_proof(self):
        world = _world_with("Proxy")
        world.get("Proxy").observe(
            [_identity(), Sealed.wrap("k", [_data()])], session="pkt:1"
        )
        report = DecouplingAnalyzer(world).breach("org-Proxy")
        assert report.breach_proof
        assert report.subjects_identified == (ALICE,)
        assert report.subjects_with_sensitive_data == ()

    def test_breach_reports_cover_all_non_user_orgs(self):
        world = _world_with("A", "B")
        world.get("A").observe(_identity(), session="s")
        world.get("B").observe(_data(), session="t")
        reports = DecouplingAnalyzer(world).breach_reports()
        assert {r.organization for r in reports} == {"org-A", "org-B"}


class TestPropertyMonotonicity:
    @given(st.lists(st.sampled_from(["id", "data", "both"]), min_size=1, max_size=6))
    def test_observing_more_never_uncouples(self, extra):
        """Coupling is monotone: extra observations never remove it."""
        world = _world_with("S")
        entity = world.get("S")
        entity.observe([_identity(), _data()], session="pkt:0")
        analyzer = DecouplingAnalyzer(world)
        assert analyzer.entity_couples("S", ALICE)
        for index, kind in enumerate(extra):
            items = {
                "id": [_identity(f"ip-{index}")],
                "data": [_data(f"q-{index}")],
                "both": [_identity(f"ip-{index}"), _data(f"q-{index}")],
            }[kind]
            entity.observe(items, session=f"pkt:{index + 1}")
            assert analyzer.entity_couples("S", ALICE)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=4),
    )
    def test_partial_share_sets_never_couple(self, total, have_fewer):
        """Any proper subset of shares reveals nothing."""
        world = _world_with("S")
        entity = world.get("S")
        count = min(have_fewer, total - 1)
        for index in range(count):
            share = LabeledValue(
                payload=index,
                label=NONSENSITIVE_DATA,
                subject=ALICE,
                description="share",
                share_info=ShareInfo(group="g", index=index, total=total),
            )
            entity.observe([_identity(f"ip-{index}"), share], session=f"pkt:{index}")
        assert not DecouplingAnalyzer(world).entity_couples("S", ALICE)
