"""Unit tests for the observation ledger and entities/world."""

import pytest

from repro.core.entities import Entity, Organization, World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.ledger import Ledger
from repro.core.values import LabeledValue, Sealed, Subject

ALICE = Subject("alice")
BOB = Subject("bob")


def _value(payload="p", label=SENSITIVE_DATA, subject=ALICE):
    return LabeledValue(payload=payload, label=label, subject=subject, description="v")


class TestLedger:
    def test_record_and_iterate(self):
        ledger = Ledger()
        ledger.record("E", "org", _value(), time=1.0, channel="c", session="s")
        assert len(ledger) == 1
        (obs,) = list(ledger)
        assert obs.entity == "E" and obs.session == "s" and obs.time == 1.0

    def test_entities_and_subjects_preserve_first_seen_order(self):
        ledger = Ledger()
        ledger.record("B", "org", _value(subject=BOB))
        ledger.record("A", "org", _value(subject=ALICE))
        ledger.record("B", "org", _value(subject=ALICE))
        assert ledger.entities() == ("B", "A")
        assert ledger.subjects() == (BOB, ALICE)

    def test_labels_of_filters_by_subject_and_channel(self):
        ledger = Ledger()
        ledger.record("E", "org", _value(label=SENSITIVE_IDENTITY), channel="wire")
        ledger.record("E", "org", _value(subject=BOB), channel="message")
        assert ledger.labels_of("E", ALICE) == {SENSITIVE_IDENTITY}
        assert ledger.labels_of("E", BOB) == {SENSITIVE_DATA}

    def test_merged_orders_by_time(self):
        a, b = Ledger(), Ledger()
        a.record("E", "org", _value(), time=2.0)
        b.record("F", "org", _value(), time=1.0)
        merged = a.merged(b)
        assert [o.time for o in merged] == [1.0, 2.0]

    def test_by_queries(self):
        ledger = Ledger()
        ledger.record("E", "org1", _value())
        ledger.record("F", "org2", _value(subject=BOB))
        assert len(ledger.by_entity("E")) == 1
        assert len(ledger.by_organization("org2")) == 1
        assert len(ledger.by_subject(BOB)) == 1

    def test_clear(self):
        ledger = Ledger()
        ledger.record("E", "org", _value())
        ledger.clear()
        assert len(ledger) == 0


class TestWorld:
    def test_entity_creation_and_lookup(self):
        world = World()
        entity = world.entity("Mix", "mix-org")
        assert world.get("Mix") is entity
        with pytest.raises(KeyError):
            world.get("nonexistent")

    def test_duplicate_entity_names_rejected(self):
        world = World()
        world.entity("Mix", "org")
        with pytest.raises(ValueError):
            world.entity("Mix", "other-org")

    def test_organization_reuse_is_consistent(self):
        world = World()
        a = world.entity("A", "shared-org")
        b = world.entity("B", "shared-org")
        assert a.organization is b.organization
        with pytest.raises(ValueError):
            world.organization("shared-org", trusted_by_user=True)

    def test_user_split(self):
        world = World()
        world.entity("User", "device", trusted_by_user=True)
        world.entity("Server", "org")
        assert [e.name for e in world.user_entities()] == ["User"]
        assert [e.name for e in world.non_user_entities()] == ["Server"]


class TestEntityObservation:
    def test_observe_respects_keyring(self):
        world = World()
        entity = world.entity("E", "org")
        envelope = Sealed.wrap("k", [_value()])
        entity.observe(envelope)
        assert world.ledger.labels_of("E") == {NONSENSITIVE_DATA}
        entity.grant_key("k")
        entity.observe(envelope)
        assert SENSITIVE_DATA in world.ledger.labels_of("E")

    def test_revoke_key(self):
        world = World()
        entity = world.entity("E", "org", keys=["k"])
        entity.revoke_key("k")
        entity.observe(Sealed.wrap("k", [_value()]))
        assert world.ledger.labels_of("E") == {NONSENSITIVE_DATA}

    def test_unseal_requires_key(self):
        world = World()
        entity = world.entity("E", "org")
        envelope = Sealed.wrap("k", [_value()])
        with pytest.raises(PermissionError):
            entity.unseal(envelope)
        entity.grant_key("k")
        (inner,) = entity.unseal(envelope)
        assert inner.payload == "p"

    def test_visible_values_does_not_record(self):
        world = World()
        entity = world.entity("E", "org")
        values = entity.visible_values(_value())
        assert len(values) == 1
        assert len(world.ledger) == 0
