"""Unit tests for labeled values, sealed envelopes, and the walker."""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.values import (
    Aggregate,
    LabeledValue,
    Sealed,
    ShareInfo,
    Subject,
    collect_values,
    digest,
)

ALICE = Subject("alice")


def _value(payload="secret", label=SENSITIVE_DATA, description="d"):
    return LabeledValue(payload=payload, label=label, subject=ALICE, description=description)


class TestLabeledValue:
    def test_derived_extends_provenance(self):
        original = _value()
        derived = original.derived("other", step="transform")
        assert derived.provenance == ("transform",)
        assert derived.subject == ALICE
        assert derived.label == original.label

    def test_blinded_downgrades(self):
        blinded = _value().blinded(12345)
        assert blinded.label == NONSENSITIVE_DATA
        assert "blind" in blinded.provenance

    def test_pseudonym_is_nonsensitive_identity(self):
        identity = _value(label=SENSITIVE_IDENTITY)
        pseudonym = identity.pseudonym("tok-1")
        assert pseudonym.label == NONSENSITIVE_IDENTITY

    def test_uids_are_unique(self):
        assert _value().uid != _value().uid

    def test_str_shows_glyph_and_subject(self):
        assert "●" in str(_value())
        assert "alice" in str(_value())


class TestSealed:
    def test_wrap_builds_opaque_exterior_with_subject(self):
        envelope = Sealed.wrap("k1", [_value()])
        assert envelope.exterior is not None
        assert envelope.exterior.label == NONSENSITIVE_DATA
        assert envelope.exterior.subject == ALICE

    def test_wrap_subject_override(self):
        bob = Subject("bob")
        envelope = Sealed.wrap("k1", [_value()], subject=bob)
        assert envelope.exterior.subject == bob

    def test_wrap_of_nothing_labeled_gets_placeholder_subject(self):
        envelope = Sealed.wrap("k1", ["just bytes"])
        assert envelope.exterior.subject == Subject("nobody")

    def test_wrap_exterior_extends_inner_provenance(self):
        """Regression: sealing must not drop the inner derivation chain.

        An observer of the ciphertext should still see how the enclosed
        value was produced -- the provenance graph relies on the
        exterior carrying ``inner + ("seal",)``.
        """
        inner = _value().derived("encoded", step="encode")
        envelope = Sealed.wrap("k1", [inner])
        assert envelope.exterior.provenance == ("encode", "seal")

    def test_wrap_of_unlabeled_contents_starts_fresh_seal_chain(self):
        envelope = Sealed.wrap("k1", ["just bytes"])
        assert envelope.exterior.provenance == ("seal",)

    def test_nested_wrap_accumulates_seal_steps(self):
        inner = Sealed.wrap("k2", [_value().derived("x", step="encode")])
        outer = Sealed.wrap("k1", [inner])
        assert outer.exterior.provenance == ("encode", "seal", "seal")


class TestWalkValues:
    def test_without_key_only_exterior_is_visible(self):
        envelope = Sealed.wrap("k1", [_value()])
        seen = collect_values(envelope, set())
        assert [v.label for v in seen] == [NONSENSITIVE_DATA]

    def test_with_key_exterior_and_interior_are_visible(self):
        envelope = Sealed.wrap("k1", [_value()])
        labels = {v.label for v in collect_values(envelope, {"k1"})}
        assert labels == {NONSENSITIVE_DATA, SENSITIVE_DATA}

    def test_nested_envelopes_stop_at_missing_key(self):
        inner = Sealed.wrap("k2", [_value()])
        outer = Sealed.wrap("k1", [inner])
        seen = collect_values(outer, {"k1"})
        # outer exterior + inner exterior, never the secret
        assert all(v.label == NONSENSITIVE_DATA for v in seen)
        assert len(seen) == 2

    def test_full_keyring_reaches_the_core(self):
        inner = Sealed.wrap("k2", [_value()])
        outer = Sealed.wrap("k1", [inner])
        labels = [v.label for v in collect_values(outer, {"k1", "k2"})]
        assert SENSITIVE_DATA in labels

    def test_walks_containers_and_dataclasses(self):
        @dataclass(frozen=True)
        class Message:
            body: LabeledValue
            note: str

        item = {"x": [Message(body=_value(), note="n")], "y": (1, 2)}
        seen = collect_values(item, set())
        assert len(seen) == 1 and seen[0].label == SENSITIVE_DATA

    def test_bare_payloads_yield_nothing(self):
        assert collect_values("string", set()) == []
        assert collect_values(42, set()) == []
        assert collect_values(None, set()) == []

    def test_aggregate_yields_one_nonsensitive_item_per_contributor(self):
        agg = Aggregate(payload=17, contributors=(ALICE, Subject("bob")))
        seen = collect_values(agg, set())
        assert len(seen) == 2
        assert all(v.label == NONSENSITIVE_DATA for v in seen)
        assert {v.subject for v in seen} == {ALICE, Subject("bob")}

    def test_aggregate_exterior_extends_contribution_provenance(self):
        """Regression: aggregation must not drop the contributions' chain."""
        agg = Aggregate(
            payload=17,
            contributors=(ALICE,),
            provenance=("measurement", "share"),
        )
        (exterior,) = agg.exterior_values()
        assert exterior.provenance == ("measurement", "share", "aggregate")

    def test_aggregate_without_provenance_yields_bare_aggregate_step(self):
        agg = Aggregate(payload=17, contributors=(ALICE,))
        (exterior,) = agg.exterior_values()
        assert exterior.provenance == ("aggregate",)


class TestShareInfo:
    def test_share_info_travels_on_the_value(self):
        share = LabeledValue(
            payload=7,
            label=NONSENSITIVE_DATA,
            subject=ALICE,
            share_info=ShareInfo(group="g", index=0, total=2),
        )
        (seen,) = collect_values(share, set())
        assert seen.share_info.group == "g"


class TestDigest:
    def test_digest_is_stable_and_short(self):
        assert digest("abc") == digest("abc")
        assert len(digest("abc")) == 16

    @given(st.one_of(st.text(), st.integers(), st.binary()))
    def test_digest_handles_arbitrary_payloads(self, payload):
        assert isinstance(digest(payload), str)

    def test_distinct_payloads_get_distinct_digests(self):
        assert digest("a") != digest("b")
