"""Round-trip tests for ledger serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.core.labels import (
    Facet,
    Kind,
    Label,
    PARTIAL_SENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_HUMAN_IDENTITY,
    SENSITIVE_IDENTITY,
    Sensitivity,
)
from repro.core.ledger import Ledger
from repro.core.serialize import (
    label_from_dict,
    label_to_dict,
    ledger_from_jsonl,
    ledger_to_dicts,
    ledger_to_jsonl,
    observation_from_dict,
    observation_to_dict,
)
from repro.core.values import LabeledValue, ShareInfo, Subject
from repro.scenario import run_scenario

ALICE = Subject("alice")

_label_strategy = st.builds(
    Label,
    kind=st.sampled_from(list(Kind)),
    sensitivity=st.sampled_from(list(Sensitivity)),
    facet=st.just(Facet.GENERIC),
    partial=st.just(False),
)


class TestLabelRoundtrip:
    @given(_label_strategy)
    def test_generic_labels_roundtrip(self, label):
        assert label_from_dict(label_to_dict(label)) == label

    def test_special_labels_roundtrip(self):
        for label in (
            PARTIAL_SENSITIVE_DATA,
            SENSITIVE_HUMAN_IDENTITY,
            SENSITIVE_IDENTITY,
        ):
            assert label_from_dict(label_to_dict(label)) == label


class TestObservationRoundtrip:
    def _ledger(self):
        ledger = Ledger()
        ledger.record(
            "Mix 1",
            "mix-org",
            LabeledValue("payload", SENSITIVE_DATA, ALICE, "query",
                         provenance=("a", "b")),
            time=1.25,
            channel="wire",
            session="pkt:7",
            packet_id=7,
        )
        ledger.record(
            "Agg",
            "agg-org",
            LabeledValue(
                17,
                SENSITIVE_DATA.downgraded(),
                ALICE,
                "share",
                share_info=ShareInfo(group="g", index=1, total=3),
            ),
        )
        return ledger

    def test_dict_roundtrip_preserves_everything(self):
        ledger = self._ledger()
        rows = ledger_to_dicts(ledger)
        for original, row in zip(ledger, rows):
            assert observation_from_dict(row) == original

    def test_jsonl_roundtrip(self):
        ledger = self._ledger()
        restored = ledger_from_jsonl(ledger_to_jsonl(ledger))
        assert list(restored) == list(ledger)

    def test_jsonl_is_one_line_per_observation(self):
        text = ledger_to_jsonl(self._ledger())
        assert len(text.splitlines()) == 2

    def test_restored_ledger_supports_analysis_queries(self):
        restored = ledger_from_jsonl(ledger_to_jsonl(self._ledger()))
        assert restored.labels_of("Mix 1") == {SENSITIVE_DATA}
        assert restored.subjects() == (ALICE,)

    def test_empty_ledger(self):
        assert list(ledger_from_jsonl(ledger_to_jsonl(Ledger()))) == []

    def test_packet_id_roundtrips_and_is_omitted_for_local_acts(self):
        ledger = self._ledger()
        rows = ledger_to_dicts(ledger)
        assert rows[0]["packet_id"] == 7
        assert "packet_id" not in rows[1]  # local act: no packet
        restored = list(ledger_from_jsonl(ledger_to_jsonl(ledger)))
        assert restored[0].packet_id == 7
        assert restored[1].packet_id is None


class TestAuditReportSerialization:
    def test_audit_report_to_dict_carries_grade(self):
        from repro.core.audit import audit
        from repro.core.serialize import audit_report_to_dict

        run = run_scenario("digital-cash", coins=1)
        report = audit(run.world, title="digital cash")
        data = audit_report_to_dict(report)
        assert data["title"] == "digital cash"
        assert data["grade"] == report.grade
        assert data["grade"] in ("strong", "decoupled", "coupled")
        assert data["decoupled"] == report.verdict.decoupled
        assert isinstance(data["coalitions"], list)
        breach_orgs = {b["organization"] for b in data["breaches"]}
        assert breach_orgs == {b.organization for b in report.breaches}

    def test_coupled_run_grades_coupled_with_violations(self):
        from repro.core.audit import audit
        from repro.core.serialize import audit_report_to_dict

        data = audit_report_to_dict(audit(run_scenario("vpn").world, title="vpn"))
        assert data["grade"] == "coupled"
        assert data["decoupled"] is False
        assert data["violations"], "coupled run must name its violations"
        violation = data["violations"][0]
        assert {"entity", "organization", "subject", "cell"} <= set(violation)


class TestAnalyzerOnRestoredLedger:
    def test_verdict_survives_serialization(self):
        """A run's ledger, serialized and restored, yields the same verdict."""
        from repro.core.analysis import DecouplingAnalyzer

        run = run_scenario("digital-cash", coins=1)
        original = run.analyzer.verdict().decoupled
        restored_ledger = ledger_from_jsonl(ledger_to_jsonl(run.world.ledger))
        run.world.ledger.clear()
        run.world.ledger.ingest(restored_ledger)
        assert DecouplingAnalyzer(run.world).verdict().decoupled == original
