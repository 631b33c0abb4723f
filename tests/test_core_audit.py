"""Tests for the one-call audit report."""

import pytest

from repro.core import audit
from repro.scenario import run_scenario


class TestGrades:
    def test_strong_grade_for_blind_signatures(self):
        run = run_scenario("digital-cash", coins=1)
        report = audit(run.world, "digital cash")
        assert report.grade == "strong"
        assert report.verdict.decoupled
        assert report.coalitions == ()

    def test_decoupled_grade_for_mpr(self):
        run = run_scenario("mpr", relays=2, requests=1)
        report = audit(run.world, "multi-party relay")
        assert report.grade == "decoupled"
        assert report.coalitions

    def test_coupled_grade_for_vpn(self):
        run = run_scenario("vpn", requests=1)
        report = audit(run.world, "vpn")
        assert report.grade == "coupled"


class TestRendering:
    def test_text_render_contains_every_section(self):
        run = run_scenario("mpr", relays=2, requests=1)
        report = audit(
            run.world, "mpr", entities=["User", "Relay 1", "Relay 2", "Origin"]
        )
        text = report.render()
        assert "Decoupling audit: mpr" in text
        assert "(▲, ●)" in text
        assert "Minimal re-coupling coalitions" in text
        assert "breach-proof" in text
        assert "Grade: DECOUPLED" in text
        assert "What User learned" in text

    def test_markdown_render(self):
        run = run_scenario("vpn", requests=1)
        report = audit(run.world, "vpn")
        markdown = report.to_markdown()
        assert markdown.startswith("## Decoupling audit: vpn")
        assert "| organization | breach exposure |" in markdown
        assert "exposes users" in markdown

    def test_narration_can_be_disabled(self):
        run = run_scenario("vpn", requests=1)
        report = audit(run.world, "vpn", narrate=False)
        assert report.narrations == ()
        assert "learned" not in report.render()

    def test_tee_trust_note_appears(self):
        run = run_scenario("phoenix", requests=1)
        report = audit(
            run.world, "phoenix",
            entities=["Client", "CDN Operator", "CDN Enclave"],
        )
        assert not report.verdict.decoupled
        assert report.verdict_trusting_attested.decoupled
        assert "attested TEEs are trusted" in report.render()


def test_audit_grade_agrees_with_risk_and_harness_on_every_spec():
    """The three callers of ``audit_grade`` give every registered run
    the same grade: its audit, its risk report and, for the paper's
    experiments, the harness's table summary."""
    from repro import harness
    from repro.risk import score_run
    from repro.scenario import all_specs, run_scenario

    table_grades = {s.experiment_id: s.grade for s in harness.table_summaries()}
    for spec in all_specs():
        run = run_scenario(spec.id)
        grade = run.audit(narrate=False).grade
        assert grade == score_run(run).grade, spec.id
        if spec.experiment_id:
            assert grade == table_grades[spec.experiment_id], spec.id
