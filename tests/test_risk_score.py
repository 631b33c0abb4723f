"""Unit tests for the graded-risk subsystem: profiles, scores, reports."""

import json

import pytest

from repro import obs
from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.values import LabeledValue, Subject
from repro.risk import (
    DEFAULT_PROFILE,
    ProfileError,
    RiskError,
    SensitivityProfile,
    inferability_rung,
    score_run,
    subject_linkability,
)
from repro.risk.score import (
    INFER_CO_RESIDENT,
    INFER_COUPLED,
    INFER_NONE,
    INFER_ONE_SIDED,
)
from repro.scenario import all_specs, run_scenario
import risk_reference

ALICE = Subject("alice")
BOB = Subject("bob")


def _identity(subject=ALICE, payload="ip-1"):
    return LabeledValue(payload, SENSITIVE_IDENTITY, subject, "source ip")


def _data(subject=ALICE, payload="query-1"):
    return LabeledValue(payload, SENSITIVE_DATA, subject, "dns query")


def _world_with(*entity_names, user=True):
    world = World()
    if user:
        world.entity("User", "device", trusted_by_user=True)
    for name in entity_names:
        world.entity(name, f"org-{name}")
    return world


class TestSensitivityProfile:
    def test_default_round_trips_through_json(self):
        restored = SensitivityProfile.from_json(DEFAULT_PROFILE.to_json())
        assert restored.to_dict() == DEFAULT_PROFILE.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ProfileError, match="unknown profile keys"):
            SensitivityProfile.from_dict({"name": "x", "weights": {}})

    def test_unknown_glyph_rejected(self):
        with pytest.raises(ProfileError, match="unknown glyph"):
            SensitivityProfile(glyph_weights={"?": 1.0})

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ProfileError, match=r"\[0, 1\]"):
            SensitivityProfile(glyph_weights={"▲": 1.5})

    def test_component_weights_must_sum_to_one(self):
        with pytest.raises(ProfileError, match="sum to 1.0"):
            SensitivityProfile(
                component_weights={
                    "sensitivity": 0.5,
                    "linkability": 0.5,
                    "inferability": 0.5,
                }
            )

    def test_component_weights_must_cover_exactly_three(self):
        with pytest.raises(ProfileError, match="cover exactly"):
            SensitivityProfile(component_weights={"sensitivity": 1.0})

    def test_bad_json_rejected(self):
        with pytest.raises(ProfileError, match="not valid JSON"):
            SensitivityProfile.from_json("{nope")

    def test_description_override_beats_glyph_weight(self):
        profile = SensitivityProfile(
            description_overrides=(("imsi", 1.0), ("ip", 0.9)),
        )
        label = NONSENSITIVE_DATA
        assert profile.weight_for(label, "subscriber IMSI digest") == 1.0
        # First match wins even when a later pattern also matches.
        assert profile.weight_for(label, "imsi-derived ip hint") == 1.0
        # No override match falls back to the glyph weight.
        assert profile.weight_for(label, "padding") == pytest.approx(
            DEFAULT_PROFILE.weight_for(label)
        )

    def test_override_matching_is_case_insensitive(self):
        profile = SensitivityProfile(description_overrides=(("IMSI", 0.7),))
        assert profile.weight_for(NONSENSITIVE_DATA, "imsi tail") == 0.7

    def test_missing_glyph_falls_back_to_defaults(self):
        profile = SensitivityProfile(glyph_weights={"▲": 0.4})
        assert profile.weight_for(SENSITIVE_IDENTITY) == 0.4
        assert profile.weight_for(SENSITIVE_DATA) == pytest.approx(
            DEFAULT_PROFILE.weight_for(SENSITIVE_DATA)
        )

    def test_override_must_be_non_empty_string(self):
        with pytest.raises(ProfileError, match="non-empty string"):
            SensitivityProfile(description_overrides=(("", 0.5),))


class TestLinkability:
    def test_uniform_crowd_of_k_scores_one_over_k(self):
        population = {f"u{i}": 1.0 for i in range(8)}
        assert subject_linkability(population, "u0") == pytest.approx(1 / 8)

    def test_singleton_and_empty_populations_score_one(self):
        assert subject_linkability({"alice": 1.0}, "alice") == 1.0
        assert subject_linkability({}, "alice") == 1.0

    def test_zero_weights_are_ignored(self):
        assert subject_linkability({"alice": 1.0, "ghost": 0.0}, "alice") == 1.0

    def test_heavier_prior_raises_linkability(self):
        skewed = subject_linkability({"alice": 3.0, "bob": 1.0}, "alice")
        uniform = subject_linkability({"alice": 1.0, "bob": 1.0}, "alice")
        assert skewed > uniform

    def test_absent_subject_gets_zero_prior(self):
        population = {"a": 1.0, "b": 1.0}
        inside = subject_linkability(population, "a")
        outside = subject_linkability(population, "stranger")
        assert outside < inside


class TestInferabilityRung:
    def test_ladder_values(self):
        assert inferability_rung(False, False, False) == INFER_NONE
        assert inferability_rung(True, False, False) == INFER_ONE_SIDED
        assert inferability_rung(False, True, False) == INFER_ONE_SIDED
        assert inferability_rung(True, True, False) == INFER_CO_RESIDENT
        assert inferability_rung(True, True, True) == INFER_COUPLED


class TestScoreRun:
    def _coupled_report(self):
        world = _world_with("Server")
        world.get("Server").observe([_identity(), _data()], session="pkt:1")
        return score_run(world=world)

    def test_decomposition_sums_exactly_to_score(self):
        report = self._coupled_report()
        for pair in report.pairs:
            assert sum(t.value for t in pair.terms) == pair.score

    def test_pair_score_equals_max_cell_score(self):
        report = self._coupled_report()
        for pair in report.pairs:
            cell_scores = [
                c.score
                for c in report.cells
                if c.entity == pair.entity and c.subject == pair.subject
            ]
            assert max(cell_scores) == pair.score

    def test_coupled_vantage_scores_higher_than_split_one(self):
        coupled = self._coupled_report()
        world = _world_with("Server")
        server = world.get("Server")
        server.observe(_identity(), session="pkt:1")
        server.observe(_data(), session="pkt:2")
        split = score_run(world=world)
        assert (
            coupled.pair("Server", "alice").score
            > split.pair("Server", "alice").score
        )
        assert not coupled.decoupled
        assert split.decoupled

    def test_unknown_pair_raises_risk_error_naming_known_pairs(self):
        report = self._coupled_report()
        with pytest.raises(RiskError, match=r"\(Server, alice\)"):
            report.pair("Nobody", "alice")

    def test_why_renders_terms_that_sum(self):
        report = self._coupled_report()
        decomposition = report.why("Server", "alice")
        assert sum(t.value for t in decomposition.terms) == decomposition.score
        rendered = decomposition.render()
        assert "risk(Server, alice)" in rendered
        assert "terms sum exactly to the pair score" in rendered
        assert "sensitivity" in rendered and "linkability" in rendered

    def test_population_override_changes_linkability_only(self):
        world = _world_with("Server")
        world.get("Server").observe([_identity(), _data()], session="pkt:1")
        alone = score_run(world=world)
        crowd = score_run(
            world=world,
            population={f"u{i}": 1.0 for i in range(16)} | {"alice": 1.0},
        )
        assert crowd.pair("Server", "alice").linkability < alone.pair(
            "Server", "alice"
        ).linkability
        assert crowd.pair("Server", "alice").sensitivity == alone.pair(
            "Server", "alice"
        ).sensitivity

    def test_share_reconstruction_pins_a_data_witness(self):
        # Coupling without directly sensitive data (a reconstructed
        # share group) must still decompose with a data-side witness.
        run = run_scenario("prio")
        report = score_run(run)
        for pair in report.non_user_pairs():
            if pair.couples:
                assert any(
                    t.component == "inferability" for t in pair.terms
                )
            assert sum(t.value for t in pair.terms) == pair.score

    def test_needs_a_run_or_world(self):
        with pytest.raises(RiskError, match="needs a run or a world"):
            score_run()


def test_witness_indices_name_their_ledger_rows():
    """Every term's and cell's ``observation`` is the ledger index of a
    row of the pair with the stated label and description.

    The ledger builds a fresh observation per read, so an index found
    by object identity would silently point at recycled rows; a
    many-subject run gives the recycling room to show."""
    run = run_scenario("mixnet", senders=300)
    rows = list(run.world.ledger)
    report = score_run(run)
    assert len(report.subjects) == 300
    for pair in report.pairs:
        for term in pair.terms:
            row = rows[term.observation]
            assert (row.entity, row.subject.name) == (pair.entity, pair.subject)
            if term.component == "sensitivity":
                assert term.detail.endswith(
                    f" {row.label.glyph}[{row.description or '(unnamed)'}]"
                )
            elif term.detail.endswith("(identity witness)"):
                assert row.label.is_identity and row.label.is_sensitive
            elif term.detail.endswith("(data witness)"):
                assert row.label.is_data and row.label.is_sensitive
    for cell in report.cells:
        row = rows[cell.observation]
        assert (row.entity, row.subject.name) == (cell.entity, cell.subject)
        assert (row.label.glyph, row.description) == (cell.glyph, cell.description)


def test_report_equals_the_direct_formulas():
    """Every linkability, subject exposure, the system risk, every
    coalition risk and every subject's resistance equal the formulas as
    first written (``tests/risk_reference.py``), float for float, on a
    300-sender ``mixnet`` run: under the uniform population, and under
    a skewed one with zero weights and a subject the run never saw."""
    run = run_scenario("mixnet", senders=300, batch_size=10, seed=7)
    ledger = run.world.ledger
    names = [subject.name for subject in ledger.subjects()]
    skewed = {name: float(i % 7) for i, name in enumerate(names)}
    skewed["nobody"] = 2.5
    for population in (None, skewed):
        report = score_run(run, population=population)
        for pair in report.pairs:
            (link,) = [t.subscore for t in pair.terms if t.component == "linkability"]
            assert link == risk_reference.subject_linkability(
                report.population, pair.subject
            )
        for name in report.subjects:
            assert report.subject_exposure(name) == risk_reference.subject_exposure(
                report, name
            )
        assert report.system_risk() == risk_reference.system_risk(report)
        assert report.coalition_risks() == risk_reference.coalition_risks(
            report, ledger, run.analyzer
        )
    assert report.subject_resistance == risk_reference.subject_resistance(
        DecouplingAnalyzer(run.world), report.organizations, ledger
    )


class TestRiskReport:
    def test_verdict_matches_analyzer_across_registry(self):
        for spec in all_specs():
            run = run_scenario(spec.id)
            report = score_run(run)
            analyzer = DecouplingAnalyzer(run.world)
            assert report.decoupled == analyzer.verdict().decoupled, spec.id
            assert (
                report.collusion_resistance == analyzer.collusion_resistance()
            ), spec.id
            for pair in report.pairs:
                assert 0.0 <= pair.score <= 1.0, spec.id
                assert sum(t.value for t in pair.terms) == pair.score, spec.id
            for cell in report.cells:
                assert 0.0 <= cell.score <= 1.0, spec.id

    def test_known_grades(self):
        assert score_run(run_scenario("odoh")).grade == "decoupled"
        assert score_run(run_scenario("vpn")).grade == "coupled"
        assert score_run(run_scenario("digital-cash")).grade == "strong"

    def test_system_risk_bounds_and_exposure(self):
        report = score_run(run_scenario("odoh"))
        assert 0.0 <= report.system_risk() <= 1.0
        assert report.system_risk() == max(
            report.subject_exposure(name) for name in report.subjects
        )

    def test_max_pair_is_stable_first_of_maxima(self):
        report = score_run(run_scenario("odoh"))
        best = report.max_pair()
        maxima = [
            p
            for p in report.non_user_pairs()
            if p.score == best.score
        ]
        assert maxima[0] is best

    def test_coalition_curve_is_sane(self):
        report = score_run(run_scenario("odoh"))
        curve = report.coalition_curve()
        assert [row["size"] for row in curve] == list(
            range(1, len(report.organizations) + 1)
        )
        risks = [row["max_risk"] for row in curve]
        # Pooling more organizations can only raise the worst score.
        assert risks == sorted(risks)
        for row in curve:
            assert row["coupling"] <= row["coalitions"]

    def test_to_dict_is_json_serializable_and_deterministic(self):
        first = json.dumps(score_run(run_scenario("odoh")).to_dict())
        second = json.dumps(score_run(run_scenario("odoh")).to_dict())
        assert first == second

    def test_report_without_analyzer_refuses_coalitions(self):
        world = _world_with("Server")
        world.get("Server").observe(_identity(), session="pkt:1")
        report = score_run(world=world)
        report._analyzer = None
        with pytest.raises(RiskError, match="without an analyzer"):
            report.coalition_risks()

    def test_gauges_register_under_capture(self):
        world = _world_with("Server")
        world.get("Server").observe([_identity(), _data()], session="pkt:1")
        with obs.capture() as (_, registry):
            report = score_run(world=world)
            assert registry.counter_value("risk.reports") == 1
            names = {entry["name"] for entry in registry.snapshot()}
            assert {"risk.system", "risk.max_pair", "risk.coupled_pairs"} <= names
            assert registry.gauge("risk.system").to_dict()["value"] == (
                report.system_risk()
            )
