"""Tests for the G-series risk harness and the ``repro risk`` CLI."""

import io
import json

import pytest

from repro import harness
from repro.cli import main
from repro.faults import FaultPlan


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRiskHarness:
    def test_risk_summaries_cover_requested_scenarios(self):
        summaries = harness.risk_summaries(scenario_ids=["odoh", "vpn"])
        assert [s.scenario for s in summaries] == ["odoh", "vpn"]
        odoh, vpn = summaries
        assert odoh.grade == "decoupled" and odoh.decoupled
        assert vpn.grade == "coupled" and not vpn.decoupled
        assert vpn.system_risk == 1.0

    def test_parallel_summaries_match_serial(self):
        ids = ["odoh", "prio", "mixnet"]
        serial = harness.risk_summaries(scenario_ids=ids)
        parallel = harness.risk_summaries(jobs=2, scenario_ids=ids)
        assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]

    def test_g1_sweep_is_monotone_with_diminishing_returns(self):
        sweeps = harness.risk_sweep(keys=["G1"])
        points = sweeps["G1"]
        assert [p.degree for p in points] == [1, 2, 3, 4, 5]
        assert [p.collusion_resistance for p in points] == [1, 2, 3, 4, 5]
        assert harness.risk_monotone_non_increasing(points)
        assert harness.risk_diminishing_returns(points)
        assert points[0].system_risk == 1.0
        assert points[1].system_risk == pytest.approx(0.75)

    def test_g2_sweep_is_monotone_with_diminishing_returns(self):
        sweeps = harness.risk_sweep(keys=["G2"])
        points = sweeps["G2"]
        assert [p.degree for p in points] == [2, 3, 4, 5]
        assert harness.risk_monotone_non_increasing(points)
        assert harness.risk_diminishing_returns(points)

    def _point(self, degree, system_risk):
        return harness.RiskPoint(
            scenario="fake",
            degree=degree,
            collusion_resistance=degree,
            system_risk=system_risk,
            max_pair_risk=system_risk,
            mean_pair_risk=system_risk,
            coupled_pairs=0,
            population=1,
            observations=1,
        )

    def test_monotone_helpers_reject_regressions(self):
        rising = [self._point(1, 0.5), self._point(2, 0.75)]
        assert not harness.risk_monotone_non_increasing(rising)
        accelerating = [
            self._point(1, 1.0),
            self._point(2, 0.9),
            self._point(3, 0.5),
        ]
        assert not harness.risk_diminishing_returns(accelerating)
        # Order of the input list must not matter: degree decides.
        sweeps = harness.risk_sweep(keys=["G1"])
        shuffled = list(reversed(sweeps["G1"]))
        assert harness.risk_monotone_non_increasing(shuffled)

    def test_odoh_proxy_crash_raises_system_risk(self):
        delta = harness.risk_delta(
            "odoh", FaultPlan.crash("oblivious-proxy", at=0.0, seed=1)
        )
        assert delta["baseline_decoupled"] is True
        assert delta["faulted_decoupled"] is False
        assert delta["system_risk_delta"] == pytest.approx(0.25)
        assert delta["fallbacks"] == 3
        assert any(
            row["delta"] > 0 for row in delta["pair_deltas"]
        )

    def test_risk_report_exposes_full_report_object(self):
        report = harness.risk_report("odoh")
        assert report.scenario_id == "odoh"
        assert report.decoupled
        why = report.why(report.max_pair().entity, report.max_pair().subject)
        assert "terms sum exactly" in why.render()


class TestRiskCommand:
    def test_risk_smoke_on_one_scenario(self):
        code, output = _run(["risk", "--scenarios", "odoh"])
        assert code == 0
        assert "odoh" in output
        assert "decoupled" in output

    def test_risk_json_is_valid_and_byte_deterministic(self):
        argv = ["risk", "--scenarios", "odoh,vpn", "--json"]
        code_a, first = _run(argv)
        code_b, second = _run(argv)
        assert code_a == code_b == 0
        assert first == second
        document = json.loads(first)
        assert document["series"] == "G"
        assert [s["scenario"] for s in document["scenarios"]] == [
            "odoh",
            "vpn",
        ]

    def test_full_registry_risk_json_is_byte_deterministic(self):
        code_a, first = _run(["risk", "--json"])
        code_b, second = _run(["risk", "--json", "--jobs", "2"])
        assert code_a == code_b == 0
        assert first == second
        document = json.loads(first)
        assert len(document["scenarios"]) == len(
            {s["scenario"] for s in document["scenarios"]}
        )
        assert set(document["sweeps"]) == {"G1", "G2"}
        for sweep in document["sweeps"].values():
            assert sweep["monotone_non_increasing"] is True
            assert sweep["diminishing_returns"] is True

    def test_risk_out_writes_json_file(self, tmp_path):
        target = tmp_path / "risk.json"
        code, output = _run(
            ["risk", "--scenarios", "odoh", "--json", "--out", str(target)]
        )
        assert code == 0
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["scenarios"][0]["scenario"] == "odoh"

    def test_risk_with_faults_reports_delta(self):
        code, output = _run(
            [
                "risk",
                "--scenarios",
                "odoh",
                "--faults",
                "examples/faults/odoh_proxy_crash.json",
            ]
        )
        assert code == 0
        assert "risk under faults" in output

    def test_unknown_scenario_fails_gracefully(self):
        code, output = _run(["risk", "--scenarios", "nonexistent"])
        assert code == 2
        assert "unknown scenario" in output

    def test_empty_scenario_list_fails_gracefully(self):
        code, output = _run(["risk", "--scenarios", ","])
        assert code == 2
        assert output == "--scenarios needs at least one scenario id\n"

    def test_bad_profile_fails_gracefully(self, tmp_path):
        bad = tmp_path / "profile.json"
        bad.write_text('{"weights": {}}', encoding="utf-8")
        code, output = _run(["risk", "--scenarios", "odoh", "--profile", str(bad)])
        assert code == 2

    def test_custom_profile_changes_the_scores(self, tmp_path):
        custom = tmp_path / "profile.json"
        custom.write_text(
            json.dumps(
                {
                    "name": "inferability-only",
                    "component_weights": {
                        "sensitivity": 0.0,
                        "linkability": 0.0,
                        "inferability": 1.0,
                    },
                }
            ),
            encoding="utf-8",
        )
        _, default_out = _run(["risk", "--scenarios", "vpn", "--json"])
        code, custom_out = _run(
            ["risk", "--scenarios", "vpn", "--json", "--profile", str(custom)]
        )
        assert code == 0
        assert json.loads(custom_out)["profile"]["name"] == "inferability-only"
        assert default_out != custom_out


class TestPrivcountCommand:
    def test_sweep_thresholds_track_keepers_plus_one(self):
        points = harness.privcount_sweep(
            collectors=(1, 2), share_keepers=(2, 3), jobs=2
        )
        assert [
            (p.collectors, p.share_keepers) for p in points
        ] == [(1, 2), (1, 3), (2, 2), (2, 3)]
        for point in points:
            assert point.reconstruction_threshold == point.share_keepers + 1
            assert point.threshold_matches
            assert point.reconstructed
        # Threshold depends only on keepers, never on collectors.
        by_keepers = {}
        for point in points:
            by_keepers.setdefault(point.share_keepers, set()).add(
                point.reconstruction_threshold
            )
        assert all(len(values) == 1 for values in by_keepers.values())

    def test_parallel_sweep_matches_serial(self):
        serial = harness.privcount_sweep(
            collectors=(1,), share_keepers=(2, 3), jobs=1
        )
        parallel = harness.privcount_sweep(
            collectors=(1,), share_keepers=(2, 3), jobs=2
        )
        assert [p.to_dict() for p in serial] == [
            p.to_dict() for p in parallel
        ]

    def test_cli_json_is_valid_and_byte_deterministic(self):
        argv = [
            "privcount",
            "--collectors", "1", "--share-keepers", "2,3", "--json",
        ]
        code_a, first = _run(argv)
        code_b, second = _run(argv)
        assert code_a == code_b == 0
        assert first == second
        document = json.loads(first)
        assert document["series"] == "P"
        assert [p["share_keepers"] for p in document["points"]] == [2, 3]
        assert all(p["threshold_matches"] for p in document["points"])

    @pytest.mark.parametrize("collectors", ["x", "0", "1,x"])
    def test_cli_rejects_non_positive_or_non_integer_collectors(self, collectors):
        code, output = _run(["privcount", "--collectors", collectors])
        assert code == 2
        assert output == (
            f"invalid --collectors {collectors!r}:"
            " expected comma-separated positive integers\n"
        )

    @pytest.mark.parametrize("keepers", ["y", "0", "2,y"])
    def test_cli_rejects_non_positive_or_non_integer_share_keepers(self, keepers):
        code, output = _run(["privcount", "--share-keepers", keepers])
        assert code == 2
        assert output == (
            f"invalid --share-keepers {keepers!r}:"
            " expected comma-separated positive integers\n"
        )

    def test_cli_text_reports_thresholds(self):
        code, output = _run(
            ["privcount", "--collectors", "1", "--share-keepers", "2"]
        )
        assert code == 0
        assert "reconstruction threshold" in output
        assert "ok" in output

    def test_cli_out_writes_json_file(self, tmp_path):
        target = tmp_path / "privcount.json"
        code, output = _run(
            [
                "privcount", "--collectors", "1", "--share-keepers", "2",
                "--json", "--out", str(target),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["points"][0]["reconstruction_threshold"] == 3

    def test_cli_rejects_empty_grid(self):
        code, output = _run(["privcount", "--collectors", ","])
        assert code == 2
        assert "at least one" in output

    def test_cli_rejects_a_point_below_the_scenario_limit(self):
        code, output = _run(
            ["privcount", "--collectors", "1", "--share-keepers", "1"]
        )
        assert code == 2
        assert output == "privcount needs at least two share keepers\n"


class TestReportAndExplainIntegration:
    def test_report_json_gains_risk_section(self):
        code, output = _run(["report", "--json", "--risk"])
        assert code == 0
        document = json.loads(output)
        assert "risk" in document
        assert document["risk"]["series"] == "G"
        assert document["all_match"] is True

    def test_explain_risk_renders_decompositions(self):
        code, output = _run(
            ["explain", "odoh", "--entity", "Oblivious Proxy", "--risk"]
        )
        assert code == 0
        assert "risk(Oblivious Proxy, alice)" in output
        assert "terms sum exactly to the pair score" in output

    def test_explain_risk_requires_an_entity(self):
        code, output = _run(["explain", "odoh", "--risk"])
        assert code == 2
        assert "--entity" in output
