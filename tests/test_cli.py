"""Tests for the ``python -m repro`` command-line interface."""

import io

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_demos(self):
        code, output = _run(["list"])
        assert code == 0
        for name in ("mixnet", "odoh", "pgpp", "prio", "vpn", "phoenix"):
            assert name in output


class TestDemo:
    def test_demo_prints_table_and_verdict(self):
        code, output = _run(["demo", "digital-cash"])
        assert code == 0
        assert "(▲, ●)" in output
        assert "DECOUPLED" in output
        assert "breach of" in output

    def test_unknown_demo_fails_gracefully(self):
        code, output = _run(["demo", "nonexistent"])
        assert code == 2
        assert "unknown demo" in output

    def test_vpn_demo_shows_the_violation(self):
        code, output = _run(["demo", "vpn"])
        assert code == 0
        assert "NOT DECOUPLED" in output
        assert "EXPOSED" in output


class TestFigures:
    def test_figures_render_flow_steps(self):
        code, output = _run(["figures"])
        assert code == 0
        assert "Figure 1" in output and "Figure 2" in output
        assert "Mix 1" in output and "Issuer" in output


class TestTables:
    def test_all_tables_match(self):
        code, output = _run(["tables"])
        assert code == 0
        assert output.count("MATCH") >= 11
        assert "MISMATCH" not in output


class TestTrace:
    def test_trace_mixnet_exports_valid_jsonl(self, tmp_path):
        import json

        path = tmp_path / "spans.jsonl"
        code, output = _run(["trace", "mixnet", "--out", str(path)])
        assert code == 0
        assert "traced demo 'mixnet'" in output
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        spans = {row["span_id"]: row for row in rows if row["type"] == "span"}
        assert spans, "no span records exported"
        # Acceptance: every packet-delivery span nests under a transact
        # span, and sim times stay within the demo root's window.
        roots = [s for s in spans.values() if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["demo"]
        sim_end = roots[0]["sim_end"]
        delivers = [s for s in spans.values() if s["name"] == "deliver"]
        assert delivers
        for deliver in delivers:
            node = deliver
            while node["parent_id"] is not None and node["name"] != "transact":
                node = spans[node["parent_id"]]
            assert node["name"] == "transact"
            assert 0.0 <= deliver["sim_start"] <= deliver["sim_end"] <= sim_end
        # Metrics ride along in the same file.
        assert any(row["type"] == "counter" for row in rows)

    def test_trace_unknown_demo_fails_gracefully(self, tmp_path):
        code, output = _run(["trace", "nope", "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "unknown demo" in output

    def test_tracing_is_off_after_trace_run(self, tmp_path):
        from repro.obs import runtime

        _run(["trace", "vpn", "--out", str(tmp_path / "x.jsonl")])
        assert runtime.ENABLED is False


class TestReportTrace:
    def test_report_trace_prints_timing_for_all_experiments(self):
        code, output = _run(["report", "--trace"])
        assert code == 0
        assert "Per-experiment timing / metrics" in output
        section = output[output.index("Per-experiment timing") :]
        for experiment_id in (
            "T1", "T2", "T3", "T4a", "T4b", "T5", "T6", "T7", "T8",
            "E1a", "E1b", "E2a", "E2b", "E2c",
        ):
            assert f"  {experiment_id} " in section
        assert "events=" in section and "messages=" in section
        assert "bytes=" in section and "spans=" in section
        assert "ALL PAPER TABLES REPRODUCED EXACTLY" in output


class TestReportJson:
    def test_report_json_is_machine_readable(self):
        import json

        code, output = _run(["report", "--json"])
        assert code == 0
        document = json.loads(output)
        assert document["all_match"] is True
        assert len(document["experiments"]) == 14
        first = document["experiments"][0]
        assert first["experiment_id"] == "T1"
        assert first["matches"] is True
        assert first["expected"] and first["measured"]
        assert set(document["sweeps"]) == {"D1", "D2", "D3", "D4", "D5", "D6"}
        assert document["sweeps"]["D1"]["points"][0]["degree"] == 1
        assert document["figures"]["F1"]

    def test_report_json_carries_audit_grades(self):
        import json

        code, output = _run(["report", "--json"])
        assert code == 0
        document = json.loads(output)
        grades = {row["experiment_id"]: row["grade"]
                  for row in document["experiments"]}
        assert set(grades.values()) <= {"strong", "decoupled", "coupled"}
        assert grades["T8"] == "coupled"  # the plain-VPN baseline couples
        assert any(grade != "coupled" for grade in grades.values())


class TestExplain:
    def test_explain_prints_causal_chain(self):
        code, output = _run(["explain", "odoh", "--entity", "Oblivious Target"])
        assert code == 0
        assert "why 'Oblivious Target' holds" in output
        assert "pkt#" in output
        assert "=> observed via" in output
        assert "origin: sent from" in output

    def test_entity_resolution_by_substring(self):
        code, output = _run(["explain", "odoh", "--entity", "target"])
        assert code == 0
        assert "Oblivious Target" in output

    def test_unknown_entity_lists_known_ones(self):
        code, output = _run(["explain", "odoh", "--entity", "resolver"])
        assert code == 2
        assert "unknown entity" in output
        assert "Oblivious Target" in output  # the helpful listing

    def test_fact_not_held_is_a_clear_error(self):
        code, output = _run(
            ["explain", "odoh", "--entity", "Oblivious Proxy", "--fact", "●"]
        )
        assert code == 1
        assert "error:" in output
        assert "does not hold" in output

    def test_unknown_demo_fails_gracefully(self):
        code, output = _run(["explain", "nonexistent", "--entity", "x"])
        assert code == 2
        assert "unknown demo" in output


class TestTimeline:
    def test_timeline_prints_growth_steps(self):
        code, output = _run(["timeline", "odns"])
        assert code == 0
        assert "knowledge timeline of demo 'odns'" in output
        assert "growth steps" in output
        assert "pkt#" in output

    def test_unknown_demo_fails_gracefully(self):
        code, output = _run(["timeline", "nonexistent"])
        assert code == 2
        assert "unknown demo" in output


class TestSweepsTrace:
    def test_sweeps_trace_prints_per_sweep_timing(self):
        code, output = _run(["sweeps", "--trace"])
        assert code == 0
        assert "Per-sweep timing" in output
        for sweep in ("D1", "D2", "D3", "D4", "D5", "D6"):
            assert f"  {sweep}: points=" in output


class TestScale:
    def test_scale_point_prints_summary(self):
        code, output = _run(
            ["scale", "--users", "200", "--observations", "1600",
             "--segment-rows", "256", "--checkpoints", "2"]
        )
        assert code == 0
        assert "T-series" in output
        assert "200 users" in output
        assert "mid-run ok" in output

    def test_scale_json_document(self, tmp_path):
        import json

        path = tmp_path / "scale.json"
        code, output = _run(
            ["scale", "--users", "150", "--observations", "1200",
             "--segment-rows", "256", "--out", str(path)]
        )
        assert code == 0
        document = json.loads(path.read_text())
        assert document["series"] == "T"
        (point,) = document["points"]
        assert point["users"] == 150
        assert point["mid_run_matches"] is True
        assert point["segments_spilled"] > 0

    def test_scale_sweep_over_comma_list(self):
        code, output = _run(
            ["scale", "--users", "100,200", "--json"]
        )
        assert code == 0
        import json

        document = json.loads(output)
        assert [p["users"] for p in document["points"]] == [100, 200]

    def test_scale_rejects_empty_users(self):
        code, output = _run(["scale", "--users", ","])
        assert code == 2
        assert "at least one" in output

    def test_scale_rejects_fewer_observations_than_one_arrival(self):
        code, output = _run(["scale", "--users", "10", "--observations", "3"])
        assert code == 2
        assert output == "scale workload needs at least one arrival (4 rows)\n"

    def test_scale_sweep_honours_every_flag(self):
        """A comma list of users runs every point with the given
        observations, segment size, spill policy and checkpoints."""
        import json

        code, output = _run(
            ["scale", "--users", "120,240", "--observations", "1200",
             "--segment-rows", "128", "--no-spill", "--checkpoints", "2",
             "--json"]
        )
        assert code == 0
        points = json.loads(output)["points"]
        assert [p["users"] for p in points] == [120, 240]
        for point in points:
            assert point["observations"] == 1200
            assert point["segment_rows"] == 128
            assert point["spill"] is False
            assert point["checkpoints"] == 3

    @pytest.mark.parametrize("users", ["abc", "0", "100,x"])
    def test_scale_rejects_non_positive_or_non_integer_users(self, users):
        code, output = _run(["scale", "--users", users])
        assert code == 2
        assert output == (
            f"invalid --users {users!r}: expected comma-separated positive integers\n"
        )


class TestNoCommand:
    def test_help_on_no_command(self):
        code, output = _run([])
        assert code == 2
        assert "usage" in output.lower()
