"""Fault-injection runtime: plan semantics, golden parity, and the
fault-induced verdict flip the issue's acceptance criterion demands.

Three layers of guarantee:

1. **Plan algebra** — validation, JSON round-trips, nullity.
2. **Differential parity** — an empty (or all-zero-rate) plan is a
   no-op: per-scenario ``demo --json`` documents and the golden
   ``tables`` / ``report --json`` outputs stay byte-identical.
3. **Acceptance** — crashing the ODoH proxy flips the decoupling
   verdict via the direct-DoH fallback, the breach chain attributes
   the coupling to that fallback path, and identical seeds reproduce
   the faulty run byte-for-byte.
"""

import functools
import io
import json
from pathlib import Path

import pytest

import repro.harness as harness
from repro.cli import main
from repro.faults import (
    FaultPlan,
    FaultPlanError,
    FaultRuntime,
    HostCrash,
    LinkFault,
    Partition,
    ResiliencePolicy,
    coerce_plan,
)
from repro.net.network import TransactTimeout
from repro.scenario import all_specs, run_scenario

GOLDEN = Path(__file__).parent / "golden"
PROXY_CRASH_PLAN = (
    Path(__file__).parent.parent / "examples" / "faults" / "odoh_proxy_crash.json"
)

ALL_SPEC_IDS = sorted(spec.id for spec in all_specs())


def _demo_json(name, *extra_args):
    out = io.StringIO()
    code = main(["demo", name, "--json", *extra_args], out=out)
    assert code == 0
    return out.getvalue()


class TestFaultPlanAlgebra:
    def test_empty_plan_is_null(self):
        assert FaultPlan().is_null()
        assert not FaultPlan().can_drop()

    def test_zero_rate_links_are_null(self):
        plan = FaultPlan(links=(LinkFault(), LinkFault(src="a", dst="b")))
        assert plan.is_null()

    def test_any_impairment_is_not_null(self):
        assert not FaultPlan(links=(LinkFault(loss=0.1),)).is_null()
        assert not FaultPlan(crashes=(HostCrash(host="x"),)).is_null()
        assert not FaultPlan(partitions=(Partition(a=("a",), b=("b",)),)).is_null()
        assert not FaultPlan(curious=("relay",)).is_null()

    def test_rates_validated(self):
        with pytest.raises(FaultPlanError):
            LinkFault(loss=1.0)
        with pytest.raises(FaultPlanError):
            LinkFault(duplicate=-0.1)
        with pytest.raises(FaultPlanError):
            LinkFault(jitter=-1.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(timeout=0.0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=9,
            links=(LinkFault(src="client", dst="*", loss=0.2, jitter=0.01),),
            crashes=(HostCrash(host="proxy", at=0.5),),
            partitions=(Partition(a=("a",), b=("b",), start=0.1, end=0.9),),
            curious=("relay",),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 0, "chaos": True})
        with pytest.raises(FaultPlanError):
            coerce_plan({"links": [{"loss": 0.1, "color": "red"}]})

    def test_coerce_accepts_plan_and_dict(self):
        plan = FaultPlan.uniform_loss(0.2, seed=3)
        assert coerce_plan(plan) is plan
        assert coerce_plan(plan.to_dict()) == plan

    def test_example_plan_file_parses(self):
        plan = FaultPlan.from_json(PROXY_CRASH_PLAN.read_text())
        assert plan.crashes[0].host == "oblivious-proxy"
        assert not plan.is_null()


class TestNullPlanParity:
    """A null plan must not move a single byte of any golden output."""

    @pytest.mark.parametrize("scenario_id", ALL_SPEC_IDS)
    def test_demo_json_unchanged_by_null_plan(self, scenario_id, tmp_path):
        plan_path = tmp_path / "null.json"
        plan_path.write_text(
            FaultPlan(links=(LinkFault(loss=0.0, duplicate=0.0),)).to_json()
        )
        baseline = _demo_json(scenario_id)
        with_plan = _demo_json(scenario_id, "--faults", str(plan_path))
        assert with_plan == baseline
        assert "faults" not in json.loads(baseline)

    def test_tables_unchanged_by_null_plan(self, monkeypatch):
        original = harness._table_specs

        def faulted_specs():
            return [
                (eid, title, expected, functools.partial(runner, faults=FaultPlan()))
                for eid, title, expected, runner in original()
            ]

        monkeypatch.setattr(harness, "_table_specs", faulted_specs)
        out = io.StringIO()
        assert main(["tables"], out=out) == 0
        assert out.getvalue() == (GOLDEN / "tables.txt").read_text()

    def test_report_json_unchanged_by_null_plan(self, monkeypatch):
        original = harness._table_specs

        def faulted_specs():
            return [
                (eid, title, expected, functools.partial(runner, faults=FaultPlan()))
                for eid, title, expected, runner in original()
            ]

        monkeypatch.setattr(harness, "_table_specs", faulted_specs)
        out = io.StringIO()
        assert main(["report", "--json"], out=out) == 0
        assert out.getvalue() == (GOLDEN / "report.json").read_text()


class TestFaultSemantics:
    def test_uniform_loss_drops_and_counts(self):
        run = run_scenario("odns", faults=FaultPlan.uniform_loss(0.35, seed=3))
        summary = run.fault_summary
        net = summary["network"]
        assert net["packets_dropped"] > 0
        assert net["packets_in_flight"] == 0
        assert (
            net["packets_sent"] + net["packets_duplicated"]
            == net["packets_delivered"] + net["packets_dropped"]
        )
        assert summary["stats"]["loss_drops"] == net["packets_dropped"]

    def test_curious_relay_taps_without_dropping(self):
        baseline = run_scenario("odoh")
        curious = run_scenario("odoh", faults=FaultPlan(curious=("oblivious-proxy",)))
        assert curious.fault_summary["stats"]["curious_taps"] == 1
        # Delivery is untouched; the tap only adds wire observations.
        assert curious.fault_summary["network"]["packets_dropped"] == 0
        assert len(curious.world.ledger) > len(baseline.world.ledger)
        # Sealed queries keep the verdict: watching ciphertext decouples nothing.
        assert (
            curious.analyzer.verdict().decoupled
            == baseline.analyzer.verdict().decoupled
        )

    def test_partition_severs_matching_links(self):
        plan = FaultPlan(
            partitions=(
                Partition(a=("client",), b=("recursive-resolver",), start=0.0, end=None),
            )
        )
        run = run_scenario("plain-dns", faults=plan)
        stats = run.fault_summary["stats"]
        assert stats["partition_drops"] > 0

    def test_transact_timeout_is_runtime_error(self):
        assert issubclass(TransactTimeout, RuntimeError)


class TestAcceptanceOdohProxyCrash:
    """The issue's acceptance criterion, end to end through the CLI."""

    def test_verdict_flips_under_proxy_crash(self):
        baseline = run_scenario("odoh")
        faulted = run_scenario(
            "odoh", faults=FaultPlan.crash("oblivious-proxy", at=0.0, seed=1)
        )
        assert baseline.analyzer.verdict().decoupled is True
        assert faulted.analyzer.verdict().decoupled is False
        stats = faulted.fault_summary["stats"]
        assert stats["fallbacks"] == 3
        assert stats["failures"] == 0
        assert all("resolve" in label for label in stats["fallback_labels"])
        # The fallback still answers every query -- resilience worked,
        # privacy paid for it.
        assert faulted.answers == baseline.answers

    def test_cli_demo_reports_flip_and_fallback(self):
        baseline = _demo_json("odoh")
        faulted = _demo_json("odoh", "--faults", str(PROXY_CRASH_PLAN))
        assert json.loads(baseline)["verdict_decoupled"] is True
        document = json.loads(faulted)
        assert document["verdict_decoupled"] is False
        assert document["faults"]["stats"]["fallbacks"] == 3

    def test_breach_chain_attributes_fallback(self):
        out = io.StringIO()
        code = main(
            ["explain", "odoh", "--breach", "--faults", str(PROXY_CRASH_PLAN)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "breach of target-org" in text
        assert "network-header" in text  # identity witness: client IP on the wire
        assert "dns" in text  # data witness: plaintext qname on the same packet

    def test_same_seed_reproduces_faulty_run_byte_for_byte(self):
        first = _demo_json("odoh", "--faults", str(PROXY_CRASH_PLAN))
        second = _demo_json("odoh", "--faults", str(PROXY_CRASH_PLAN))
        assert first == second


class TestResilienceSweep:
    def test_single_point_verdict_stability(self):
        point = harness.resilience_point("odoh", 0.0)
        assert point.rate == 0.0
        assert point.verdict_stable is True
        assert point.delivery_rate == 1.0

    def test_sweep_covers_requested_grid(self):
        points = harness.resilience_sweep(
            rates=(0.0, 0.35), scenario_ids=["vpn", "odns"], seed=0
        )
        assert [(p.scenario, p.rate) for p in points] == [
            ("vpn", 0.0),
            ("vpn", 0.35),
            ("odns", 0.0),
            ("odns", 0.35),
        ]
        for point in points:
            assert 0.0 <= point.delivery_rate <= 1.0
            payload = point.to_dict()
            assert payload["scenario"] == point.scenario

    def test_resilience_cli_json(self, tmp_path):
        out_path = tmp_path / "resilience.json"
        out = io.StringIO()
        code = main(
            [
                "resilience",
                "--scenarios",
                "vpn",
                "--rates",
                "0.0,0.35",
                "--json",
                "--out",
                str(out_path),
            ],
            out=out,
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["series"] == "R"
        assert document["rates"] == [0.0, 0.35]
        assert len(document["points"]) == 2

    def test_resilience_cli_rejects_unknown_scenario(self):
        out = io.StringIO()
        assert main(["resilience", "--scenarios", "nope"], out=out) == 2

    def test_resilience_cli_rejects_an_empty_scenario_list(self):
        out = io.StringIO()
        code = main(["resilience", "--scenarios", ",", "--rates", "0.0"], out=out)
        assert code == 2
        assert out.getvalue() == "--scenarios needs at least one scenario id\n"
