"""System tests: T6 (MPR), T7 (PPM), T8 (VPN/ECH)."""

import pytest

from repro.core.labels import SENSITIVE_DATA
from repro.mpr import PAPER_TABLE_T6, paper_table_t6
from repro.ppm import PAPER_TABLE_T7
from repro.scenario import run_scenario
from repro.vpn import PAPER_TABLE_T8


@pytest.fixture(scope="module")
def mpr_run():
    return run_scenario("mpr", relays=2, requests=3)


@pytest.fixture(scope="module")
def prio_run():
    return run_scenario("prio", clients=5, aggregators=2)


class TestMpr:
    def test_derived_table_matches_the_paper(self, mpr_run):
        assert mpr_run.table().as_mapping() == PAPER_TABLE_T6

    def test_system_is_decoupled(self, mpr_run):
        assert mpr_run.analyzer.verdict().decoupled

    def test_generalized_tables(self):
        for relays in (2, 3, 4):
            run = run_scenario("mpr", relays=relays, requests=1)
            assert run.table().as_mapping() == paper_table_t6(relays)

    def test_single_relay_is_the_vpn_anti_pattern(self):
        run = run_scenario("mpr", relays=1, requests=1)
        assert not run.analyzer.verdict().decoupled

    def test_minimal_coalition_is_both_relays(self, mpr_run):
        (coalition,) = mpr_run.analyzer.minimal_recoupling_coalitions()
        assert coalition == frozenset({"relay-org-1", "relay-org-2"})

    def test_collusion_resistance_scales_with_relays(self):
        run = run_scenario("mpr", relays=3, requests=1)
        assert run.analyzer.collusion_resistance() == 3

    def test_latency_grows_with_relays(self):
        fast = run_scenario("mpr", relays=2, requests=2).mean_latency
        slow = run_scenario("mpr", relays=5, requests=2).mean_latency
        assert fast < slow

    def test_relay1_never_sees_fqdn_or_content(self, mpr_run):
        for obs in mpr_run.world.ledger.by_entity("Relay 1"):
            assert obs.description not in ("target fqdn", "http request")

    def test_geo_hint_reaches_origin(self):
        run = run_scenario("mpr", relays=2, requests=1, geo_hint="US-CA")
        assert run.origin_knows_location()
        baseline = run_scenario("mpr", relays=2, requests=1)
        assert not baseline.origin_knows_location()


class TestPpm:
    def test_naive_single_server_couples(self):
        run = run_scenario("ppm-naive")
        assert not run.analyzer.verdict().decoupled
        assert run.collector_sees_individual_values()
        assert run.reported_total == run.true_total

    def test_ohttp_decouples_identity_but_not_values(self):
        run = run_scenario("ppm-ohttp")
        assert run.analyzer.verdict().decoupled
        assert run.collector_sees_individual_values()
        assert run.reported_total == run.true_total

    def test_prio_table_matches_the_paper(self, prio_run):
        assert prio_run.table().as_mapping() == PAPER_TABLE_T7

    def test_prio_is_decoupled_and_aggregate_only(self, prio_run):
        assert prio_run.analyzer.verdict().decoupled
        assert not prio_run.collector_sees_individual_values()

    def test_prio_total_is_exact(self, prio_run):
        assert prio_run.reported_total == prio_run.true_total

    def test_prio_collusion_needs_all_aggregators(self, prio_run):
        (coalition,) = prio_run.analyzer.minimal_recoupling_coalitions()
        assert coalition == frozenset({"aggregator-org-1", "aggregator-org-2"})

    def test_more_aggregators_raise_collusion_resistance(self):
        assert run_scenario("prio", aggregators=3).analyzer.collusion_resistance() == 3

    def test_total_is_the_same_at_every_aggregator_count(self):
        totals = [
            run_scenario("prio", clients=4, aggregators=count).reported_total
            for count in (2, 3, 4, 5)
        ]
        assert len(set(totals)) == 1

    def test_invalid_report_is_excluded(self):
        """A cheating client submitting x=5 fails the Beaver check."""
        from repro.core.values import Subject
        from repro.crypto.secretshare import make_boolean_proof
        import random

        run = run_scenario("prio", clients=3, aggregators=2)
        # verify through the protocol-level primitive: a non-boolean
        # submission cannot pass the validity check the aggregators ran
        proofs = make_boolean_proof(5, 2, rng=random.Random(1))
        from repro.crypto.secretshare import check_boolean_shares

        assert not check_boolean_shares(proofs)


class TestVpnAndEch:
    def test_vpn_table_matches_the_paper(self):
        run = run_scenario("vpn")
        assert run.table().as_mapping() == PAPER_TABLE_T8

    def test_vpn_is_not_decoupled(self):
        run = run_scenario("vpn")
        verdict = run.analyzer.verdict()
        assert not verdict.decoupled
        assert any(v.entity == "VPN Server" for v in verdict.violations)
        (coalition,) = run.analyzer.minimal_recoupling_coalitions()
        assert coalition == frozenset({"vpn-provider"})

    def test_ech_hides_sni_from_the_network(self):
        without = run_scenario("ech", use_ech=False)
        with_ech = run_scenario("ech", use_ech=True)
        assert without.observer_saw_sni()
        assert not with_ech.observer_saw_sni()

    def test_ech_does_not_change_what_the_server_sees(self):
        without = run_scenario("ech", use_ech=False)
        with_ech = run_scenario("ech", use_ech=True)
        server_cell_without = without.table().as_mapping()["TLS Server"]
        server_cell_with = with_ech.table().as_mapping()["TLS Server"]
        assert server_cell_without == server_cell_with == "(▲, ●)"
        assert not with_ech.analyzer.verdict().decoupled

    def test_ech_changes_the_network_observers_cell(self):
        without = run_scenario("ech", use_ech=False).table().as_mapping()
        with_ech = run_scenario("ech", use_ech=True).table().as_mapping()
        assert without["Network Observer"] == "(▲, ⊙/●)"
        assert with_ech["Network Observer"] == "(▲, ⊙)"
