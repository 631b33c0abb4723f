"""System tests: T4, plain DNS / ODNS / ODoH (paper section 3.2.2)."""

import pytest

from repro.core.labels import SENSITIVE_DATA
from repro.odns import PAPER_TABLE_T4_ODNS, PAPER_TABLE_T4_ODOH
from repro.scenario import run_scenario


@pytest.fixture(scope="module")
def odns_run():
    return run_scenario("odns")


@pytest.fixture(scope="module")
def odoh_run():
    return run_scenario("odoh")


class TestPlainDnsBaseline:
    def test_resolver_couples_identity_and_queries(self):
        run = run_scenario("plain-dns")
        verdict = run.analyzer.verdict()
        assert not verdict.decoupled
        assert any(v.entity == "Resolver" for v in verdict.violations)

    def test_single_org_breach_exposes_the_user(self):
        run = run_scenario("plain-dns")
        assert run.analyzer.minimal_recoupling_coalitions()[0] == frozenset(
            {"resolver-org"}
        )


class TestOdns:
    def test_derived_table_matches_the_paper(self, odns_run):
        assert odns_run.table().as_mapping() == PAPER_TABLE_T4_ODNS

    def test_system_is_decoupled(self, odns_run):
        assert odns_run.analyzer.verdict().decoupled

    def test_answers_are_correct(self, odns_run):
        assert odns_run.answers == ["93.184.216.34"] * 3

    def test_minimal_coalition_is_resolver_plus_oblivious(self, odns_run):
        coalitions = odns_run.analyzer.minimal_recoupling_coalitions(max_size=2)
        assert frozenset({"resolver-org", "oblivious-org"}) in coalitions

    def test_recursive_resolver_never_saw_a_qname(self, odns_run):
        for obs in odns_run.world.ledger.by_entity("Resolver"):
            assert obs.description != "dns qname"


class TestOdoh:
    def test_derived_table_matches_the_paper(self, odoh_run):
        assert odoh_run.table().as_mapping() == PAPER_TABLE_T4_ODOH

    def test_system_is_decoupled(self, odoh_run):
        assert odoh_run.analyzer.verdict().decoupled

    def test_real_hpke_decryption_produced_answers(self, odoh_run):
        assert odoh_run.answers == ["93.184.216.34"] * 3
        assert odoh_run.fetches == 3

    def test_proxy_never_saw_plaintext(self, odoh_run):
        labels = odoh_run.world.ledger.labels_of("Oblivious Proxy")
        assert SENSITIVE_DATA not in labels
        assert all(not label.is_sensitive for label in labels if label.is_data)

    def test_minimal_coalition_is_proxy_plus_target(self, odoh_run):
        coalitions = odoh_run.analyzer.minimal_recoupling_coalitions(max_size=2)
        assert frozenset({"proxy-org", "target-org"}) in coalitions

    def test_target_is_individually_breach_proof(self, odoh_run):
        assert odoh_run.analyzer.breach("target-org").breach_proof
        assert odoh_run.analyzer.breach("proxy-org").breach_proof
