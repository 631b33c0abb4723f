"""The DNS privacy ladder: plain DNS -> DoH -> ODoH.

Encryption relocates knowledge; only decoupling removes it.  DoH blinds
the access network but leaves the resolver fully coupled -- the
argument that motivates the paper's section 3.2.2.
"""

import pytest

from repro.core.labels import SENSITIVE_DATA
from repro.scenario import run_scenario


@pytest.fixture(scope="module")
def doh_run():
    return run_scenario("doh")


class TestDohRun:
    def test_queries_resolve_through_real_hpke(self, doh_run):
        assert doh_run.answers == ["93.184.216.34"] * 3

    def test_table_shape(self, doh_run):
        assert doh_run.table().as_mapping() == {
            "Client": "(▲, ●)",
            "Network Observer": "(▲, ⊙)",
            "Resolver": "(▲, ⊙/●)",
            "Origin": "(△, ●)",
        }

    def test_resolver_still_couples(self, doh_run):
        verdict = doh_run.analyzer.verdict()
        assert not verdict.decoupled
        assert any(v.entity == "Resolver" for v in verdict.violations)

    def test_observer_never_sees_a_query(self, doh_run):
        for obs in doh_run.world.ledger.by_entity("Network Observer"):
            assert obs.description != "dns qname"


class TestLadder:
    def test_each_rung_strictly_improves_some_party(self):
        plain = run_scenario("plain-dns")
        doh = run_scenario("doh")
        odoh = run_scenario("odoh")

        # Rung 1 -> 2: the resolver's knowledge is unchanged...
        assert plain.table().as_mapping()["Resolver"] == "(▲, ⊙/●)"
        assert doh.table().as_mapping()["Resolver"] == "(▲, ⊙/●)"
        # ...and both leave the system coupled.
        assert not plain.analyzer.verdict().decoupled
        assert not doh.analyzer.verdict().decoupled

        # Rung 3: ODoH decouples; the proxy's cell drops to (▲, ⊙).
        assert odoh.analyzer.verdict().decoupled
        assert odoh.table().as_mapping()["Oblivious Proxy"] == "(▲, ⊙)"

    def test_single_org_breach_comparison(self):
        """Breach exposure across the ladder: plain/DoH resolvers leak
        the coupled profile; ODoH parties are individually clean."""
        doh = run_scenario("doh")
        assert not doh.analyzer.breach("resolver-org").breach_proof
        odoh = run_scenario("odoh")
        assert odoh.analyzer.breach("proxy-org").breach_proof
        assert odoh.analyzer.breach("target-org").breach_proof
