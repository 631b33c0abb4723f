"""System tests: T1, Chaum digital cash (paper section 3.1.1)."""

import pytest

from repro.blindsig import PAPER_TABLE_T1
from repro.scenario import run_scenario


@pytest.fixture(scope="module")
def run():
    return run_scenario("digital-cash", coins=3)


class TestPaperTable:
    def test_derived_table_matches_the_paper(self, run):
        assert run.table().as_mapping() == PAPER_TABLE_T1

    def test_system_is_decoupled(self, run):
        assert run.analyzer.verdict().decoupled

    def test_all_coins_spent(self, run):
        assert run.coins_spent == 3
        assert run.seller.sales == 3
        assert run.bank.deposits_accepted == 3


class TestCryptographicProperties:
    def test_no_coalition_can_recouple(self, run):
        """Blinding is information-theoretic: even signer+verifier+seller
        pooling all logs cannot attribute a purchase to the account."""
        assert run.analyzer.minimal_recoupling_coalitions() == ()

    def test_every_organization_is_breach_proof(self, run):
        for report in run.analyzer.breach_reports():
            assert report.breach_proof, report.organization

    def test_double_spend_is_rejected(self):
        run = run_scenario("digital-cash", coins=1)
        coin = run.buyer.coins[0]
        receipt = run.buyer.pay(run.seller, coin, "second attempt")
        assert not receipt.accepted
        assert run.bank.deposits_rejected == 1

    def test_signer_saw_only_blinded_values(self, run):
        signer_observations = run.world.ledger.by_entity("Signer (Bank)")
        data = [o for o in signer_observations if o.label.is_data]
        assert data and all(not o.label.is_sensitive for o in data)

    def test_verifier_never_saw_the_account(self, run):
        verifier_observations = run.world.ledger.by_entity("Verifier (Bank)")
        assert all(
            not (o.label.is_identity and o.label.is_sensitive)
            for o in verifier_observations
        )


class TestScaling:
    def test_more_coins_preserve_the_table(self):
        run = run_scenario("digital-cash", coins=6)
        assert run.table().as_mapping() == PAPER_TABLE_T1
        assert run.analyzer.verdict().decoupled


class TestBlindingAblation:
    def test_without_blinding_the_bank_recouples(self, run):
        """Same cash protocol, no blinding: the bank becomes a coalition."""
        ablated = run_scenario("digital-cash", coins=3, blind_withdrawals=False)
        # The serial seen at withdrawal reappears at deposit, so the
        # (single-organization!) bank re-couples.
        assert frozenset({"bank"}) in ablated.analyzer.minimal_recoupling_coalitions()
        assert not ablated.analyzer.breach("bank").breach_proof
        # The per-entity table is unchanged -- the leak is institutional,
        # which is exactly why the paper's analysis needs coalitions.
        assert ablated.table().as_mapping() == run.table().as_mapping()
