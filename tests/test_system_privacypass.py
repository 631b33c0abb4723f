"""System tests: T3/F2, Privacy Pass (paper section 3.2.1)."""

import pytest

from repro.core.report import flow_series
from repro.privacypass import PAPER_TABLE_T3
from repro.scenario import run_scenario


@pytest.fixture(scope="module")
def run():
    return run_scenario("privacy-pass", tokens=3)


class TestPaperTable:
    def test_derived_table_matches_the_paper(self, run):
        assert run.table().as_mapping() == PAPER_TABLE_T3

    def test_system_is_decoupled(self, run):
        assert run.analyzer.verdict().decoupled

    def test_all_tokens_redeemed(self, run):
        assert run.tokens_redeemed == 3
        assert run.origin.served == 3


class TestUnlinkability:
    def test_no_coalition_can_recouple(self, run):
        """VOPRF unlinkability: issuer + origin collusion learns nothing
        that joins the attestation account to the origin request."""
        assert run.analyzer.minimal_recoupling_coalitions() == ()

    def test_issuer_never_saw_the_request(self, run):
        issuer_data = [
            o for o in run.world.ledger.by_entity("Issuer") if o.label.is_data
        ]
        assert issuer_data and all(not o.label.is_sensitive for o in issuer_data)

    def test_origin_never_saw_the_account(self, run):
        for obs in run.world.ledger.by_entity("Origin"):
            if obs.label.is_identity:
                assert not obs.label.is_sensitive


class TestTokenSecurity:
    def test_double_spend_rejected(self):
        run = run_scenario("privacy-pass", tokens=1)
        token = run.client.tokens[0]
        outcome = run.client.redeem(run.origin, token, "again")
        assert not outcome.accepted and outcome.reason == "double spend"

    def test_forged_token_rejected(self):
        from repro.privacypass.tokens import Token

        run = run_scenario("privacy-pass", tokens=1)
        forged = Token(nonce=b"\x99" * 16, prf_output=b"\x00" * 32)
        outcome = run.client.redeem(run.origin, forged, "forged")
        assert not outcome.accepted and outcome.reason == "invalid token"

    def test_issuance_count_tracks(self, run):
        assert run.issuer.issued == 3


class TestFigureTwoFlow:
    def test_arrows_carry_the_annotated_knowledge(self):
        run = run_scenario("privacy-pass", tokens=2)
        steps = flow_series(run.world.ledger, ["Issuer", "Origin"])
        assert steps
        issuer_steps = [s for s in steps if s.entity == "Issuer"]
        origin_steps = [s for s in steps if s.entity == "Origin"]

        # Arrow 1 (client -> issuer): attestation identity ▲ + blinded ⊙.
        assert any(s.glyph == "▲" for s in issuer_steps)
        assert any(
            s.glyph == "⊙" and "blinded" in s.description for s in issuer_steps
        )
        # The issuer never observes sensitive data.
        assert all(s.glyph not in ("●", "⊙/●") for s in issuer_steps)

        # Arrow 2 (client -> origin): anonymous token △ + request ●.
        assert any(s.glyph == "△" for s in origin_steps)
        assert any(s.glyph == "●" for s in origin_steps)
        # The origin never observes a sensitive identity.
        assert all(s.glyph != "▲" for s in origin_steps)

        # Issuance precedes redemption, as the figure's arrows are ordered.
        assert min(s.time for s in issuer_steps) < min(s.time for s in origin_steps)
