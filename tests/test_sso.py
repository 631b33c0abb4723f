"""System tests for the SSO designs (paper section 2.2)."""

import pytest

from repro.core.labels import SENSITIVE_IDENTITY
from repro.scenario import ScenarioError, run_scenario
from repro.sso import EXPECTED_TABLES_SSO


class TestGlobalIdentifiers:
    def test_table_and_verdict(self):
        run = run_scenario("sso-global")
        assert run.table().as_mapping() == EXPECTED_TABLES_SSO["global"]
        assert not run.analyzer.verdict().decoupled

    def test_every_party_couples_alone(self):
        run = run_scenario("sso-global")
        coalitions = run.analyzer.minimal_recoupling_coalitions(max_size=1)
        orgs = {next(iter(c)) for c in coalitions}
        assert orgs == {"idp-org", "service-a-org", "service-b-org"}

    def test_services_can_join_their_logs(self):
        """The same global identifier at two services is a join key."""
        run = run_scenario("sso-global")
        assert run.analyzer.coalition_couples(["service-a-org", "service-b-org"])


class TestPairwiseIdentifiers:
    def test_table_and_verdict(self):
        run = run_scenario("sso-pairwise")
        assert run.table().as_mapping() == EXPECTED_TABLES_SSO["pairwise"]
        # Better, but the IdP still couples: NOT decoupled.
        assert not run.analyzer.verdict().decoupled

    def test_only_the_idp_couples(self):
        run = run_scenario("sso-pairwise")
        coalitions = run.analyzer.minimal_recoupling_coalitions(max_size=1)
        assert coalitions == (frozenset({"idp-org"}),)

    def test_services_cannot_join_their_logs(self):
        """Distinct pairwise pseudonyms at each service do not join."""
        run = run_scenario("sso-pairwise")
        assert not run.analyzer.coalition_couples(
            ["service-a-org", "service-b-org"]
        )

    def test_services_never_see_the_account(self):
        run = run_scenario("sso-pairwise")
        for service in ("Service A", "Service B"):
            for obs in run.world.ledger.by_entity(service):
                assert obs.description != "global subject id"
                assert not (obs.label.is_identity and obs.label.is_sensitive)


class TestAnonymousTickets:
    def test_table_and_verdict(self):
        run = run_scenario("sso-anonymous")
        assert run.table().as_mapping() == EXPECTED_TABLES_SSO["anonymous"]
        assert run.analyzer.verdict().decoupled

    def test_no_coalition_recouples(self):
        run = run_scenario("sso-anonymous")
        assert run.analyzer.minimal_recoupling_coalitions() == ()

    def test_idp_never_learns_the_destination(self):
        run = run_scenario("sso-anonymous")
        for obs in run.world.ledger.by_entity("IdP"):
            assert obs.description != "login destination"

    def test_tickets_are_single_use(self):
        run = run_scenario("sso-anonymous", logins_per_service=1)
        # replay the last ticket directly against the IdP's checker
        serial = next(iter(run.idp.spent_tickets))
        assert not run.idp.verify_ticket(serial, 12345)

    def test_all_logins_succeed(self):
        run = run_scenario("sso-anonymous", logins_per_service=3)
        assert run.logins == 6


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("sso-federated-magic")

    @pytest.mark.parametrize("spec_id", ["sso-global", "sso-pairwise", "sso-anonymous"])
    def test_spec_id_fixes_the_design(self, spec_id):
        """The id names the design: no run may carry one design's id
        and another's table."""
        with pytest.raises(ScenarioError, match="mode"):
            run_scenario(spec_id, mode="anonymous")
        assert run_scenario(spec_id).mode == spec_id[len("sso-"):]
