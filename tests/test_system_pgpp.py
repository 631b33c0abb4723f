"""System tests: T5, Pretty Good Phone Privacy (paper section 3.2.3)."""

from collections import Counter

import pytest

from repro.pgpp import BASELINE_TABLE_T5, PAPER_TABLE_T5
from repro.scenario import run_scenario


@pytest.fixture(scope="module")
def pgpp_run():
    return run_scenario("pgpp")


class TestBaseline:
    def test_traditional_core_couples_everything(self):
        run = run_scenario("pgpp-baseline")
        assert run.table().as_mapping() == BASELINE_TABLE_T5
        verdict = run.analyzer.verdict()
        assert not verdict.decoupled
        assert any(v.entity == "NGC" for v in verdict.violations)

    def test_mobility_log_is_a_named_location_trace(self):
        run = run_scenario("pgpp-baseline", users=2, steps=3)
        assert run.mobility_entries() == 2 * 3
        imsis = {imsi for _, imsi, _ in run.core.mobility_log}
        assert all(imsi.startswith("imsi-") for imsi in imsis)


class TestPgpp:
    def test_derived_table_matches_the_paper(self, pgpp_run):
        assert pgpp_run.table().as_mapping() == PAPER_TABLE_T5

    def test_system_is_decoupled(self, pgpp_run):
        assert pgpp_run.analyzer.verdict().decoupled

    def test_attaches_succeed(self, pgpp_run):
        assert pgpp_run.attaches == 3 * 4 * 2  # users x steps x epochs

    def test_core_log_shows_only_rotating_pseudonyms(self, pgpp_run):
        imsis = {imsi for _, imsi, _ in pgpp_run.core.mobility_log}
        assert all(imsi.startswith("pgpp-imsi-") for imsi in imsis)

    def test_gateway_never_saw_location(self, pgpp_run):
        for obs in pgpp_run.world.ledger.by_entity("PGPP-GW"):
            assert obs.description != "location fix"

    def test_core_never_saw_billing(self, pgpp_run):
        for obs in pgpp_run.world.ledger.by_entity("NGC"):
            assert obs.description != "billing identity"


class TestCollusion:
    def test_out_of_band_purchase_defeats_even_collusion(self):
        run = run_scenario("pgpp", purchase_over_cellular=False)
        assert run.analyzer.minimal_recoupling_coalitions(max_size=3) == ()

    def test_purchase_over_cellular_gives_colluders_a_handle(self):
        run = run_scenario("pgpp", purchase_over_cellular=True, epochs=2)
        coalitions = run.analyzer.minimal_recoupling_coalitions(max_size=2)
        assert frozenset({"operator", "pgpp-org"}) in coalitions
        # The table still matches: collusion is a *pooling* attack, not
        # something any single column reveals.
        assert run.table().as_mapping() == PAPER_TABLE_T5


class TestTokens:
    def test_token_reuse_across_epochs_is_rejected(self, pgpp_run):
        assert pgpp_run.gateway is not None
        token_count = pgpp_run.gateway.tokens_sold
        assert token_count == 3 * 2  # one per user per epoch

    def test_bad_credentials_rejected(self):
        from repro.pgpp.gateway import AttachToken

        run = run_scenario("pgpp", users=1, epochs=1, steps=1)
        ue = run.ues[0]
        station_host = run.network.host_at(run.core.address)
        forged = AttachToken(serial=b"\x00" * 16, signature=12345)
        result = ue.attach(_first_station(run), credential=forged)
        assert not result.accepted


class TestImsiModes:
    def test_identical_mode_shares_one_imsi_per_epoch(self):
        run = run_scenario("pgpp", users=3, epochs=1, imsi_mode="identical")
        imsis = {imsi for _, imsi, _ in run.core.mobility_log}
        assert len(imsis) == 1

    def test_shuffled_mode_distinct_slots(self):
        run = run_scenario("pgpp", users=3, epochs=1, imsi_mode="shuffled")
        imsis = {imsi for _, imsi, _ in run.core.mobility_log}
        assert len(imsis) == 3

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("pgpp", imsi_mode="bogus")

    def test_static_mode_keeps_one_trajectory_per_pseudonym(self):
        """Ablation: without rotation the core's log is one walk per user."""
        grid = dict(users=4, cells=6, steps=4, epochs=3)
        static = run_scenario("pgpp", imsi_mode="static", **grid)
        rotating = run_scenario("pgpp", imsi_mode="shuffled", **grid)
        fixes = Counter(imsi for _, imsi, _ in static.core.mobility_log)
        # Rotation multiplies the pseudonym space by the epoch count.
        assert len(fixes) == 4
        assert len({imsi for _, imsi, _ in rotating.core.mobility_log}) == 4 * 3
        # All of a user's location fixes share one identifier.
        assert max(fixes.values()) == 4 * 3  # steps x epochs


def _first_station(run):
    """Recover a base station from the network by its host name."""
    for host in run.network.hosts():
        if host.name.startswith("cell:"):
            class _Shim:
                cell_id = host.name.split(":", 1)[1]
                address = host.address
            return _Shim()
    raise AssertionError("no base station found")
