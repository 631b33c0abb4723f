"""System tests: T2/F1, Chaum mix-nets (paper section 3.1.2)."""

import pytest

from repro.core.labels import SENSITIVE_DATA
from repro.core.report import flow_series
from repro.faults import FaultPlan
from repro.mixnet import paper_table_t2
from repro.scenario import run_scenario


@pytest.fixture(scope="module")
def run():
    return run_scenario("mixnet", mixes=3, senders=4)


class TestPaperTable:
    def test_derived_table_matches_the_paper(self, run):
        assert run.table().as_mapping() == paper_table_t2(3)

    def test_system_is_decoupled(self, run):
        assert run.analyzer.verdict().decoupled

    def test_table_shape_generalizes_with_hops(self):
        for mixes in (1, 2, 5):
            r = run_scenario("mixnet", mixes=mixes, senders=3)
            assert r.table().as_mapping() == paper_table_t2(mixes)


class TestDelivery:
    def test_all_messages_delivered(self, run):
        assert len(run.receiver.received) == 4

    def test_messages_arrive_intact(self, run):
        texts = {str(m.payload) for m in run.receiver.received}
        assert any("alice" in t for t in texts)

    def test_each_mix_flushed_one_full_batch(self, run):
        for mix in run.mixes:
            assert mix.messages_mixed == 4
            assert mix.pending == 0


class TestFigureOneFlow:
    """Figure 1: first-knowledge events along the path to the receiver."""

    PATH = ["Mix 1", "Mix 2", "Mix 3", "Receiver"]

    def test_identity_stops_at_mix_1_and_plaintext_waits_for_the_receiver(
        self, run
    ):
        steps = flow_series(run.world.ledger, self.PATH)
        assert steps, "flow series must not be empty"
        # Identity (▲) appears at Mix 1 and nowhere downstream.
        assert {s.entity for s in steps if s.glyph == "▲"} == {"Mix 1"}
        # Plaintext (●) appears only at the Receiver, and only after every
        # mix has seen its ciphertext.
        plaintext_steps = [s for s in steps if s.glyph == "●"]
        assert {s.entity for s in plaintext_steps} == {"Receiver"}
        last_mix_time = max(s.time for s in steps if s.entity == "Mix 3")
        assert all(p.time >= last_mix_time for p in plaintext_steps)
        # Every mix observed opaque material (⊙) -- the figure's envelopes.
        opaque_entities = {s.entity for s in steps if s.glyph == "⊙"}
        assert {"Mix 1", "Mix 2", "Mix 3"} <= opaque_entities

    def test_hop_order_follows_the_figure(self):
        run = run_scenario("mixnet", mixes=3, senders=3)
        first_seen = {}
        for step in flow_series(run.world.ledger, self.PATH):
            first_seen.setdefault(step.entity, step.time)
        assert (
            first_seen["Mix 1"]
            < first_seen["Mix 2"]
            < first_seen["Mix 3"]
            < first_seen["Receiver"]
        )


class TestSettleDrains:
    """``settle`` flushes until no mix holds a message.

    A partial batch that reaches mix k+1 after that mix flushed used to
    stay there: each case below stranded messages before the fix.
    """

    @staticmethod
    def assert_drained(run):
        network = run.network
        assert [mix.pending for mix in run.mixes] == [0] * len(run.mixes)
        assert network.packets_in_flight == 0
        assert (
            network.packets_sent + network.packets_duplicated
            == network.messages_delivered + network.packets_dropped
        )

    def test_lossy_run_reaches_the_receiver(self):
        # Stranded 891 messages in mix 2 and delivered none.
        run = run_scenario(
            "mixnet", senders=1000, faults=FaultPlan.uniform_loss(0.05, seed=1)
        )
        self.assert_drained(run)
        assert run.network.messages_delivered == 3471
        assert len(run.receiver.received) == 795

    def test_late_partial_batch_is_delivered(self):
        # Stranded 2 of 10 in mix 2.
        run = run_scenario("mixnet", senders=10, batch_size=4)
        self.assert_drained(run)
        assert len(run.receiver.received) == 10

    def test_free_route_pool_delivers_every_message(self):
        # Delivered 0 of 20, so the receiver never held the data.
        run = run_scenario("mixnet", mix_pool=5, senders=20)
        self.assert_drained(run)
        assert len(run.receiver.received) == 20
        assert run.table().as_mapping()["Receiver"] == "(△, ●)"

    def test_chaff_does_not_keep_settle_running(self):
        # Stranded 2 of 10 in mix 2.
        run = run_scenario("mixnet", senders=10, batch_size=4, chaff_per_flush=2)
        self.assert_drained(run)
        assert len(run.receiver.received) == 10
        assert run.receiver.chaff_dropped == run.mixes[-1].chaff_sent


class TestCollusion:
    def test_minimal_coalition_is_all_mixes_plus_receiver(self, run):
        (coalition,) = run.analyzer.minimal_recoupling_coalitions()
        assert coalition == frozenset(
            {"mix-org-1", "mix-org-2", "mix-org-3", "receiver-org"}
        )

    def test_collusion_resistance_grows_with_hops(self):
        resistances = [
            run_scenario("mixnet", mixes=m, senders=3).analyzer.collusion_resistance()
            for m in (1, 2, 3)
        ]
        assert resistances == [2, 3, 4]

    def test_mixes_alone_never_see_plaintext(self, run):
        for index in range(1, 4):
            labels = run.world.ledger.labels_of(f"Mix {index}")
            assert SENSITIVE_DATA not in labels


class TestTiming:
    def test_latency_grows_with_hops(self):
        latencies = [
            run_scenario("mixnet", mixes=m, senders=3).end_to_end_latency()
            for m in (1, 3, 5)
        ]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_batching_delays_delivery(self):
        quick = run_scenario("mixnet", mixes=2, senders=8, batch_size=1)
        batched = run_scenario("mixnet", mixes=2, senders=8, batch_size=8)
        assert quick.end_to_end_latency() < batched.end_to_end_latency()

    def test_ground_truth_covers_every_message(self, run):
        assert len(run.ground_truth()) == 4


class TestPadding:
    def test_padded_messages_have_uniform_receiver_sizes(self):
        run = run_scenario("mixnet", mixes=2, senders=4, use_padding=True)
        sizes = {
            r.size
            for r in run.network.trace
            if r.dst == run.receiver.address
        }
        assert len(sizes) == 1

    def test_unpadded_messages_leak_size_variation(self):
        run = run_scenario("mixnet", mixes=2, senders=4, use_padding=False)
        sizes = {
            r.size
            for r in run.network.trace
            if r.dst == run.receiver.address
        }
        assert len(sizes) == 4
