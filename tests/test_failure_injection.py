"""Failure injection: lossy links, curious relays, malformed traffic."""

import pytest

from repro.core.entities import World
from repro.core.labels import SENSITIVE_DATA
from repro.core.values import LabeledValue, Sealed, Subject
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.mixnet import MIX_PROTOCOL, MixNode, MixReceiver, build_onion, make_message
from repro.net.network import Network, TransactTimeout

ALICE = Subject("alice")


def _lossy(network, rate, seed):
    """Arm ``network`` with uniform seeded link loss (after hosts exist)."""
    FaultRuntime(FaultPlan.uniform_loss(rate, seed=seed), network).install()


class TestLossyLinks:
    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.uniform_loss(1.0)
        with pytest.raises(ValueError):
            FaultPlan.uniform_loss(-0.1)

    def test_lossless_network_drops_nothing(self):
        world = World()
        network = Network()
        a = network.add_host("a", world.entity("A", "a-org"))
        b = network.add_host("b", world.entity("B", "b-org"))
        b.register("p", lambda pkt: None)
        _lossy(network, 0.0, seed=7)
        for index in range(10):
            a.send(b.address, index, "p")
        network.run()
        assert network.packets_dropped == 0
        assert network.messages_delivered == 10

    def test_one_way_sends_tolerate_loss(self):
        """A lossy mix-net delivers only the surviving fraction."""
        world = World()
        network = Network()
        mix = MixNode(
            network, world.entity("Mix", "mix-org"), "mix", "mk", batch_size=1
        )
        receiver = MixReceiver(network, world.entity("Recv", "recv-org"))
        sender = network.add_host(
            "s", world.entity("Sender", "dev", trusted_by_user=True)
        )
        _lossy(network, 0.5, seed=7)
        total = 20
        for index in range(total):
            onion = build_onion(
                [("mk", mix.address)],
                receiver.key_id,
                receiver.address,
                make_message(f"m{index}", ALICE),
            )
            sender.send(mix.address, onion, MIX_PROTOCOL)
        network.run()
        delivered = len(receiver.received)
        assert 0 < delivered < total
        assert network.packets_dropped + delivered + mix.messages_mixed >= total

    def test_transact_surfaces_a_lost_request(self):
        """Synchronous calls fail loudly instead of hanging forever."""
        world = World()
        network = Network()
        server = network.add_host("srv", world.entity("S", "s-org"))
        server.register("p", lambda pkt: "pong")
        client = network.add_host(
            "cli", world.entity("C", "c-dev", trusted_by_user=True)
        )
        _lossy(network, 0.99, seed=1)
        with pytest.raises(TransactTimeout):
            client.transact(server.address, "ping", "p")


class TestCuriousParties:
    def test_relay_cannot_open_foreign_envelopes(self):
        world = World()
        relay = world.entity("Relay", "relay-org")
        envelope = Sealed.wrap(
            "not-relays-key", [LabeledValue("x", SENSITIVE_DATA, ALICE, "v")]
        )
        with pytest.raises(PermissionError):
            relay.unseal(envelope)
        # Observation is still safe -- only the exterior registers.
        relay.observe(envelope)
        assert SENSITIVE_DATA not in world.ledger.labels_of("Relay")

    def test_mix_rejects_garbage_payloads(self):
        world = World()
        network = Network()
        mix = MixNode(network, world.entity("Mix", "m-org"), "mix", "mk", batch_size=1)
        sender = network.add_host("s", world.entity("S", "dev", trusted_by_user=True))
        sender.send(
            mix.address,
            Sealed.wrap("mk", ["not a routing layer"]),
            MIX_PROTOCOL,
        )
        with pytest.raises(TypeError):
            network.run()
