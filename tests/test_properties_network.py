"""Property-based tests of network/simulator invariants.

The second half targets the fault runtime: packet conservation under
arbitrary fault plans (checked at every simulator event, not just at
quiescence), duplication bounds, and seed determinism down to the
byte-exact wire trace.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.entities import World
from repro.core.labels import SENSITIVE_DATA
from repro.core.values import LabeledValue, Subject
from repro.faults import FaultPlan, FaultRuntime, HostCrash, LinkFault, Partition
from repro.net.network import Network

ALICE = Subject("alice")

_HOST_NAMES = ("h0", "h1", "h2")

_rates = st.floats(min_value=0.0, max_value=0.9)

_link_faults = st.builds(
    LinkFault,
    src=st.sampled_from(("*",) + _HOST_NAMES),
    dst=st.sampled_from(("*",) + _HOST_NAMES),
    loss=_rates,
    duplicate=_rates,
    reorder=_rates,
    jitter=st.floats(min_value=0.0, max_value=0.05),
)

_crashes = st.builds(
    HostCrash,
    host=st.sampled_from(_HOST_NAMES),
    at=st.floats(min_value=0.0, max_value=0.5),
)

_partitions = st.builds(
    Partition,
    a=st.just(("h0",)),
    b=st.sampled_from((("h1",), ("h2",), ("h1", "h2"))),
    start=st.floats(min_value=0.0, max_value=0.3),
    end=st.just(None),
)

_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=999),
    links=st.lists(_link_faults, max_size=3).map(tuple),
    crashes=st.lists(_crashes, max_size=2).map(tuple),
    partitions=st.lists(_partitions, max_size=1).map(tuple),
)


def _run_under_plan(plan, messages, workload_seed, check_hook=None):
    """Drive a 3-host one-way workload under ``plan``; return the network."""
    world = World()
    network = Network()
    endpoints = []
    for index, name in enumerate(_HOST_NAMES):
        entity = world.entity(f"H{index}", f"org-{index}")
        host = network.add_host(name, entity)
        host.register("p", lambda pkt: None)
        endpoints.append(host)
    FaultRuntime(plan, network).install()
    if check_hook is not None:
        network.simulator.add_hook(check_hook(network))
    rng = random.Random(workload_seed)
    for message_index in range(messages):
        src, dst = rng.sample(range(len(endpoints)), 2)
        endpoints[src].send(endpoints[dst].address, f"m{message_index}", "p")
    network.run()
    return network


class TestDeliveryInvariants:
    @given(
        hosts=st.integers(min_value=2, max_value=6),
        messages=st.integers(min_value=0, max_value=30),
        latency=st.floats(min_value=0.001, max_value=0.5),
        data=st.data(),
    )
    @settings(max_examples=20)
    def test_lossless_networks_conserve_messages(self, hosts, messages, latency, data):
        """Every sent packet is delivered exactly once, in time order."""
        world = World()
        network = Network(default_latency=latency)
        endpoints = []
        for index in range(hosts):
            entity = world.entity(f"H{index}", f"org-{index}")
            host = network.add_host(f"h{index}", entity)
            host.register("p", lambda pkt: None)
            endpoints.append(host)
        for message_index in range(messages):
            src = data.draw(st.integers(min_value=0, max_value=hosts - 1))
            dst = data.draw(st.integers(min_value=0, max_value=hosts - 1))
            if src == dst:
                dst = (dst + 1) % hosts
            endpoints[src].send(
                endpoints[dst].address, f"m{message_index}", "p"
            )
        network.run()
        assert network.messages_delivered == messages
        assert len(network.trace) == messages
        times = [record.time for record in network.trace]
        assert times == sorted(times)

    @given(
        loss=st.floats(min_value=0.1, max_value=0.9),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15)
    def test_lossy_networks_never_duplicate(self, loss, seed):
        """delivered + dropped == sent, always."""
        world = World()
        network = Network()
        a = network.add_host("a", world.entity("A", "a-org"))
        b = network.add_host("b", world.entity("B", "b-org"))
        b.register("p", lambda pkt: None)
        FaultRuntime(FaultPlan.uniform_loss(loss, seed=seed), network).install()
        sent = 25
        for index in range(sent):
            a.send(b.address, index, "p")
        network.run()
        assert network.messages_delivered + network.packets_dropped == sent

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=10)
    def test_observation_count_scales_with_labeled_values(self, count):
        """Each delivered labeled value produces exactly one observation."""
        world = World()
        network = Network()
        a = network.add_host("a", world.entity("A", "a-org"))
        b = network.add_host("b", world.entity("B", "b-org"))
        b.register("p", lambda pkt: None)
        payload = [
            LabeledValue(f"v{i}", SENSITIVE_DATA, ALICE, f"item {i}")
            for i in range(count)
        ]
        a.send(b.address, payload, "p")
        network.run()
        assert len(world.ledger.by_entity("B")) == count

    @given(
        latency_ab=st.floats(min_value=0.001, max_value=0.2),
        latency_ba=st.floats(min_value=0.001, max_value=0.2),
    )
    @settings(max_examples=10)
    def test_transact_rtt_is_sum_of_one_way_latencies(self, latency_ab, latency_ba):
        world = World()
        network = Network()
        a = network.add_host("a", world.entity("A", "a-org"))
        b = network.add_host("b", world.entity("B", "b-org"))
        b.register("p", lambda pkt: "pong")
        # A symmetric override (one pair key) models the link.
        network.set_latency(a.address, b.address, latency_ab)
        start = network.simulator.now
        a.transact(b.address, "ping", "p")
        elapsed = network.simulator.now - start
        assert abs(elapsed - 2 * latency_ab) < 1e-9


class TestFaultRuntimeInvariants:
    """Conservation, bounds, and determinism under arbitrary fault plans."""

    @given(plan=_plans, messages=st.integers(min_value=0, max_value=25))
    @settings(max_examples=25)
    def test_conservation_holds_at_every_event(self, plan, messages):
        """sent + duplicated == delivered + dropped + in-flight, always.

        The invariant is asserted before *every* simulator event, not
        just at quiescence, so a counter that momentarily drifts (e.g. a
        drop recorded without retiring the in-flight copy) fails fast.
        """

        def check_hook(network):
            def check(time, callback):
                assert (
                    network.packets_sent + network.packets_duplicated
                    == network.messages_delivered
                    + network.packets_dropped
                    + network.packets_in_flight
                )

            return check

        network = _run_under_plan(plan, messages, workload_seed=7, check_hook=check_hook)
        assert network.packets_in_flight == 0
        assert (
            network.packets_sent + network.packets_duplicated
            == network.messages_delivered + network.packets_dropped
        )

    @given(plan=_plans, messages=st.integers(min_value=0, max_value=25))
    @settings(max_examples=25)
    def test_duplication_bounds(self, plan, messages):
        """One send yields at most one extra copy; deliveries never exceed copies."""
        network = _run_under_plan(plan, messages, workload_seed=11)
        assert network.packets_sent == messages
        assert network.packets_duplicated <= network.packets_sent
        assert (
            network.messages_delivered
            <= network.packets_sent + network.packets_duplicated
        )
        if plan.is_null():
            assert network.messages_delivered == messages
            assert network.packets_dropped == 0
            assert network.packets_duplicated == 0

    @given(plan=_plans, messages=st.integers(min_value=1, max_value=25))
    @settings(max_examples=20)
    def test_same_seed_same_wire_trace(self, plan, messages):
        """Identical plan + workload ⇒ byte-identical event order."""
        first = _run_under_plan(plan, messages, workload_seed=13)
        second = _run_under_plan(plan, messages, workload_seed=13)
        assert first.trace.to_jsonl() == second.trace.to_jsonl()
        assert first.messages_delivered == second.messages_delivered
        assert first.packets_dropped == second.packets_dropped
        assert first.packets_duplicated == second.packets_duplicated

    @given(seed_a=st.integers(0, 500), seed_b=st.integers(501, 1000))
    @settings(max_examples=10)
    def test_plan_seed_is_independent_of_global_rng(self, seed_a, seed_b):
        """The fault RNG is plan-owned: global random state cannot perturb it."""
        plan = FaultPlan(seed=42, links=(LinkFault(loss=0.4, duplicate=0.3),))
        random.seed(seed_a)
        first = _run_under_plan(plan, 20, workload_seed=3)
        random.seed(seed_b)
        second = _run_under_plan(plan, 20, workload_seed=3)
        assert first.trace.to_jsonl() == second.trace.to_jsonl()
