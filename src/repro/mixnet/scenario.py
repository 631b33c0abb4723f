"""The T2/F1 scenario: a mix-net run with batching and cover senders.

One *tracked* sender (the subject of the paper's table) plus enough
cover senders to fill mix batches, a configurable cascade of mixes each
run by its own organization, and a receiver.  Returns the analyzed
world plus end-to-end latency figures for the degree sweeps.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import metrics
from repro.core.analysis import DecouplingAnalyzer
from repro.core.labels import SENSITIVE_IDENTITY
from repro.core.values import LabeledValue, Subject
from repro.net.network import Network
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    register,
    run_scenario,
)

from .mix import MIX_PROTOCOL, MixNode, MixReceiver
from .onion import build_onion, make_message

__all__ = ["MixnetRun", "run_mixnet", "paper_table_t2"]


def paper_table_t2(mixes: int) -> Dict[str, str]:
    """The paper's section 3.1.2 table, generalized to ``mixes`` hops."""
    table = {"Sender": "(▲, ●)", "Mix 1": "(▲, ⊙)"}
    for index in range(2, mixes + 1):
        table[f"Mix {index}"] = "(△, ⊙)"
    table["Receiver"] = "(△, ●)"
    return table


def _mixnet_entities(params: Dict[str, object]) -> List[str]:
    mixes = params["mixes"]
    pool = params.get("mix_pool") or mixes
    return ["Sender"] + [f"Mix {i}" for i in range(1, pool + 1)] + ["Receiver"]


@dataclass
class MixnetRun(ScenarioRun):
    """Everything produced by one mix-net scenario run."""

    mixes: List[MixNode] = None  # type: ignore[assignment]
    receiver: MixReceiver = None  # type: ignore[assignment]
    tracked_subject: Subject = None  # type: ignore[assignment]
    senders: int = 0
    sender_send_times: Dict[Subject, float] = None  # type: ignore[assignment]
    table_entities: List[str] = field(default_factory=list)
    #: (outermost onion, innermost core) per message, send order.
    onion_map: List[tuple] = field(default_factory=list)
    #: Per-sender mix indices used (cascade: all identical).
    routes_used: List[List[int]] = field(default_factory=list)

    @property
    def table_title(self) -> str:
        return f"T2: mix-net ({len(self.mixes)} mixes)"

    @property
    def table_subject(self) -> Subject:
        return self.tracked_subject

    def ground_truth(self) -> Dict[int, int]:
        """Egress packet id -> ingress packet id, for the adversary eval.

        Uses the simulator's omniscient delivery log: the ingress
        packet carries the outermost onion object, the egress packet
        carries the core envelope object (same Python object end to
        end, re-wrapped only logically at each hop).
        """
        truth: Dict[int, int] = {}
        for onion, core in self.onion_map:
            ingress_id = egress_id = None
            for packet in self.network.delivered:
                if packet.payload is onion:
                    ingress_id = packet.packet_id
                if packet.dst == self.receiver.address and packet.payload is core:
                    egress_id = packet.packet_id
            if ingress_id is not None and egress_id is not None:
                truth[egress_id] = ingress_id
        return truth

    def anonymity_set_size(self) -> int:
        """How many senders each delivered message hides among.

        For single-batch rounds this is the batch occupancy: the paper's
        "anonymous member of a network aggregate".  Counted with
        :func:`repro.core.metrics.anonymity_set_size` over the senders
        that fit the first mix's batch.
        """
        if not self.mixes:
            return 1
        batch = list(self.sender_send_times or ())[: self.mixes[0].batch_size]
        return max(1, metrics.anonymity_set_size(batch))

    def anonymity_bits(self) -> float:
        return metrics.anonymity_bits(self.anonymity_set_size())

    def end_to_end_latency(self) -> float:
        """Mean delivery latency over all received messages."""
        if not self.receiver.delivery_times:
            return 0.0
        total = 0.0
        for when in self.receiver.delivery_times:
            total += when
        # Senders injected at staggered times; average against mean
        # injection time for a stable figure.
        mean_injection = sum(self.sender_send_times.values()) / len(
            self.sender_send_times
        )
        return total / len(self.receiver.delivery_times) - mean_injection


class MixnetProgram(ScenarioProgram):
    """Send one message per sender through a cascade of mixes.

    ``batch_size`` defaults to ``senders`` so every mix flushes exactly
    once -- the classic single-batch Chaum round.  Without
    ``use_padding``, message sizes vary per sender (realistic and
    exploitable by size correlation); with it, all payloads are padded
    to a constant cell size.

    ``mix_pool`` switches from a fixed cascade to *free routing* (the
    Tor/volunteer-network topology): ``mix_pool`` mixes exist and each
    sender picks a random ``mixes``-hop route through them.  The
    tracked sender's privacy then depends only on *its own* route --
    the paper's "multi-hop, volunteer network of decentralized nodes".
    """

    def validate(self) -> None:
        if self.params["senders"] < 1:
            raise ValueError("need at least one sender")
        mix_pool = self.params["mix_pool"]
        if mix_pool is not None and mix_pool < self.params["mixes"]:
            raise ValueError("mix_pool must be at least the route length")

    def make_network(self) -> Network:
        return Network(default_latency=self.params["link_latency"])

    def build(self) -> None:
        senders = self.param("senders")
        mixes = self.param("mixes")
        mix_pool = self.param("mix_pool")
        seed = self.param("seed")
        chaff_per_flush = self.param("chaff_per_flush")
        batch_size = self.param("batch_size")
        self.batch_size = senders if batch_size is None else batch_size

        # The tracked sender is the table's subject; covers fill the batch.
        self.subjects = [Subject("alice")] + [
            Subject(f"cover-{i}") for i in range(1, senders)
        ]
        self.sender_entities = []
        for index, subject in enumerate(self.subjects):
            org = "sender-device" if index == 0 else f"cover-device-{index}"
            self.sender_entities.append(
                self.world.entity(
                    "Sender" if index == 0 else f"Cover {index}",
                    org,
                    trusted_by_user=True,
                )
            )

        receiver_entity = self.world.entity("Receiver", "receiver-org")
        self.receiver = MixReceiver(self.network, receiver_entity, name="receiver")

        self.pool_size = mix_pool if mix_pool is not None else mixes
        self.mix_nodes: List[MixNode] = []
        for index in range(1, self.pool_size + 1):
            entity = self.world.entity(f"Mix {index}", f"mix-org-{index}")
            # Egress mixes inject chaff toward the receiver so their
            # output batches exceed their real input (section 4.3).  In a
            # cascade only the last node is an egress; in a free-route pool
            # any node can be, so all get the capability.
            is_egress_candidate = (mix_pool is not None) or index == mixes
            self.mix_nodes.append(
                MixNode(
                    self.network,
                    entity,
                    name=f"mix-{index}",
                    key_id=f"mix-key-{index}",
                    batch_size=self.batch_size,
                    rng=_random.Random(seed + index),
                    shuffle=self.param("shuffle"),
                    chaff_per_flush=chaff_per_flush if is_egress_candidate else 0,
                    chaff_destination=(self.receiver.key_id, self.receiver.address)
                    if is_egress_candidate and chaff_per_flush
                    else None,
                )
            )

    def drive(self) -> None:
        mixes = self.param("mixes")
        mix_pool = self.param("mix_pool")
        seed = self.param("seed")
        use_padding = self.param("use_padding")

        cascade_route = [(node.key_id, node.address) for node in self.mix_nodes[:mixes]]
        route_rng = _random.Random(seed * 7 + 1)
        self.send_times: Dict[Subject, float] = {}
        self.onions: List[tuple] = []
        self.routes_used: List[List[int]] = []
        for index, (subject, entity) in enumerate(
            zip(self.subjects, self.sender_entities)
        ):
            identity = LabeledValue(
                payload=f"sender-ip-{index}",
                label=SENSITIVE_IDENTITY,
                subject=subject,
                description="sender network address",
            )
            host = self.network.add_host(f"sender-{index}", entity, identity=identity)
            text = f"dear receiver, from {subject}: " + "x" * (8 + 32 * index)
            if use_padding:
                text = text.ljust(512, ".")
            message = make_message(text, subject)
            entity.observe([identity, message], channel="self", session=f"send-{index}")
            if mix_pool is not None:
                chosen = route_rng.sample(range(self.pool_size), mixes)
                self.routes_used.append(chosen)
                route = [
                    (self.mix_nodes[i].key_id, self.mix_nodes[i].address)
                    for i in chosen
                ]
            else:
                self.routes_used.append(list(range(mixes)))
                route = cascade_route
            onion = build_onion(
                route, self.receiver.key_id, self.receiver.address, message
            )
            core = onion
            while hasattr(core, "contents") and core.contents and hasattr(
                core.contents[0], "inner"
            ):
                core = core.contents[0].inner
            self.onions.append((onion, core))
            when = index * 0.001  # staggered injection
            self.send_times[subject] = when
            first_hop = route[0][1]
            self.network.simulator.at(
                when,
                lambda h=host, o=onion, fh=first_hop: h.send(fh, o, MIX_PROTOCOL),
            )

    def settle(self) -> None:
        # Flush partial batches until every mix is empty: a partial
        # batch can reach mix k+1 after that mix flushed.  Routes are
        # finite and chaff goes only to the receiver, so this ends.
        self.network.run()
        while any(node.pending for node in self.mix_nodes):
            for node in self.mix_nodes:
                node.flush()
            self.network.run()

    def analyze(self) -> MixnetRun:
        entity_order = (
            ["Sender"]
            + [f"Mix {i}" for i in range(1, self.pool_size + 1)]
            + ["Receiver"]
        )
        return MixnetRun(
            world=self.world,
            network=self.network,
            mixes=self.mix_nodes,
            receiver=self.receiver,
            analyzer=DecouplingAnalyzer(self.world),
            tracked_subject=self.subjects[0],
            senders=self.param("senders"),
            sender_send_times=self.send_times,
            table_entities=entity_order,
            onion_map=self.onions,
            routes_used=self.routes_used,
        )


register(
    ScenarioSpec(
        id="mixnet",
        title="Mix-net, 3 mixes (3.1.2)",
        program=MixnetProgram,
        params=(
            Param("mixes", 3, "mixes per route (cascade length)"),
            Param("senders", 4, "senders (1 tracked + covers)"),
            Param("batch_size", None, "mix batch size (None: one batch per round)"),
            Param("seed", 20221114, "per-run RNG seed for shuffles and routes"),
            Param("link_latency", 0.010, "per-link latency in seconds"),
            Param("use_padding", False, "pad payloads to a constant cell size"),
            Param("shuffle", True, "shuffle batches before flushing"),
            Param("chaff_per_flush", 0, "chaff messages injected per egress flush"),
            Param("mix_pool", None, "free-route pool size (None: fixed cascade)"),
        ),
        expected=lambda params: paper_table_t2(params["mixes"]),
        entities=_mixnet_entities,
        table_constant="paper_table_t2(mixes)",
        experiment_id="T2",
        order=20.0,
    )
)


def run_mixnet(
    mixes: int = 3,
    senders: int = 4,
    batch_size: Optional[int] = None,
    seed: int = 20221114,
    link_latency: float = 0.010,
    use_padding: bool = False,
    shuffle: bool = True,
    chaff_per_flush: int = 0,
    mix_pool: Optional[int] = None,
) -> MixnetRun:
    """Send one message per sender through a cascade of ``mixes``."""
    return run_scenario(
        "mixnet",
        mixes=mixes,
        senders=senders,
        batch_size=batch_size,
        seed=seed,
        link_latency=link_latency,
        use_padding=use_padding,
        shuffle=shuffle,
        chaff_per_flush=chaff_per_flush,
        mix_pool=mix_pool,
    )
