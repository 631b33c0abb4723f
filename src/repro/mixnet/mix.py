"""Mix nodes and receivers.

A :class:`MixNode` implements Chaum's batching mix: it buffers incoming
onions, and when the batch fills it strips its layer from each,
shuffles them, and forwards -- the shuffle plus the per-hop
re-encryption is what "thwarts timing attacks by batch forwarding".
``batch_size=1`` degenerates to a low-latency onion router (Tor-style),
the tradeoff the D3 benchmark sweeps.
"""

from __future__ import annotations

import itertools
import random as _random
from typing import List, Optional, Tuple

from repro.core.entities import Entity
from repro.core.labels import NONSENSITIVE_DATA
from repro.core.values import LabeledValue, Sealed, Subject
from repro.net.addressing import Address
from repro.net.network import Network, SimHost
from repro.net.packets import Packet

from .onion import RoutingLayer
from .reply import DeliverBody, ReplyPacket

__all__ = ["MixNode", "MixReceiver", "MIX_PROTOCOL"]

MIX_PROTOCOL = "mix"

_chaff_ids = itertools.count(1)


def make_chaff(key_id: str, size_hint: int = 512) -> Sealed:
    """A dummy message: opaque, fixed-size, discardable by key holders.

    Section 4.3: mixes "add additional chaff to make traffic analysis
    more difficult in practice".  Chaff is indistinguishable from real
    traffic on the wire; the recipient recognizes and drops it.
    """
    filler = LabeledValue(
        payload="chaff-" + "0" * max(0, size_hint - 6) + f"-{next(_chaff_ids)}",
        label=NONSENSITIVE_DATA,
        subject=Subject("nobody"),
        description="chaff",
    )
    return Sealed.wrap(key_id, [filler], subject=Subject("nobody"), description="chaff")


class MixNode:
    """One batching mix: buffer, strip a layer, shuffle, forward."""

    def __init__(
        self,
        network: Network,
        entity: Entity,
        name: str,
        key_id: str,
        batch_size: int = 4,
        rng: Optional[_random.Random] = None,
        shuffle: bool = True,
        chaff_per_flush: int = 0,
        chaff_destination: Optional[Tuple[str, Address]] = None,
    ) -> None:
        """``chaff_per_flush`` dummy messages join (and shuffle with)
        every flushed batch, addressed to ``chaff_destination`` --
        a ``(key_id, address)`` of a recipient that will discard them."""
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if chaff_per_flush > 0 and chaff_destination is None:
            raise ValueError("chaff requires a destination")
        self.network = network
        self.entity = entity
        self.key_id = key_id
        self.batch_size = batch_size
        self.shuffle = shuffle  # False = FIFO ablation (A2)
        self.chaff_per_flush = chaff_per_flush
        self.chaff_destination = chaff_destination
        self.chaff_sent = 0
        self._rng = rng if rng is not None else _random.Random()
        entity.grant_key(key_id)
        self.host: SimHost = network.add_host(name, entity)
        self.host.register(MIX_PROTOCOL, self._handle)
        self._buffer: List[tuple] = []  # (next_hop, outbound payload)
        self.batches_flushed = 0
        self.messages_mixed = 0

    @property
    def address(self) -> Address:
        return self.host.address

    def _handle(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, ReplyPacket):
            # Reverse path: peel our layer of the return address and
            # forward the (still sealed) body alongside what remains.
            (layer,) = self.entity.unseal(payload.return_onion)
            if not isinstance(layer, RoutingLayer):
                raise TypeError("return address did not contain a routing layer")
            if isinstance(layer.inner, DeliverBody):
                outbound: object = payload.body  # final hop: deliver
            else:
                outbound = ReplyPacket(return_onion=layer.inner, body=payload.body)
            self._buffer.append((layer.next_hop, outbound))
        else:
            sealed: Sealed = payload
            (layer,) = self.entity.unseal(sealed)
            if not isinstance(layer, RoutingLayer):
                raise TypeError("mix received a non-routing payload")
            self._buffer.append((layer.next_hop, layer.inner))
        if len(self._buffer) >= self.batch_size:
            self.flush()
        return None  # one-way protocol, no auto-response

    def flush(self) -> int:
        """Shuffle and forward the current buffer; returns count sent."""
        batch, self._buffer = self._buffer, []
        if batch and self.chaff_per_flush > 0:
            key_id, destination = self.chaff_destination
            for _ in range(self.chaff_per_flush):
                batch.append((destination, make_chaff(key_id)))
                self.chaff_sent += 1
        if self.shuffle:
            self._rng.shuffle(batch)
        for next_hop, outbound in batch:
            self.host.send(next_hop, outbound, MIX_PROTOCOL)
        if batch:
            self.batches_flushed += 1
            self.messages_mixed += len(batch)
        return len(batch)

    @property
    def pending(self) -> int:
        return len(self._buffer)


class MixReceiver:
    """The message destination: unseals the core and keeps the text."""

    def __init__(
        self,
        network: Network,
        entity: Entity,
        name: str = "receiver",
        key_id: Optional[str] = None,
    ) -> None:
        self.entity = entity
        self.key_id = key_id if key_id is not None else f"recv:{name}"
        entity.grant_key(self.key_id)
        self.host: SimHost = network.add_host(name, entity)
        self.host.register(MIX_PROTOCOL, self._handle)
        self.received: List[LabeledValue] = []
        self.enclosures: List[object] = []  # e.g. return addresses
        #: When, and on which packet, each message in ``received`` arrived.
        self.delivery_times: List[float] = []
        self.packet_ids: List[int] = []
        self.chaff_dropped = 0

    @property
    def address(self) -> Address:
        return self.host.address

    def _handle(self, packet: Packet) -> None:
        sealed: Sealed = packet.payload
        contents = self.entity.unseal(sealed)
        message, *extras = contents
        if (
            isinstance(message, LabeledValue)
            and message.description == "chaff"
        ):
            self.chaff_dropped += 1
            return None
        self.received.append(message)
        self.enclosures.extend(extras)
        self.delivery_times.append(self.host.network.simulator.now)
        self.packet_ids.append(packet.packet_id)
        return None
