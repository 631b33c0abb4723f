"""The simulated network: hosts, links, delivery, observation.

A star of point-to-point links with per-pair latencies.  Delivery of a
packet does four things, in order:

1. the traffic trace records the packet's wire metadata;
2. every matching wire observer observes the payload *exterior* (taps
   hold no decryption keys) plus the sender identity, if the sending
   host exposes one (a user device's source address);
3. the destination host's entity observes the payload through its own
   keyring, and the sender identity;
4. the destination host's protocol handler runs; a non-``None`` return
   value is sent back as a response packet.

``transact`` layers a synchronous request/response call on top, so
protocol models read like ordinary code while the clock and trace stay
consistent.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.entities import Entity
from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry
from repro.obs.tracing import NOOP_SPAN, get_tracer

from .addressing import Address, AddressAllocator
from .packets import Packet, estimate_size
from .sim import Simulator
from .trace import TrafficTrace

__all__ = ["Network", "SimHost", "TransactTimeout", "WireObserver"]

Handler = Callable[[Packet], Any]

#: Cap on the network's ``_Delivery`` free list.  In-flight fan-out
#: beyond this just allocates fresh events.
_DELIVERY_POOL_LIMIT = 1024


class _Delivery:
    """A slotted, reusable delivery event: one per packet copy.

    ``send`` schedules one of these per copy instead of a closure: the
    arguments live in slots rather than captured cells, and after
    firing the event returns to the owning network's free list to be
    re-armed by the next ``send`` -- steady-state scheduling allocates
    no closures.  ``origin`` is the span active at send time and
    ``traced`` the sampler's send-time decision (``None`` when the
    copy decides when it fires).
    """

    __slots__ = ("network", "packet", "origin", "traced")

    def __init__(
        self,
        network: "Network",
        packet: Optional[Packet],
        origin: Any,
        traced: Optional[bool],
    ) -> None:
        self.network = network
        self.packet = packet
        self.origin = origin
        self.traced = traced

    def __call__(self) -> None:
        network = self.network
        packet, origin, traced = self.packet, self.origin, self.traced
        self.packet = self.origin = None
        pool = network._delivery_pool
        if len(pool) < _DELIVERY_POOL_LIMIT:
            pool.append(self)
        network._deliver(packet, origin, traced)


class TransactTimeout(RuntimeError):
    """A ``transact`` deadline expired with no response.

    Subclasses :class:`RuntimeError` so callers that treated a lost
    request as a generic simulator stall keep working; resilience
    policies catch this precisely to drive retry/fallback.
    """


class SimHost:
    """A network endpoint bound to an observing entity.

    ``identity`` is the labeled identity value that receiving a packet
    from this host reveals (a user device sets its owner's sensitive
    network identity; infrastructure hosts usually set none).
    """

    def __init__(
        self,
        name: str,
        entity: Entity,
        address: Address,
        network: "Network",
        identity: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.entity = entity
        self.address = address
        self.network = network
        self.identity = identity
        self._handlers: Dict[str, Handler] = {}

    def register(self, protocol: str, handler: Handler) -> None:
        """Install the handler for one protocol tag."""
        if protocol in self._handlers:
            raise ValueError(f"{self.name} already handles {protocol!r}")
        self._handlers[protocol] = handler

    def send(
        self,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        flow: Optional[str] = None,
    ) -> Packet:
        """Fire-and-forget one-way send; returns the packet sent."""
        return self.network.send(self, dst, payload, protocol, size=size, flow=flow)

    def transact(
        self,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        flow: Optional[str] = None,
    ) -> Any:
        """Synchronous request/response; returns the response payload."""
        return self.network.transact(
            self, dst, payload, protocol, size=size, flow=flow
        )

    def __repr__(self) -> str:
        return f"SimHost({self.name!r}@{self.address})"


class WireObserver:
    """A passive tap: an entity that sees wire metadata and exteriors.

    ``prefixes`` restricts the tap to packets whose source or
    destination prefix matches (a tap inside one operator's network);
    by default the tap is global.
    """

    def __init__(
        self,
        entity: Entity,
        prefixes: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.entity = entity
        self.prefixes = prefixes
        self.trace = TrafficTrace()

    def notice(self, packet: Packet, time: float) -> None:
        self.trace.append(
            time, packet.src, packet.dst, packet.size, packet.protocol, packet.packet_id
        )
        if packet.sender_identity is not None:
            self.entity.observe(
                packet.sender_identity,
                time=time,
                channel="wire",
                session=packet.session,
                packet_id=packet.packet_id,
            )
        self.entity.observe(
            packet.payload,
            time=time,
            channel="wire",
            session=packet.session,
            packet_id=packet.packet_id,
        )


class Network:
    """The routing fabric plus the global trace and observer list."""

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        default_latency: float = 0.010,
    ) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        self.default_latency = default_latency
        self.packets_dropped = 0
        self.allocator = AddressAllocator()
        self.trace = TrafficTrace()
        self._hosts: Dict[Address, SimHost] = {}
        self._latencies: Dict[frozenset, float] = {}
        self._observers: List[WireObserver] = []
        self._responses: Dict[int, Any] = {}
        # ``_observer_cache`` pre-resolves the observer list per
        # (src-prefix, dst-prefix) pair; ``_latency_cache`` keys the
        # per-pair latency by the ordered address tuple (no frozenset
        # allocation per send).  Both are pure memoizations,
        # invalidated on topology mutation.
        self._observer_cache: Dict[Tuple[str, str], Tuple["WireObserver", ...]] = {}
        self._latency_cache: Dict[Tuple[Address, Address], float] = {}
        self._delivery_pool: List[_Delivery] = []
        #: Delivery events fired, dropped-on-arrival ones included.  Kept
        #: for benchmark tooling, which reads it and cross-checks it
        #: against the delivery events it sees scheduled.
        self.fast_deliveries = 0
        # Per-network id counters: two identical runs on two Network
        # instances assign identical packet/request ids, which keeps
        # exported traces and provenance records byte-reproducible
        # (a module-global counter would leak state between runs).
        self._packet_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self.messages_delivered = 0
        self.bytes_delivered = 0
        # Conservation accounting: at every instant,
        #   packets_sent + packets_duplicated
        #     == messages_delivered + packets_dropped + packets_in_flight
        # (property-tested in tests/test_properties_network.py).
        self.packets_sent = 0
        self.packets_duplicated = 0
        self.packets_in_flight = 0
        #: Optional fault injector (see :mod:`repro.faults.runtime`):
        #: consulted on every send (loss/duplication/reordering/jitter)
        #: and every delivery (crashes, partitions).  ``None`` -- the
        #: default -- is a zero-overhead pass-through.
        self._fault_injector: Optional[Any] = None
        #: When set, ``transact`` raises :class:`TransactTimeout` after
        #: this many simulated seconds without a response instead of
        #: stalling until the queue drains.
        self.transact_timeout: Optional[float] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_host(
        self,
        name: str,
        entity: Entity,
        prefix: Optional[str] = None,
        identity: Optional[Any] = None,
    ) -> SimHost:
        """Create a host on a (possibly fresh) network prefix."""
        if prefix is None:
            prefix = self.allocator.network_prefix()
        address = self.allocator.allocate(prefix)
        host = SimHost(name, entity, address, self, identity=identity)
        self._hosts[address] = host
        return host

    def host_at(self, address: Address) -> SimHost:
        try:
            return self._hosts[address]
        except KeyError:
            raise KeyError(f"no host at {address}") from None

    def set_latency(self, a: Address, b: Address, latency: float) -> None:
        """Override the one-way latency between two hosts."""
        self._latencies[frozenset((a, b))] = latency
        self._latency_cache.clear()

    def latency(self, a: Address, b: Address) -> float:
        """The one-way latency from ``a`` to ``b`` (memoized)."""
        key = (a, b)
        cached = self._latency_cache.get(key)
        if cached is None:
            cached = self._latencies.get(frozenset(key), self.default_latency)
            self._latency_cache[key] = cached
        return cached

    def add_observer(self, observer: WireObserver) -> None:
        self._observers.append(observer)
        self._observer_cache.clear()

    def _observers_for(
        self, src_prefix: str, dst_prefix: str
    ) -> Tuple[WireObserver, ...]:
        """The observers watching this prefix pair (memoized)."""
        key = (src_prefix, dst_prefix)
        observers = self._observer_cache.get(key)
        if observers is None:
            observers = tuple(
                o
                for o in self._observers
                if o.prefixes is None
                or src_prefix in o.prefixes
                or dst_prefix in o.prefixes
            )
            self._observer_cache[key] = observers
        return observers

    def hosts(self) -> List[SimHost]:
        """Every host, in address-allocation order."""
        return list(self._hosts.values())

    def set_fault_injector(self, injector: Any) -> None:
        """Install the (single) fault injector for this network."""
        if self._fault_injector is not None:
            raise RuntimeError("network already has a fault injector")
        self._fault_injector = injector

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def send(
        self,
        src_host: SimHost,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        request_id: Optional[int] = None,
        response_to: Optional[int] = None,
        flow: Optional[str] = None,
    ) -> Packet:
        """Schedule a one-way packet; returns it (already in flight).

        ``flow`` (optional) names a multi-packet interaction so that
        observations from its packets stay linkable at the receiver --
        a TLS session, a cellular attach procedure.
        """
        packet = Packet(
            src=src_host.address,
            dst=dst,
            protocol=protocol,
            payload=payload,
            size=size if size is not None else estimate_size(payload),
            packet_id=next(self._packet_ids),
            sender_identity=src_host.identity,
            request_id=request_id,
            response_to=response_to,
            sent_at=self.simulator.now,
            flow=flow,
        )
        self.packets_sent += 1
        delay = self.latency(src_host.address, dst)
        injector = self._fault_injector
        if injector is None and not _obs.ENABLED:
            # Exactly one copy: the sampler (``sampled`` tier only)
            # decides here, once per packet, and a traced copy keeps
            # the span active now as its causal parent.
            sampler = _obs.SAMPLER
            if sampler is not None and sampler.decide("deliver"):
                self._schedule(delay, packet, get_tracer().current_span(), True)
            else:
                self._schedule(delay, packet, None, False)
            return packet
        delays = (delay,)
        if injector is not None:
            impaired = injector.on_send(packet, delay)
            if impaired is not None:
                if not impaired:
                    self._count_dropped()
                    return packet  # injected loss / crash / partition
                delays = impaired
                self.packets_duplicated += len(delays) - 1
        # Each copy decides whether to trace when it fires.  Capture the
        # span active *now* so a traced delivery -- which fires later,
        # outside any ``with`` block -- still links causally to
        # whatever sent it.
        origin = get_tracer().current_span() if _obs.TRACING else None
        for copy_delay in delays:
            self._schedule(copy_delay, packet, origin, None)
        return packet

    def _schedule(
        self, delay: float, packet: Packet, origin: Any, traced: Optional[bool]
    ) -> None:
        """Put one copy of ``packet`` on the wire as a pooled event."""
        self.packets_in_flight += 1
        pool = self._delivery_pool
        if pool:
            event = pool.pop()
            event.packet = packet
            event.origin = origin
            event.traced = traced
        else:
            event = _Delivery(self, packet, origin, traced)
        self.simulator.schedule(delay, event)

    def _count_dropped(self) -> None:
        self.packets_dropped += 1
        if _obs.COUNTERS:
            get_registry().dropped += 1

    def _deliver(self, packet: Packet, origin: Any, traced: Optional[bool]) -> None:
        """Fire one delivery event.

        The fault check and the ``full``-mode check happen at *fire*
        time, so an injector installed -- or ``full`` tracing enabled
        -- while the packet was on the wire still applies to it.
        """
        self.packets_in_flight -= 1
        self.fast_deliveries += 1
        injector = self._fault_injector
        if injector is not None and not injector.on_deliver(packet):
            # The destination crashed (or the link partitioned) while
            # this packet was on the wire.
            self._count_dropped()
            return
        if _obs.COUNTERS:
            get_registry().note_delivery(
                packet.size, self.simulator.now - packet.sent_at
            )
        if _obs.ENABLED:
            traced = True
        elif traced is None:
            sampler = _obs.SAMPLER
            traced = sampler is not None and sampler.decide("deliver")
        if traced:
            self._arrive_traced(packet, origin)
            return
        self._arrive(packet)

    def _arrive_traced(self, packet: Packet, origin_span: Any) -> None:
        """:meth:`_arrive` inside a ``deliver`` span."""
        tracer = get_tracer()
        # A delivery whose origin lies outside the network layer (a
        # one-way ``send`` from protocol or scenario code) gets a
        # synthetic ``transact`` wrapper so every delivery span sits
        # under a transact ancestor, mirroring the request/response
        # case.  Deliveries caused by other network activity (mix
        # forwarding, responses) parent to the originating span.
        parent = origin_span
        wrapper = None
        if parent is None or getattr(parent, "kind", "") != "net":
            wrapper = tracer.span(
                "transact",
                kind="net",
                sim_time=packet.sent_at,
                parent=parent,
                protocol=packet.protocol,
                one_way=True,
            )
            wrapper.__enter__()
            parent = wrapper
        span = tracer.span(
            "deliver",
            kind="net",
            sim_time=packet.sent_at,
            parent=parent,
            src=str(packet.src),
            dst=str(packet.dst),
            protocol=packet.protocol,
            bytes=packet.size,
            packet_id=packet.packet_id,
        )
        try:
            with span:
                self._arrive(packet)
                span.end_sim(self.simulator.now)
        finally:
            if wrapper is not None:
                wrapper.end_sim(self.simulator.now)
                wrapper.__exit__(None, None, None)

    def _arrive(self, packet: Packet) -> None:
        """The arrival body: the four delivery steps of the module doc."""
        now = self.simulator.now
        self.trace.append(
            now, packet.src, packet.dst, packet.size, packet.protocol, packet.packet_id
        )
        observers = self._observers_for(packet.src.prefix, packet.dst.prefix)
        if observers:
            for observer in observers:
                observer.notice(packet, now)
        host = self._hosts.get(packet.dst)
        if host is None:
            self.host_at(packet.dst)  # raises the canonical KeyError
        session = packet.session
        packet_id = packet.packet_id
        entity = host.entity
        if packet.sender_identity is not None:
            entity.observe(
                packet.sender_identity,
                time=now,
                channel="network-header",
                session=session,
                packet_id=packet_id,
            )
        entity.observe(
            packet.payload,
            time=now,
            channel=packet.protocol,
            session=session,
            packet_id=packet_id,
        )
        self.messages_delivered += 1
        self.bytes_delivered += packet.size

        if packet.response_to is not None:
            self._responses[packet.response_to] = packet.payload
            return
        handler = host._handlers.get(packet.protocol)
        if handler is None:
            raise KeyError(
                f"host {host.name} has no handler for {packet.protocol!r}"
            )
        result = handler(packet)
        if result is not None and packet.request_id is not None:
            self.send(
                host,
                packet.src,
                result,
                packet.protocol,
                response_to=packet.request_id,
                flow=packet.flow,
            )

    def transact(
        self,
        src_host: SimHost,
        dst: Address,
        payload: Any,
        protocol: str,
        size: Optional[int] = None,
        flow: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Send a request and pump the simulation until its response.

        Nested calls from inside handlers are fine (the simulator's
        ``run_until`` is re-entrant), so a resolver may ``transact``
        upstream while serving a client's ``transact``.

        ``timeout`` (or, when ``None``, the network-wide
        ``transact_timeout``) bounds the wait in simulated seconds;
        expiry raises :class:`TransactTimeout`.  With no timeout a
        lost request stalls until the queue drains, which raises the
        simulator's generic idle error.
        """
        request_id = next(self._request_ids)
        effective = timeout if timeout is not None else self.transact_timeout
        simulator = self.simulator
        responses = self._responses
        # The span is hoisted behind the obs gates: with tracing off
        # (or this transact unsampled) the shared NOOP_SPAN stands in,
        # so the hot path pays two module-attribute reads -- no tracer
        # fetch, no kwargs dict, no ``str()`` of either address.
        if _obs.ENABLED or (
            _obs.SAMPLER is not None and _obs.SAMPLER.decide("transact")
        ):
            span = get_tracer().span(
                "transact",
                kind="net",
                sim_time=simulator.now,
                src=str(src_host.address),
                dst=str(dst),
                protocol=protocol,
            )
        else:
            span = NOOP_SPAN
        with span:
            self.send(
                src_host,
                dst,
                payload,
                protocol,
                size=size,
                request_id=request_id,
                flow=flow,
            )
            if effective is None:
                simulator.run_until(lambda: request_id in responses)
            else:
                deadline = simulator.now + effective
                # The deadline marker keeps the queue non-empty up to
                # the deadline, so ``run_until`` times out instead of
                # raising its generic idle error.  It is canceled on
                # the success path so completed transacts leave no
                # dead heap entries behind.
                marker = simulator.marker_at(deadline)
                simulator.run_until(
                    lambda: request_id in responses
                    or simulator.now >= deadline
                )
                if request_id not in responses:
                    span.end_sim(simulator.now)
                    raise TransactTimeout(
                        f"no response to {protocol!r} request from {dst}"
                        f" within {effective:g}s"
                    )
                simulator.cancel(marker)
            span.end_sim(simulator.now)
            return responses.pop(request_id)

    def run(self) -> int:
        """Pump until idle (for one-way protocols such as mixing)."""
        return self.simulator.run_until_idle()
