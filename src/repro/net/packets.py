"""Packets: the unit of simulated transmission.

A packet carries an arbitrary payload structure (labeled values and
sealed envelopes from :mod:`repro.core.values`), a protocol tag, a
size in bytes (estimated from the payload when not given), and the
request/response bookkeeping used by
:meth:`repro.net.network.Network.transact`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.values import Aggregate, LabeledValue, Sealed

from .addressing import Address

__all__ = ["Packet", "estimate_size"]

_SEALED_OVERHEAD = 48  # encapsulated key + AEAD tag, roughly
_DEFAULT_ITEM_SIZE = 16


def estimate_size(payload: Any) -> int:
    """A byte-size estimate for a payload structure.

    Real enough for bandwidth-overhead comparisons: bytes and strings
    count their length, sealed envelopes add header overhead, numbers
    count as words.

    Sizes of :class:`Sealed` and :class:`LabeledValue` instances are
    memoized on the instance (both are immutable), so an onion that is
    forwarded through five hops is walked once, not five times.
    """
    # Exact-class checks first: payload trees are built from these
    # concrete classes and ``cls is X`` beats the isinstance ladder.
    cls = payload.__class__
    if cls is LabeledValue:
        size = payload._size_cache
        if size is None:
            size = estimate_size(payload.payload)
            payload._size_cache = size
        return size
    if cls is Sealed:
        size = payload._size_cache
        if size is None:
            size = _SEALED_OVERHEAD + sum(
                estimate_size(c) for c in payload.contents
            )
            payload._size_cache = size
        return size
    if cls is str:
        return len(payload.encode("utf-8"))
    if cls is bytes:
        return len(payload)
    if cls is tuple or cls is list:
        return sum(estimate_size(item) for item in payload)
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, (payload.bit_length() + 7) // 8)
    if isinstance(payload, float):
        return 8
    if isinstance(payload, LabeledValue):
        size = payload._size_cache
        if size is None:
            size = estimate_size(payload.payload)
            payload._size_cache = size
        return size
    if isinstance(payload, Sealed):
        size = payload._size_cache
        if size is None:
            size = _SEALED_OVERHEAD + sum(
                estimate_size(c) for c in payload.contents
            )
            payload._size_cache = size
        return size
    if isinstance(payload, Aggregate):
        return 8 * max(1, len(payload.contributors))
    if isinstance(payload, dict):
        return sum(
            estimate_size(k) + estimate_size(v)
            for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in payload)
    return _DEFAULT_ITEM_SIZE


@dataclass(slots=True)
class Packet:
    """One simulated datagram/stream chunk.

    ``packet_id`` is a required field: ids are issued by the owning
    :class:`~repro.net.network.Network`'s per-instance counter so that
    two runs in one process produce byte-identical traces.  (An earlier
    module-global fallback counter leaked state across runs whenever a
    packet was built outside a network.)
    """

    src: Address
    dst: Address
    protocol: str
    payload: Any
    size: int
    packet_id: int
    sender_identity: Optional[LabeledValue] = None
    request_id: Optional[int] = None
    response_to: Optional[int] = None
    sent_at: float = 0.0
    flow: Optional[str] = None
    _session: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def session(self) -> str:
        """The linkage-session tag observations of this packet carry.

        Computed once and cached: the same string object is handed to
        every observation of this packet, so downstream dict keys hash
        an already-seen instance.
        """
        session = self._session
        if session is None:
            session = (
                self.flow if self.flow is not None else f"pkt:{self.packet_id}"
            )
            self._session = session
        return session

    @property
    def is_response(self) -> bool:
        return self.response_to is not None

    def __str__(self) -> str:
        kind = f"resp->{self.response_to}" if self.is_response else f"req#{self.request_id}"
        return (
            f"Packet({self.protocol} {self.src}->{self.dst} "
            f"{self.size}B {kind})"
        )
