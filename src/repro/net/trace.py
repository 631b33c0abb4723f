"""Traffic traces: what a passive wire observer records.

Encryption hides payloads but not *that a packet of some size crossed a
link at some time* (paper section 4.3).  Every delivery appends one
record's wire metadata to the network's :class:`TrafficTrace`; the
timing-correlation adversary (:mod:`repro.adversary.timing`) works from
these records alone.

A trace keeps its records as typed columns, not as one object per
delivery: a long run's trace then costs a few dozen bytes per record
and gives the cyclic garbage collector nothing to walk.  A
:class:`PacketRecord` is built only when a caller reads one.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .addressing import Address

__all__ = ["PacketRecord", "TrafficTrace"]


@dataclass(slots=True)
class PacketRecord:
    """The metadata one packet leaks to a wire observer.

    Slotted but deliberately not frozen: the frozen machinery would
    route all six constructor stores through ``object.__setattr__``,
    and a trace builds one record per row it is asked for.  Treat
    instances as immutable; nothing mutates one after construction.
    """

    time: float
    src: Address
    dst: Address
    size: int
    protocol: str
    packet_id: int


class TrafficTrace:
    """An append-only sequence of packet records, kept as columns.

    Each record is one row of four ``array`` columns: time, link, size
    and packet id.  A *link* is one distinct (source, destination,
    protocol) triple, numbered in order of first appearance; a run has
    few of them, so the link column is what keeps addresses and
    protocol tags out of the per-record cost.
    """

    __slots__ = (
        "_times", "_links", "_sizes", "_packet_ids", "_link_table", "_link_ids"
    )

    def __init__(self) -> None:
        self._times = array("d")
        self._links = array("i")
        self._sizes = array("q")
        self._packet_ids = array("q")
        #: Link number -> (src, dst, protocol).
        self._link_table: List[Tuple[Address, Address, str]] = []
        #: (src value, dst value, protocol) -> link number.  Keyed by
        #: the address strings, whose hashes are cached, rather than by
        #: the addresses themselves.
        self._link_ids: Dict[Tuple[str, str, str], int] = {}

    def append(
        self,
        time: float,
        src: Address,
        dst: Address,
        size: int,
        protocol: str,
        packet_id: int,
    ) -> None:
        """Record one packet's wire metadata."""
        key = (src.value, dst.value, protocol)
        link = self._link_ids.get(key)
        if link is None:
            link = self._link_ids[key] = len(self._link_table)
            self._link_table.append((src, dst, protocol))
        self._times.append(time)
        self._links.append(link)
        self._sizes.append(size)
        self._packet_ids.append(packet_id)

    def record(self, record: PacketRecord) -> None:
        r = record
        self.append(r.time, r.src, r.dst, r.size, r.protocol, r.packet_id)

    def __len__(self) -> int:
        return len(self._times)

    def _rows(
        self, keep: Optional[Callable[[Address, Address], bool]] = None
    ) -> Iterator[PacketRecord]:
        """Records in capture order; with ``keep``, only those on links
        whose (src, dst) it accepts."""
        table = self._link_table
        links = None
        if keep is not None:
            links = {i for i, (src, dst, _) in enumerate(table) if keep(src, dst)}
        for time, link, size, packet_id in zip(
            self._times, self._links, self._sizes, self._packet_ids
        ):
            if links is None or link in links:
                src, dst, protocol = table[link]
                yield PacketRecord(time, src, dst, size, protocol, packet_id)

    def __iter__(self) -> Iterator[PacketRecord]:
        return self._rows()

    @property
    def records(self) -> Tuple[PacketRecord, ...]:
        return tuple(self._rows())

    def between(
        self, src: Optional[Address] = None, dst: Optional[Address] = None
    ) -> Tuple[PacketRecord, ...]:
        """Records filtered by endpoint(s)."""
        return tuple(
            self._rows(
                lambda s, d: (src is None or s == src) and (dst is None or d == dst)
            )
        )

    def involving(self, address: Address) -> Tuple[PacketRecord, ...]:
        return tuple(self._rows(lambda s, d: s == address or d == address))

    def total_bytes(self) -> int:
        return sum(self._sizes)

    def window(self, start: float, end: float) -> Tuple[PacketRecord, ...]:
        return tuple(r for r in self._rows() if start <= r.time <= end)

    def to_jsonl(self) -> str:
        """One JSON object per record, in capture order.

        The wire-trace counterpart of the span/metric JSONL export:
        archiving both alongside each other gives a run's complete
        observable record.
        """
        return "\n".join(
            json.dumps(
                {
                    "time": r.time,
                    "src": str(r.src),
                    "dst": str(r.dst),
                    "size": r.size,
                    "protocol": r.protocol,
                    "packet_id": r.packet_id,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            for r in self._rows()
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "TrafficTrace":
        """Rebuild a trace from :meth:`to_jsonl` output."""
        trace = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            trace.append(
                float(row["time"]),
                Address(row["src"]),
                Address(row["dst"]),
                int(row["size"]),
                row["protocol"],
                int(row["packet_id"]),
            )
        return trace
