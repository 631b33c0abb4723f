"""IP-like addressing for simulated hosts.

Addresses are dotted-quad strings allocated from per-network prefixes.
An address is just an identifier with a network affiliation -- enough
for the decoupling analyses, where *whose address appears as the
source* is the whole game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Address", "AddressAllocator"]


@dataclass(frozen=True, order=True)
class Address:
    """A simulated network-layer address.

    Addresses are allocated once at build time and then hashed on
    every send (host lookup, latency lookup) and prefix-matched on
    every delivery, so both are precomputed here rather than derived
    per call.
    """

    value: str

    def __post_init__(self) -> None:
        # The generated field-tuple hash, computed once: set and dict
        # order stays what the dataclass default gave.
        object.__setattr__(self, "_hash", hash((self.value,)))
        object.__setattr__(self, "_prefix", ".".join(self.value.split(".")[:3]))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return self.value

    @property
    def prefix(self) -> str:
        """The /24-style network prefix (first three octets)."""
        return self._prefix  # type: ignore[attr-defined]


class AddressAllocator:
    """Hands out sequential addresses within named prefixes.

    Deterministic: the same allocation order yields the same
    addresses, which keeps traces and test expectations stable.
    """

    #: Distinct first octets available for prefix allocation.  The
    #: space starts at 10.x.y and grows one first-octet "block" (65536
    #: /24 prefixes) at a time through 255.x.y -- 246 * 65536 ≈ 16M
    #: distinct networks, enough for million-user populations where
    #: every device gets its own prefix.
    _FIRST_OCTET_BASE = 10
    _PREFIXES_PER_BLOCK = 65_536
    _MAX_PREFIXES = (256 - _FIRST_OCTET_BASE) * _PREFIXES_PER_BLOCK

    def __init__(self) -> None:
        self._next_host: Dict[str, int] = {}
        self._next_prefix = 0

    def network_prefix(self) -> str:
        """Allocate a fresh /24 prefix (a distinct simulated network).

        The first 65536 prefixes are ``10.x.y`` -- byte-identical to
        the historical allocator -- after which the space grows into
        ``11.x.y``, ``12.x.y``, ... rather than exhausting.
        """
        index = self._next_prefix
        if index >= self._MAX_PREFIXES:
            raise ValueError(
                f"prefix space exhausted: all {self._MAX_PREFIXES} network"
                f" prefixes ({self._FIRST_OCTET_BASE}.0.0-255.255.255)"
                " already allocated"
            )
        self._next_prefix = index + 1
        block, within = divmod(index, self._PREFIXES_PER_BLOCK)
        return (
            f"{self._FIRST_OCTET_BASE + block}.{within // 256}.{within % 256}"
        )

    def allocate(self, prefix: str) -> Address:
        """The next free address within ``prefix``."""
        host = self._next_host.get(prefix, 1)
        if host > 254:
            raise ValueError(
                f"prefix {prefix} exhausted: all {host - 1} host addresses"
                f" ({prefix}.1-{prefix}.{host - 1}) already allocated"
            )
        self._next_host[prefix] = host + 1
        return Address(f"{prefix}.{host}")
