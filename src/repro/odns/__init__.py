"""Oblivious DNS: ODNS and ODoH (paper section 3.2.2)."""

from .doh import DOH_PROTOCOL, DohClient, DohResolver
from .odns import ODNS_SUFFIX, ObliviousResolver, OdnsAwareResolver, OdnsClient
from .odoh import (
    ODOH_PROTOCOL,
    ODOH_UPSTREAM,
    ObliviousProxy,
    ObliviousTarget,
    OdohClient,
)
from .scenario import OdnsRun, PAPER_TABLE_T4_ODNS, PAPER_TABLE_T4_ODOH

__all__ = [
    "ObliviousResolver",
    "OdnsAwareResolver",
    "OdnsClient",
    "ODNS_SUFFIX",
    "ObliviousProxy",
    "ObliviousTarget",
    "OdohClient",
    "ODOH_PROTOCOL",
    "ODOH_UPSTREAM",
    "OdnsRun",
    "DohClient",
    "DohResolver",
    "DOH_PROTOCOL",
    "PAPER_TABLE_T4_ODNS",
    "PAPER_TABLE_T4_ODOH",
]
