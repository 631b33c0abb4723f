"""Trusted Execution Environments: CACTI and Phoenix (section 4.3)."""

from .cacti import CACTI_PROTOCOL, CactiOrigin, CactiTee, RateProof, request_via_cacti
from .enclave import AttestationAuthority, AttestationQuote, TeeEnclave
from .phoenix import PHOENIX_PROTOCOL, PhoenixClient, PhoenixPop
from .scenario import EXPECTED_TABLE_CACTI, EXPECTED_TABLE_PHOENIX, TeeRun

__all__ = [
    "AttestationAuthority",
    "AttestationQuote",
    "TeeEnclave",
    "CactiTee",
    "CactiOrigin",
    "RateProof",
    "request_via_cacti",
    "CACTI_PROTOCOL",
    "PhoenixPop",
    "PhoenixClient",
    "PHOENIX_PROTOCOL",
    "TeeRun",
    "EXPECTED_TABLE_CACTI",
    "EXPECTED_TABLE_PHOENIX",
]
