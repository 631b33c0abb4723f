"""Multi-Party Relays (paper section 3.2.4)."""

from .relay import MprClient, build_relay_chain
from .scenario import MprRun, PAPER_TABLE_T6, paper_table_t6
from .striping import ProviderStriper

__all__ = [
    "MprClient",
    "build_relay_chain",
    "MprRun",
    "paper_table_t6",
    "PAPER_TABLE_T6",
    "ProviderStriper",
]
