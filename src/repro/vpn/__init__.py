"""Cautionary tales: centralized VPNs and ECH (paper section 3.3)."""

from .scenario import EchRun, PAPER_TABLE_T8, VpnRun
from .vpn import VPN_PROTOCOL, VpnClient, VpnServer

__all__ = [
    "VpnServer",
    "VpnClient",
    "VPN_PROTOCOL",
    "VpnRun",
    "EchRun",
    "PAPER_TABLE_T8",
]
