"""Privacy Pass: anonymous proof-of-legitimacy tokens (section 3.2.1)."""

from .scenario import PAPER_TABLE_T3, PrivacyPassRun
from .tokens import (
    ISSUE_PROTOCOL,
    Issuer,
    PrivacyPassClient,
    ProtectedOrigin,
    REDEEM_PROTOCOL,
    Token,
    VERIFY_PROTOCOL,
)

__all__ = [
    "Token",
    "Issuer",
    "PrivacyPassClient",
    "ProtectedOrigin",
    "ISSUE_PROTOCOL",
    "REDEEM_PROTOCOL",
    "VERIFY_PROTOCOL",
    "PrivacyPassRun",
    "PAPER_TABLE_T3",
]
