"""Chaum digital cash with blind signatures (paper section 3.1.1)."""

from .cash import (
    Bank,
    Buyer,
    Coin,
    DEPOSIT_PROTOCOL,
    PAY_PROTOCOL,
    Seller,
    WITHDRAW_PROTOCOL,
)
from .scenario import DigitalCashRun, PAPER_TABLE_T1

__all__ = [
    "Bank",
    "Buyer",
    "Seller",
    "Coin",
    "WITHDRAW_PROTOCOL",
    "PAY_PROTOCOL",
    "DEPOSIT_PROTOCOL",
    "DigitalCashRun",
    "PAPER_TABLE_T1",
]
