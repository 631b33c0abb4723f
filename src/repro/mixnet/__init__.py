"""Chaum mix-nets and onion routing (paper section 3.1.2, Figure 1)."""

from .circuits import CIRCUIT_PROTOCOL, CircuitClient, OnionRouter
from .mix import MIX_PROTOCOL, MixNode, MixReceiver, make_chaff
from .onion import RoutingLayer, build_onion, make_message
from .reply import DeliverBody, ReplyPacket, build_return_address, make_reply_body
from .scenario import MixnetRun, paper_table_t2

__all__ = [
    "MixNode",
    "MixReceiver",
    "MIX_PROTOCOL",
    "RoutingLayer",
    "build_onion",
    "make_message",
    "DeliverBody",
    "ReplyPacket",
    "build_return_address",
    "make_reply_body",
    "MixnetRun",
    "paper_table_t2",
    "OnionRouter",
    "CircuitClient",
    "CIRCUIT_PROTOCOL",
    "make_chaff",
]
