"""Private aggregate statistics: naive, OHTTP, and Prio (section 3.2.5)."""

from .naive import (
    NaiveCollector,
    OHTTP_PROTOCOL,
    OhttpRelay,
    REPORT_PROTOCOL,
    ReportingClient,
)
from .prio import (
    COLLECT_PROTOCOL,
    MPC_PROTOCOL,
    PrioAggregator,
    PrioClient,
    PrioCollector,
    UPLOAD_PROTOCOL,
)
from .scenario import PAPER_TABLE_T7, PpmRun

__all__ = [
    "NaiveCollector",
    "OhttpRelay",
    "ReportingClient",
    "REPORT_PROTOCOL",
    "OHTTP_PROTOCOL",
    "PrioAggregator",
    "PrioClient",
    "PrioCollector",
    "UPLOAD_PROTOCOL",
    "MPC_PROTOCOL",
    "COLLECT_PROTOCOL",
    "PpmRun",
    "PAPER_TABLE_T7",
]
