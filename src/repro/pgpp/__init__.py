"""Pretty Good Phone Privacy (paper section 3.2.3)."""

from .cellular import (
    ATTACH_PROTOCOL,
    AttachRequest,
    AttachResult,
    BaseStation,
    CellularCore,
    DATA_PROTOCOL,
    RRC_PROTOCOL,
    UserEquipment,
)
from .gateway import AttachToken, PURCHASE_PROTOCOL, PgppGateway, TokenPurchaser
from .scenario import BASELINE_TABLE_T5, PAPER_TABLE_T5, PgppRun
from .mobility import commuter, make_mobility, random_walk, stationary
from .tracking import (
    EpochTrack,
    TrajectoryLinker,
    extract_epoch_tracks,
    tracking_accuracy,
)

__all__ = [
    "AttachRequest",
    "AttachResult",
    "BaseStation",
    "CellularCore",
    "UserEquipment",
    "RRC_PROTOCOL",
    "ATTACH_PROTOCOL",
    "DATA_PROTOCOL",
    "AttachToken",
    "PgppGateway",
    "TokenPurchaser",
    "PURCHASE_PROTOCOL",
    "PgppRun",
    "PAPER_TABLE_T5",
    "BASELINE_TABLE_T5",
    "EpochTrack",
    "TrajectoryLinker",
    "extract_epoch_tracks",
    "tracking_accuracy",
    "make_mobility",
    "random_walk",
    "commuter",
    "stationary",
]
