"""repro.privcount: PrivCount-style distributed DP measurement.

Data collectors hold additively secret-shared counter registers
(mod q, :func:`~repro.crypto.secretshare.share_counter`), share
keepers blind and forward them, and a tally server aggregates under
Laplace noise sized from per-statistic sensitivities
(:mod:`~repro.privcount.noise`).  The scenario module registers the
``privcount`` and ``privcount-sharded`` specs -- the first scenarios
whose decoupling verdict concerns *who can reconstruct an aggregate*
rather than who sees a packet.
"""

from .noise import (
    DEFAULT_EPSILON,
    STATISTICS,
    Statistic,
    epsilon_allocation,
    laplace_scale,
    noise_for,
    sample_laplace,
    statistics_for,
)
from .protocol import (
    BLIND_PROTOCOL,
    EVENT_PROTOCOL,
    EXPORT_PROTOCOL,
    REGISTER_PROTOCOL,
    SUM_PROTOCOL,
    DataCollector,
    ShareKeeper,
    TallyResult,
    TallyServer,
    UserAgent,
)
from .scenario import PRIVCOUNT_TABLE, PrivcountRun

__all__ = [
    "DEFAULT_EPSILON",
    "STATISTICS",
    "Statistic",
    "epsilon_allocation",
    "laplace_scale",
    "noise_for",
    "sample_laplace",
    "statistics_for",
    "BLIND_PROTOCOL",
    "EVENT_PROTOCOL",
    "EXPORT_PROTOCOL",
    "REGISTER_PROTOCOL",
    "SUM_PROTOCOL",
    "DataCollector",
    "ShareKeeper",
    "TallyResult",
    "TallyServer",
    "UserAgent",
    "PRIVCOUNT_TABLE",
    "PrivcountRun",
]
