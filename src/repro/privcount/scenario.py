"""The P-series scenarios: PrivCount-style distributed DP measurement.

The first scenario whose decoupling verdict is about *aggregate
reconstructability* rather than packet visibility: the sensitive fact
is a user's per-statistic activity count, and the question is which
coalition can put its shares back together.  The expected table:

* Client -- ``(▲, ●)``: the user knows its own activity;
* Data Collector -- ``(▲, ⊙)``: the relay view, client IP plus event
  categories and its own blinded register;
* Share Keeper -- ``(△, ⊙)``: uniform blinding shares only;
* Tally Server -- ``(△, ⊙)``: blinded registers, blinding sums, and
  the noisy totals.

Reconstruction of any register needs the owning collector *plus every
share keeper* -- the minimal re-coupling coalition the analyzer
derives, making the reconstruction threshold ``share_keepers + 1``
regardless of how many collectors shard the population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.crypto.secretshare import COUNTER_MODULUS
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    register,
)

from .noise import DEFAULT_EPSILON, statistics_for
from .protocol import DataCollector, ShareKeeper, TallyServer, UserAgent

__all__ = [
    "PrivcountRun",
    "PRIVCOUNT_TABLE",
]

#: The expected knowledge table (an extension table, not a paper one).
PRIVCOUNT_TABLE: Dict[str, str] = {
    "Client": "(▲, ●)",
    "Data Collector": "(▲, ⊙)",
    "Share Keeper": "(△, ⊙)",
    "Tally Server": "(△, ⊙)",
}


@dataclass
class PrivcountRun(ScenarioRun):
    """Everything produced by one measurement epoch."""

    variant: str = ""
    table_entities: List[str] = None  # type: ignore[assignment]
    collectors: int = 0
    share_keepers: int = 0
    users: int = 0
    #: Per-statistic noisy publications (None: withheld, could not
    #: reconstruct) and the exact pre-noise totals.
    published: Dict[str, Optional[int]] = field(default_factory=dict)
    exact_totals: Dict[str, Optional[int]] = field(default_factory=dict)
    true_totals: Dict[str, int] = field(default_factory=dict)
    noise_scales: Dict[str, float] = field(default_factory=dict)
    #: Did the share accounting balance for every statistic?
    reconstructed: bool = False
    #: Blinding-bypass rows the tally received (0 unless the
    #: cautionary ``emergency_export`` fallback fired under faults).
    raw_exports: int = 0

    table_subject = Subject("user-0")

    @property
    def table_title(self) -> str:
        return f"P: {self.variant}"


class PrivcountProgram(ScenarioProgram):
    """One PrivCount measurement epoch under the scenario runtime."""

    variant_prefix = "PrivCount"

    def validate(self) -> None:
        if self.params["collectors"] < 1:
            raise ValueError("privcount needs at least one data collector")
        if self.params["share_keepers"] < 2:
            raise ValueError("privcount needs at least two share keepers")
        if self.params["users"] < 1:
            raise ValueError("privcount needs at least one user")
        if self.params["epsilon"] <= 0:
            raise ValueError("epsilon must be positive")
        # Delegated so a bad count fails before any state exists.
        statistics_for(self.params["stats"])

    def build(self) -> None:
        collectors = self.param("collectors")
        share_keepers = self.param("share_keepers")
        self.statistics = statistics_for(self.param("stats"))
        self.collector_objs: List[DataCollector] = []
        for index in range(collectors):
            entity = self.world.entity(
                "Data Collector" if index == 0 else f"Data Collector {index + 1}",
                f"collector-org-{index + 1}",
            )
            self.collector_objs.append(
                DataCollector(
                    self.network, entity, index, modulus=COUNTER_MODULUS
                )
            )
        self.keeper_objs: List[ShareKeeper] = []
        for index in range(share_keepers):
            entity = self.world.entity(
                "Share Keeper" if index == 0 else f"Share Keeper {index + 1}",
                f"keeper-org-{index + 1}",
            )
            self.keeper_objs.append(
                ShareKeeper(
                    self.network, entity, index, modulus=COUNTER_MODULUS
                )
            )
        tally_entity = self.world.entity("Tally Server", "tally-org")
        self.tally = TallyServer(
            self.network,
            tally_entity,
            collectors=collectors,
            share_keepers=share_keepers,
            modulus=COUNTER_MODULUS,
        )

    def _users(self) -> List[UserAgent]:
        names = self.population_names(
            self.param("users"), lambda i: f"user-{i}"
        )
        users = []
        for index, name in enumerate(names):
            entity = self.world.entity(
                "Client" if index == 0 else f"Client {index}",
                f"user-device-{index}",
                trusted_by_user=True,
            )
            users.append(
                UserAgent(
                    self.network,
                    entity,
                    Subject(name),
                    f"203.0.113.{index + 1}",
                )
            )
        return users

    def drive(self) -> None:
        self.true_totals = {s.name: 0 for s in self.statistics}
        for index, user in enumerate(self._users()):
            collector = self.collector_objs[index % len(self.collector_objs)]
            for statistic in self.statistics:
                events = self.rng.randrange(1, 4)
                for _ in range(events):
                    reply = user.emit(
                        statistic.name, collector.address, attempt=self.attempt
                    )
                    if reply is not None:
                        self.true_totals[statistic.name] += 1
        emergency = bool(self.param("emergency_export"))
        for collector in self.collector_objs:
            collector.distribute(
                self.keeper_objs,
                self.tally,
                self.rng,
                self.attempt,
                emergency_export=emergency,
            )
            collector.close_epoch(
                self.tally, [s.name for s in self.statistics], self.attempt
            )
        for keeper in self.keeper_objs:
            keeper.forward_sums(self.tally, self.attempt)
        self.result = self.tally.publish(
            self.statistics, self.param("epsilon"), self.rng
        )

    def analyze(self) -> PrivcountRun:
        collectors = self.param("collectors")
        share_keepers = self.param("share_keepers")
        return PrivcountRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant=(
                f"{self.variant_prefix} ({collectors} collectors,"
                f" {share_keepers} share keepers)"
            ),
            table_entities=[
                "Client", "Data Collector", "Share Keeper", "Tally Server",
            ],
            collectors=collectors,
            share_keepers=share_keepers,
            users=self.param("users"),
            published=dict(self.result.published),
            exact_totals=dict(self.result.exact),
            true_totals=dict(self.true_totals),
            noise_scales=dict(self.result.noise_scales),
            reconstructed=self.result.reconstructed,
            raw_exports=self.tally.raw_exports,
        )


class PrivcountShardedProgram(PrivcountProgram):
    """The sharded deployment: more collectors, more keepers."""

    variant_prefix = "PrivCount sharded"


_SEED_PARAM = Param("seed", 20221114, "per-run RNG seed (None: system entropy)")
_EPSILON_PARAM = Param("epsilon", DEFAULT_EPSILON, "epoch privacy budget")
_STATS_PARAM = Param("stats", 2, "statistics measured (first N of the registry)")
_EXPORT_PARAM = Param(
    "emergency_export",
    0,
    "1: fall back to raw register export when share keepers are"
    " unreachable (cautionary blinding bypass)",
)

register(
    ScenarioSpec(
        id="privcount",
        title="PrivCount distributed DP measurement (extension)",
        program=PrivcountProgram,
        params=(
            Param("users", 4, "measured users"),
            Param("collectors", 1, "data collectors (measuring relays)"),
            Param("share_keepers", 2, "blinding share keepers"),
            _STATS_PARAM,
            _EPSILON_PARAM,
            _EXPORT_PARAM,
            _SEED_PARAM,
        ),
        expected=PRIVCOUNT_TABLE,
        entities=("Client", "Data Collector", "Share Keeper", "Tally Server"),
        order=74.0,
    )
)

register(
    ScenarioSpec(
        id="privcount-sharded",
        title="PrivCount, sharded collectors and keepers (extension)",
        program=PrivcountShardedProgram,
        params=(
            Param("users", 6, "measured users"),
            Param("collectors", 3, "data collectors (measuring relays)"),
            Param("share_keepers", 3, "blinding share keepers"),
            _STATS_PARAM,
            _EPSILON_PARAM,
            _EXPORT_PARAM,
            _SEED_PARAM,
        ),
        expected=PRIVCOUNT_TABLE,
        entities=("Client", "Data Collector", "Share Keeper", "Tally Server"),
        order=75.0,
    )
)
