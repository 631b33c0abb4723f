"""The T5 scenarios: traditional cellular (baseline) versus PGPP.

Both runs simulate a population of phones doing a seeded random walk
across cells, attaching/handing over at each step.  The baseline binds
permanent IMSIs to billing identities inside the core; the PGPP run
moves billing to the gateway, attaches with blind-signed tokens, and
rotates (shuffles) IMSIs every epoch.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_NETWORK_IDENTITY,
    SENSITIVE_NETWORK_IDENTITY,
)
from repro.core.values import LabeledValue, Subject
from repro.net.network import Network
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    register,
)

from .cellular import BaseStation, CellularCore, UserEquipment
from .gateway import AttachToken, PgppGateway, TokenPurchaser
from .mobility import make_mobility

__all__ = [
    "PgppRun",
    "PAPER_TABLE_T5",
    "BASELINE_TABLE_T5",
]

#: The paper's section 3.2.3 table, exactly as printed.
PAPER_TABLE_T5: Dict[str, str] = {
    "User": "(▲_H, ▲_N, ●)",
    "PGPP-GW": "(▲_H, △_N, ⊙)",
    "NGC": "(△_H, △_N, ●)",
}

#: The traditional architecture the paper contrasts against.
BASELINE_TABLE_T5: Dict[str, str] = {
    "User": "(▲_H, ▲_N, ●)",
    "NGC": "(▲_H, ▲_N, ●)",
}


@dataclass
class PgppRun(ScenarioRun):
    """Everything produced by one cellular scenario run."""

    core: CellularCore = None  # type: ignore[assignment]
    ues: List[UserEquipment] = None  # type: ignore[assignment]
    variant: str = ""
    table_entities: List[str] = None  # type: ignore[assignment]
    attaches: int = 0
    gateway: Optional[PgppGateway] = None
    #: Ground truth for the tracking adversary: per user, the IMSI they
    #: broadcast in each epoch (simulation-side omniscience).
    imsi_history: Dict[Subject, List[str]] = None  # type: ignore[assignment]

    @property
    def table_title(self) -> str:
        return f"T5: {self.variant}"

    @property
    def table_subject(self) -> Subject:
        return self.ues[0].subject

    def imsi_truth(self) -> Dict[str, List[str]]:
        """First-epoch imsi -> true imsi chain, for tracking_accuracy."""
        if not self.imsi_history:
            return {}
        return {chain[0]: list(chain) for chain in self.imsi_history.values()}

    def mobility_entries(self) -> int:
        return len(self.core.mobility_log)


def _build_cells(
    world: World, network: Network, core: CellularCore, cells: int
) -> List[BaseStation]:
    stations = []
    for index in range(cells):
        entity = world.entity(f"Cell {index}", "operator")
        stations.append(
            BaseStation(network, entity, cell_id=f"cell-{index}", core_address=core.address)
        )
    return stations


def _walk(
    rng: _random.Random, cells: int, steps: int, start: Optional[int] = None
) -> List[int]:
    """A lazy random walk over the cell grid."""
    position = rng.randrange(cells) if start is None else start
    path = [position]
    for _ in range(steps - 1):
        position = max(0, min(cells - 1, position + rng.choice((-1, 0, 1))))
        path.append(position)
    return path


class BaselineCellularProgram(ScenarioProgram):
    """Traditional cellular: the core sees billing + IMSI + location."""

    def build(self) -> None:
        core_entity = self.world.entity("NGC", "operator")
        self.core = CellularCore(self.network, core_entity)
        self.stations = _build_cells(
            self.world, self.network, self.core, self.param("cells")
        )

    def drive(self) -> None:
        self.ues = []
        self.attaches = 0
        for index in range(self.param("users")):
            subject = Subject(f"user-{index}")
            entity = self.world.entity(
                "User" if index == 0 else f"User {index}",
                f"phone-{index}",
                trusted_by_user=True,
            )
            imsi = LabeledValue(
                payload=f"imsi-90170-{1000 + index}",
                label=SENSITIVE_NETWORK_IDENTITY,
                subject=subject,
                description="permanent IMSI",
            )
            ue = UserEquipment(self.network, entity, subject, imsi, f"citizen-{index}")
            self.core.register_subscriber(str(imsi.payload), ue.human_identity)
            self.ues.append(ue)
            for cell_index in _walk(self.rng, self.param("cells"), self.param("steps")):
                result = ue.attach(self.stations[cell_index])
                self.attaches += int(result.accepted)

    def analyze(self) -> PgppRun:
        return PgppRun(
            world=self.world,
            network=self.network,
            core=self.core,
            ues=self.ues,
            analyzer=DecouplingAnalyzer(self.world),
            variant="traditional cellular (baseline)",
            table_entities=["User", "NGC"],
            attaches=self.attaches,
        )


class PgppProgram(ScenarioProgram):
    """PGPP: gateway billing, token attach, rotating IMSIs.

    ``purchase_over_cellular=True`` routes token purchases through the
    core's data plane (sealed, but relayed), which is what gives a
    *colluding* core+gateway a linkage handle -- the non-collusion
    assumption the paper discusses.  The default (out-of-band purchase)
    keeps even collusion fruitless.
    """

    def validate(self) -> None:
        if self.params["imsi_mode"] not in ("shuffled", "identical", "static"):
            raise ValueError(
                "imsi_mode must be 'shuffled', 'identical', or 'static'"
            )

    def build(self) -> None:
        users = self.param("users")
        imsi_mode = self.param("imsi_mode")
        core_entity = self.world.entity("NGC", "operator")
        self.core = CellularCore(self.network, core_entity)
        self.stations = _build_cells(
            self.world, self.network, self.core, self.param("cells")
        )

        gw_entity = self.world.entity("PGPP-GW", "pgpp-org")
        self.gateway = PgppGateway(self.network, gw_entity, rng=self.rng)
        self.core.credential_validator = self.gateway.validate
        self.core.register_upstream("pgpp-gw", self.gateway.address)

        subjects = [
            Subject(name)
            for name in self.population_names(users, lambda i: f"user-{i}")
        ]
        self.ues = []
        self.purchasers: List[TokenPurchaser] = []
        self.oob_hosts = []
        for index, subject in enumerate(subjects):
            entity = self.world.entity(
                "User" if index == 0 else f"User {index}",
                f"phone-{index}",
                trusted_by_user=True,
            )
            device_identity = LabeledValue(
                payload=f"device-{subject}",
                label=SENSITIVE_NETWORK_IDENTITY,
                subject=subject,
                description="device network identity",
            )
            pseudonym = _epoch_imsi(imsi_mode, 0, index, users, subject)
            ue = UserEquipment(
                self.network,
                entity,
                subject,
                pseudonym,
                f"citizen-{index}",
                true_network_identity=device_identity,
            )
            self.ues.append(ue)
            self.purchasers.append(
                TokenPurchaser(entity, subject, ue.human_identity, rng=self.rng)
            )
            # Out-of-band purchase path (e.g. home WiFi).
            self.oob_hosts.append(self.network.add_host(f"wifi:{subject}", entity))

    def drive(self) -> None:
        users = self.param("users")
        imsi_mode = self.param("imsi_mode")
        purchase_over_cellular = self.param("purchase_over_cellular")
        mobility = make_mobility(self.param("mobility"))
        self.attaches = 0
        self.imsi_history = {
            ue.subject: [str(ue.imsi_value.payload)] for ue in self.ues
        }
        for epoch in range(self.param("epochs")):
            order = list(range(users))
            self.rng.shuffle(order)  # the epoch's IMSI shuffle
            for index, ue in enumerate(self.ues):
                # Buy the epoch's token first: over the (still attached)
                # previous session when configured, else out of band.
                if purchase_over_cellular and ue.attached_cell is not None:
                    token = self.purchasers[index].purchase_over_cellular(
                        ue, self.gateway
                    )
                else:
                    token = self.purchasers[index].purchase_direct(
                        self.oob_hosts[index], self.gateway
                    )
                if epoch > 0:
                    ue.set_imsi(
                        _epoch_imsi(imsi_mode, epoch, order[index], users, ue.subject)
                    )
                    self.imsi_history[ue.subject].append(str(ue.imsi_value.payload))
                first = True
                for cell_index in mobility(
                    self.rng, self.param("cells"), self.param("steps"), index
                ):
                    credential: Optional[AttachToken] = token if first else None
                    result = ue.attach(self.stations[cell_index], credential=credential)
                    self.attaches += int(result.accepted)
                    first = False

    def analyze(self) -> PgppRun:
        return PgppRun(
            world=self.world,
            network=self.network,
            core=self.core,
            ues=self.ues,
            analyzer=DecouplingAnalyzer(self.world),
            variant="PGPP",
            table_entities=["User", "PGPP-GW", "NGC"],
            attaches=self.attaches,
            gateway=self.gateway,
            imsi_history=self.imsi_history,
        )


def _epoch_imsi(
    mode: str, epoch: int, slot: int, users: int, subject: Subject
) -> LabeledValue:
    """A pseudonymous IMSI: shuffled slot, shared value, or -- the
    rotation *ablation* -- a static pseudonym that never changes."""
    if mode == "identical":
        payload = f"pgpp-imsi-epoch-{epoch}"
    elif mode == "static":
        payload = f"pgpp-imsi-static-{subject}"
    else:
        payload = f"pgpp-imsi-epoch-{epoch}-slot-{slot}"
    return LabeledValue(
        payload=payload,
        label=NONSENSITIVE_NETWORK_IDENTITY,
        subject=subject,
        description="rotating pgpp imsi",
        provenance=("imsi", "rotate"),
    )


register(
    ScenarioSpec(
        id="pgpp",
        title="Pretty Good Phone Privacy (3.2.3)",
        program=PgppProgram,
        params=(
            Param("users", 3, "phones in the population"),
            Param("cells", 4, "cells in the coverage grid"),
            Param("steps", 4, "mobility steps per epoch"),
            Param("epochs", 2, "IMSI-rotation epochs"),
            Param("seed", 20221114, "per-run RNG seed (None: system entropy)"),
            Param(
                "purchase_over_cellular",
                False,
                "buy tokens over the data plane (collusion handle)",
            ),
            Param("imsi_mode", "shuffled", "shuffled/identical/static rotation"),
            Param("mobility", "walk", "mobility model name"),
        ),
        expected=PAPER_TABLE_T5,
        entities=("User", "PGPP-GW", "NGC"),
        experiment_id="T5",
        order=50.0,
    )
)

register(
    ScenarioSpec(
        id="pgpp-baseline",
        title="Traditional cellular, coupled baseline (3.2.3)",
        program=BaselineCellularProgram,
        params=(
            Param("users", 3, "phones in the population"),
            Param("cells", 4, "cells in the coverage grid"),
            Param("steps", 4, "mobility steps per walk"),
            Param("seed", 20221114, "per-run RNG seed (None: system entropy)"),
        ),
        expected=BASELINE_TABLE_T5,
        entities=("User", "NGC"),
        order=51.0,
    )
)
