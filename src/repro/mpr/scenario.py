"""The T6 scenario: a Multi-Party Relay run, with a degree knob.

Two relays reproduce the paper's Private Relay table; the ``relays``
parameter generalizes the chain for the D1 degree-of-decoupling sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.net.network import Network
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    add_origin,
    client_ip_identity,
    register,
)

from .relay import MprClient, build_relay_chain

__all__ = ["MprRun", "paper_table_t6", "PAPER_TABLE_T6"]


def paper_table_t6(relays: int) -> Dict[str, str]:
    """The section 3.2.4 table, generalized to ``relays`` hops."""
    table = {"User": "(▲, ●)", "Relay 1": "(▲, ⊙)"}
    for index in range(2, relays):
        table[f"Relay {index}"] = "(△, ⊙)"
    if relays >= 2:
        table[f"Relay {relays}"] = "(△, ⊙/●)"
    table["Origin"] = "(△, ●)"
    return table


#: The paper's two-relay table, exactly as printed.
PAPER_TABLE_T6: Dict[str, str] = paper_table_t6(2)


def _mpr_entities(params: Dict[str, object]) -> List[str]:
    relays = params["relays"]
    return ["User"] + [f"Relay {i}" for i in range(1, relays + 1)] + ["Origin"]


@dataclass
class MprRun(ScenarioRun):
    """Everything produced by one MPR scenario run."""

    client: MprClient = None  # type: ignore[assignment]
    relays: int = 0
    requests: int = 0
    mean_latency: float = 0.0
    table_entities: List[str] = None  # type: ignore[assignment]

    @property
    def table_title(self) -> str:
        return f"T6: multi-party relay ({self.relays} relays)"

    def origin_knows_location(self) -> bool:
        """Did the origin learn a (coarse) location? (section 4.4)"""
        return any(
            obs.description == "coarse geolocation hint"
            for obs in self.world.ledger.by_entity("Origin")
        )


class MprProgram(ScenarioProgram):
    """Fetch pages through a chain of decoupling relays."""

    def validate(self) -> None:
        if self.params["relays"] < 1:
            raise ValueError("need at least one relay")

    def make_network(self) -> Network:
        return Network(default_latency=self.params["link_latency"])

    def build(self) -> None:
        relays = self.param("relays")
        self.subject = Subject("alice")

        user_entity = self.world.entity("User", "user-device", trusted_by_user=True)
        relay_entities = [
            self.world.entity(f"Relay {i}", f"relay-org-{i}")
            for i in range(1, relays + 1)
        ]
        stack = add_origin(self.world, self.network)
        self.origin = stack.server
        chain = build_relay_chain(self.network, relay_entities, stack.directory)

        identity = client_ip_identity(self.subject, "203.0.113.9")
        host = self.network.add_host("mpr-client", user_entity, identity=identity)
        user_entity.observe(identity, channel="self", session="self")
        self.client = MprClient(host=host, relays=chain, subject=self.subject)

    def drive(self) -> None:
        self.elapsed = 0.0
        start = self.network.simulator.now
        for index in range(self.param("requests")):
            response = self.attempt(
                lambda index=index: self.client.fetch(
                    self.origin, f"/page/{index}", geo_hint=self.param("geo_hint")
                ),
                label=f"fetch /page/{index}",
            )
            if response is not None and not response.ok:
                raise RuntimeError("origin rejected a relayed request")
        self.elapsed = self.network.simulator.now - start

    def analyze(self) -> MprRun:
        requests = self.param("requests")
        return MprRun(
            world=self.world,
            network=self.network,
            client=self.client,
            analyzer=DecouplingAnalyzer(self.world),
            relays=self.param("relays"),
            requests=requests,
            mean_latency=self.elapsed / max(1, requests),
            table_entities=_mpr_entities(self.params),
        )


register(
    ScenarioSpec(
        id="mpr",
        title="Multi-Party Relay (3.2.4)",
        program=MprProgram,
        params=(
            Param("relays", 2, "relays in the chain"),
            Param("requests", 3, "pages fetched through the chain"),
            Param("geo_hint", None, "coarse geolocation hint sent to the origin"),
            Param("link_latency", 0.010, "per-link latency in seconds"),
            Param("seed", None, "unused: the scenario is deterministic"),
        ),
        expected=lambda params: paper_table_t6(params["relays"]),
        entities=_mpr_entities,
        experiment_id="T6",
        order=60.0,
    )
)
