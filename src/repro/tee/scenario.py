"""TEE scenarios (paper section 4.3): CACTI and Phoenix runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.http.messages import make_request
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    anonymized_identity,
    client_ip_identity,
    register,
)

from .cacti import CactiOrigin, CactiTee, request_via_cacti
from .enclave import AttestationAuthority
from .phoenix import PhoenixClient, PhoenixPop

__all__ = [
    "TeeRun",
    "EXPECTED_TABLE_CACTI",
    "EXPECTED_TABLE_PHOENIX",
]

#: Our derived expectation for CACTI (not printed in the paper, which
#: only describes the system; the shape mirrors Privacy Pass with the
#: issuer replaced by client-local attested state).
EXPECTED_TABLE_CACTI: Dict[str, str] = {
    "Client": "(▲, ●)",
    "Origin": "(△, ●)",
}

#: Our derived expectation for Phoenix: the CDN operator is a pure
#: conduit; only the attested enclave couples (which is the point --
#: trusting it means trusting the hardware vendor).
EXPECTED_TABLE_PHOENIX: Dict[str, str] = {
    "Client": "(▲, ●)",
    "CDN Operator": "(▲, ⊙)",
    "CDN Enclave": "(▲, ●)",
}


@dataclass
class TeeRun(ScenarioRun):
    variant: str = ""
    table_entities: List[str] = None  # type: ignore[assignment]
    served: int = 0

    @property
    def table_title(self) -> str:
        return f"TEE: {self.variant}"


class CactiProgram(ScenarioProgram):
    """Gated requests with client-side attested rate proofs."""

    def build(self) -> None:
        authority = AttestationAuthority(rng=self.rng)
        self.subject = Subject("alice")

        client_entity = self.world.entity("Client", "client-device", trusted_by_user=True)
        origin_entity = self.world.entity("Origin", "origin-org")
        self.tee = CactiTee(
            self.world, authority, self.subject, rate_limit=self.param("rate_limit")
        )
        self.origin = CactiOrigin(
            self.network,
            origin_entity,
            vendor_key=authority.public_key,
            expected_measurement=self.tee.enclave.measurement,
        )
        # Requests ride an anonymized channel, as with Privacy Pass.
        anonymized = anonymized_identity(
            self.subject, payload="anonymized-exit", provenance=()
        )
        client_entity.observe(
            client_ip_identity(self.subject, "198.51.100.4"),
            channel="self",
            session="self",
        )
        self.host = self.network.add_host(
            "cacti-client", client_entity, identity=anonymized
        )

    def drive(self) -> None:
        self.served = 0
        for index in range(self.param("requests")):
            outcome = request_via_cacti(
                self.host, self.tee, self.origin, f"GET /gated/{index}"
            )
            self.served += int(outcome == "served")

    def analyze(self) -> TeeRun:
        return TeeRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant="CACTI",
            table_entities=["Client", "Origin"],
            served=self.served,
        )


class PhoenixProgram(ScenarioProgram):
    """Keyless-CDN fetches through an attested enclave."""

    def build(self) -> None:
        authority = AttestationAuthority(rng=self.rng)
        self.subject = Subject("alice")

        client_entity = self.world.entity("Client", "client-device", trusted_by_user=True)
        operator_entity = self.world.entity("CDN Operator", "cdn-operator")
        pop = PhoenixPop(self.world, self.network, operator_entity, authority)

        identity = client_ip_identity(self.subject, "198.51.100.5")
        client_entity.observe(identity, channel="self", session="self")
        host = self.network.add_host("phoenix-client", client_entity, identity=identity)
        self.client = PhoenixClient(host, pop, authority.public_key, self.subject)

    def drive(self) -> None:
        self.served = 0
        for index in range(self.param("requests")):
            response = self.client.fetch(
                make_request("cdn.example", f"/asset/{index % 2}", self.subject)
            )
            self.served += int(response.ok)

    def analyze(self) -> TeeRun:
        return TeeRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            variant="Phoenix keyless CDN",
            table_entities=["Client", "CDN Operator", "CDN Enclave"],
            served=self.served,
        )


register(
    ScenarioSpec(
        id="cacti",
        title="CACTI (4.3, extension)",
        program=CactiProgram,
        params=(
            Param("requests", 3, "gated requests issued"),
            Param("rate_limit", 5, "enclave rate-proof limit"),
            Param("seed", 20221114, "per-run RNG seed (None: system entropy)"),
        ),
        expected=EXPECTED_TABLE_CACTI,
        entities=("Client", "Origin"),
        experiment_id="E1a",
        order=110.0,
    )
)

register(
    ScenarioSpec(
        id="phoenix",
        title="Phoenix keyless CDN (4.3, extension)",
        program=PhoenixProgram,
        params=(
            Param("requests", 4, "CDN asset fetches"),
            Param("seed", 20221114, "per-run RNG seed (None: system entropy)"),
        ),
        expected=EXPECTED_TABLE_PHOENIX,
        entities=("Client", "CDN Operator", "CDN Enclave"),
        experiment_id="E1b",
        order=111.0,
    )
)
