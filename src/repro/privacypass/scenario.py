"""The T3/F2 scenario: Privacy Pass issuance and redemption."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.analysis import DecouplingAnalyzer
from repro.core.values import Subject
from repro.scenario import (
    Param,
    ScenarioProgram,
    ScenarioRun,
    ScenarioSpec,
    register,
)

from .tokens import Issuer, PrivacyPassClient, ProtectedOrigin

__all__ = ["PrivacyPassRun", "PAPER_TABLE_T3"]

#: The paper's section 3.2.1 table, exactly as printed.
PAPER_TABLE_T3: Dict[str, str] = {
    "Client": "(▲, ●)",
    "Issuer": "(▲, ⊙)",
    "Origin": "(△, ●)",
}


@dataclass
class PrivacyPassRun(ScenarioRun):
    """Everything produced by one Privacy Pass scenario run."""

    client: PrivacyPassClient = None  # type: ignore[assignment]
    issuer: Issuer = None  # type: ignore[assignment]
    origin: ProtectedOrigin = None  # type: ignore[assignment]
    tokens_redeemed: int = 0

    table_title = "T3: Privacy Pass"


class PrivacyPassProgram(ScenarioProgram):
    """Issue and redeem tokens; analyze the settled world."""

    def build(self) -> None:
        client_entity = self.world.entity("Client", "client-device", trusted_by_user=True)
        issuer_entity = self.world.entity("Issuer", "issuer-org")
        origin_entity = self.world.entity("Origin", "origin-org")

        self.issuer = Issuer(self.network, issuer_entity, rng=self.rng)
        self.client = PrivacyPassClient(
            self.network, client_entity, Subject("alice"), "alice@example.com", rng=self.rng
        )
        self.origin = ProtectedOrigin(self.network, origin_entity, self.issuer)

    def drive(self) -> None:
        self.redeemed = 0
        for index in range(self.param("tokens")):
            token = self.client.request_token(self.issuer)
            outcome = self.client.redeem(
                self.origin, token, f"GET /challenge-gated/{index}"
            )
            if outcome.accepted:
                self.redeemed += 1

    def analyze(self) -> PrivacyPassRun:
        return PrivacyPassRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            client=self.client,
            issuer=self.issuer,
            origin=self.origin,
            tokens_redeemed=self.redeemed,
        )


register(
    ScenarioSpec(
        id="privacy-pass",
        title="Privacy Pass (3.2.1)",
        program=PrivacyPassProgram,
        params=(
            Param("tokens", 3, "tokens issued and redeemed"),
            Param("seed", 20221114, "per-run RNG seed (None: system entropy)"),
        ),
        expected=PAPER_TABLE_T3,
        entities=("Client", "Issuer", "Origin"),
        experiment_id="T3",
        order=30.0,
    )
)
