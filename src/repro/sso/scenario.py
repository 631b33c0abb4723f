"""SSO scenarios: the three assertion designs compared (section 2.2)."""

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

from .provider import IdentityProvider, ServiceProvider, SsoUser

__all__ = ["SsoRun", "EXPECTED_TABLES_SSO"]

#: Derived expectations (the paper describes the concern in prose; the
#: tables are this reproduction's analysis of the three designs).
EXPECTED_TABLES_SSO: Dict[str, Dict[str, str]] = {
    "global": {
        "User": "(▲, ●)",
        "IdP": "(▲, ⊙/●)",
        "Service A": "(▲, ●)",
        "Service B": "(▲, ●)",
    },
    "pairwise": {
        "User": "(▲, ●)",
        "IdP": "(▲, ⊙/●)",
        "Service A": "(△, ●)",
        "Service B": "(△, ●)",
    },
    "anonymous": {
        "User": "(▲, ●)",
        "IdP": "(▲, ⊙)",
        "Service A": "(△, ●)",
        "Service B": "(△, ●)",
    },
}

_SSO_ENTITIES = ("User", "IdP", "Service A", "Service B")


@dataclass
class SsoRun(ScenarioRun):
    mode: str = "global"
    logins: int = 0
    idp: IdentityProvider = None  # type: ignore[assignment]

    @property
    def table_title(self) -> str:
        return f"SSO ({self.mode} identifiers)"


class SsoProgram(ScenarioProgram):
    """One user logging into two services under the spec's design.

    The spec id names the assertion design (``sso-<mode>``), so the
    mode is no parameter: a run can never carry one design's id and
    another's table.
    """

    @property
    def mode(self) -> str:
        return self.spec.id[len("sso-"):]

    def build(self) -> None:
        user_entity = self.world.entity("User", "user-device", trusted_by_user=True)
        idp_entity = self.world.entity("IdP", "idp-org")
        service_a_entity = self.world.entity("Service A", "service-a-org")
        service_b_entity = self.world.entity("Service B", "service-b-org")

        self.idp = IdentityProvider(
            self.network, idp_entity, mode=self.mode, rng=self.rng
        )
        self.service_a = ServiceProvider(self.network, service_a_entity, "service-a", self.idp)
        self.service_b = ServiceProvider(self.network, service_b_entity, "service-b", self.idp)
        self.user = SsoUser(
            self.network, user_entity, Subject("alice"), "alice@idp.example", rng=self.rng
        )

    def drive(self) -> None:
        self.logins = 0
        for index in range(self.param("logins_per_service")):
            for service in (self.service_a, self.service_b):
                outcome = self.user.login(
                    self.idp, service, f"activity {index} at {service.name}"
                )
                self.logins += int(outcome == "welcome")

    def analyze(self) -> SsoRun:
        return SsoRun(
            world=self.world,
            network=self.network,
            analyzer=DecouplingAnalyzer(self.world),
            mode=self.mode,
            logins=self.logins,
            idp=self.idp,
        )


def _register_sso(mode: str, experiment_id: str, label: str, order: float) -> None:
    register(
        ScenarioSpec(
            id=f"sso-{mode}",
            title=f"SSO, {label} (2.2, extension)",
            program=SsoProgram,
            params=(
                Param("logins_per_service", 2, "logins per service"),
                Param("seed", 20221114, "per-run RNG seed (None: system entropy)"),
            ),
            expected=EXPECTED_TABLES_SSO[mode],
            entities=_SSO_ENTITIES,
            experiment_id=experiment_id,
            order=order,
        )
    )


_register_sso("global", "E2a", "global ids", 120.0)
_register_sso("pairwise", "E2b", "pairwise ids", 121.0)
_register_sso("anonymous", "E2c", "blind tickets", 122.0)
