"""Entities and organizations: the parties of a decoupling analysis.

The paper's analyses (section 3) are tables whose columns are
*entities* -- Buyer, Mix 1, Oblivious Resolver, PGPP-GW, ... -- each
belonging to an *organization* (trust domain).  Institutional
decoupling is about organizations: two entities run by the same
organization pool their knowledge for free, while entities of distinct
organizations must actively collude.

An :class:`Entity` owns a keyring of decryption capabilities and an
:meth:`Entity.observe` method that walks whatever structure it is
handed (messages, packets, envelopes) and records every labeled value
it can actually open into the run's :class:`~repro.core.ledger.Ledger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Set, Tuple

from .ledger import Ledger, Observation
from .values import LabeledValue, Sealed, collect_values

__all__ = ["Organization", "Entity", "World"]


@dataclass(frozen=True)
class Organization:
    """A trust domain: a company, network operator, or the user herself.

    ``trusted_by_user`` marks the organization(s) acting *as* the user
    (the user's own device); those are exempt from the decoupling
    verdict since the user may of course know her own identity and data.

    ``attested`` marks a trusted-execution enclave (paper section 4.3):
    code whose behaviour is cryptographically attested by a hardware
    vendor.  Attested organizations are *not* exempt by default -- the
    analyzer reports both readings, since trusting a TEE "moves the
    locus of trust to the hardware manufacturer".
    """

    name: str
    trusted_by_user: bool = False
    attested: bool = False

    def __str__(self) -> str:
        return self.name


class Entity:
    """A protocol participant that observes labeled information.

    Parameters
    ----------
    name:
        Unique name within a run ("Mix 1", "Issuer", ...).
    organization:
        The trust domain operating this entity.
    ledger:
        The run's observation ledger.
    keys:
        Initial decryption capabilities (key ids).
    """

    def __init__(
        self,
        name: str,
        organization: Organization,
        ledger: Ledger,
        *,
        keys: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.organization = organization
        self.ledger = ledger
        self.keyring: Set[str] = set(keys)

    @property
    def is_user(self) -> bool:
        return self.organization.trusted_by_user

    def grant_key(self, key_id: str) -> None:
        """Add a decryption capability to this entity's keyring."""
        self.keyring.add(key_id)

    def revoke_key(self, key_id: str) -> None:
        self.keyring.discard(key_id)

    def observe(
        self,
        item: Any,
        *,
        time: float = 0.0,
        channel: str = "message",
        session: str = "",
        packet_id: int | None = None,
    ) -> List[Observation]:
        """Record everything in ``item`` this entity can see.

        ``item`` may be a single :class:`LabeledValue`, a
        :class:`~repro.core.values.Sealed` envelope, an
        :class:`~repro.core.values.Aggregate`, or any nesting of those
        inside tuples/lists/dicts.  Envelopes open only if this
        entity's keyring holds the key.  ``session`` groups the
        observations of one interaction for the linkage analysis;
        ``packet_id`` (set by the network on delivery) pins each
        observation to the wire packet that caused it.

        The walk-and-record happens through the batched
        :meth:`~repro.core.ledger.Ledger.record_fast` seam (one index
        fold, one version bump per call).
        """
        return self.ledger.record_fast(
            self.name,
            self.organization.name,
            collect_values(item, self.keyring),
            time=time,
            channel=channel,
            session=session,
            packet_id=packet_id,
        )

    def visible_values(self, item: Any) -> List[LabeledValue]:
        """What this entity *would* see in ``item``, without recording."""
        return collect_values(item, self.keyring)

    def unseal(self, sealed: Sealed) -> tuple:
        """Open an envelope this entity holds the key for.

        Raises ``PermissionError`` otherwise -- protocol code cannot
        accidentally peek past its own keyring.
        """
        if sealed.key_id not in self.keyring:
            raise PermissionError(
                f"{self.name} does not hold key {sealed.key_id!r}"
            )
        return sealed.contents

    def __repr__(self) -> str:
        return f"Entity({self.name!r}, org={self.organization.name!r})"


class World:
    """A protocol run's cast of entities plus its shared ledger.

    Systems construct a ``World``, register their entities, run the
    protocol, and hand ``world.ledger`` to the analyzer.  The world also
    remembers declaration order so rendered tables match the paper's
    column order.
    """

    def __init__(self) -> None:
        self.ledger = Ledger()
        self._entities: List[Entity] = []
        # Name index: keeps entity() registration and get() O(1) so
        # building thousand-host worlds isn't quadratic.  The list is
        # kept alongside for declaration order.
        self._entities_by_name: dict[str, Entity] = {}
        self._organizations: dict[str, Organization] = {}

    def organization(
        self,
        name: str,
        *,
        trusted_by_user: bool = False,
        attested: bool = False,
    ) -> Organization:
        """Get or create an organization by name."""
        existing = self._organizations.get(name)
        if existing is not None:
            if (
                existing.trusted_by_user != trusted_by_user
                or existing.attested != attested
            ):
                raise ValueError(
                    f"organization {name!r} already exists with different trust flags"
                )
            return existing
        org = Organization(name, trusted_by_user=trusted_by_user, attested=attested)
        self._organizations[name] = org
        return org

    def entity(
        self,
        name: str,
        organization: Organization | str,
        *,
        keys: Iterable[str] = (),
        trusted_by_user: bool = False,
        attested: bool = False,
    ) -> Entity:
        """Create and register an entity.

        When ``organization`` is a string it is resolved (or created)
        via :meth:`organization`; ``trusted_by_user`` / ``attested``
        apply in that case only.
        """
        if isinstance(organization, str):
            organization = self.organization(
                organization, trusted_by_user=trusted_by_user, attested=attested
            )
        if name in self._entities_by_name:
            raise ValueError(f"duplicate entity name {name!r}")
        entity = Entity(name, organization, self.ledger, keys=keys)
        self._entities.append(entity)
        self._entities_by_name[name] = entity
        return entity

    @property
    def entities(self) -> Tuple[Entity, ...]:
        return tuple(self._entities)

    def get(self, name: str) -> Entity:
        try:
            return self._entities_by_name[name]
        except KeyError:
            raise KeyError(name) from None

    def user_entities(self) -> Tuple[Entity, ...]:
        return tuple(e for e in self._entities if e.is_user)

    def non_user_entities(self) -> Tuple[Entity, ...]:
        return tuple(e for e in self._entities if not e.is_user)
