"""Labeled values: the unit of information that flows through systems.

Every piece of user-derived information that moves through a modeled
system is a :class:`LabeledValue`: a payload plus the label it carries,
the *subject* whose privacy is at stake, and a provenance chain
recording the transformations (blinding, encryption, shuffling,
aggregation) that produced it.

The privacy-critical construct is :class:`Sealed`: an envelope bound to
a key identifier.  When an entity observes a sealed envelope it learns
the *inner* values only if its keyring contains the key; otherwise it
learns just the envelope's (non-sensitive) exterior.  This is how the
framework derives, rather than asserts, facts like "the recursive
resolver forwards the encrypted query but learns nothing from it".
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Tuple

from repro import fastpath as _fastpath

from .labels import (
    Kind,
    Label,
    NONSENSITIVE_DATA,
    Sensitivity,
)

__all__ = [
    "Subject",
    "ShareInfo",
    "LabeledValue",
    "Sealed",
    "Aggregate",
    "walk_values",
    "collect_values",
    "digest",
    "digest_of",
]

_serial = itertools.count(1)


def digest(value: Any) -> str:
    """A short stable digest of a value, used for ledger bookkeeping."""
    raw = repr(value).encode("utf-8", "replace")
    return hashlib.sha256(raw).hexdigest()[:16]


# Digest memo for the drive-phase fast path.  Workloads repeat scalar
# payloads heavily (every mixnet sender's exterior is the same
# "ciphertext<key>" string; every hop re-observes it), so hashing each
# repeat is pure waste.  Keyed by ``(type, value)`` -- not value alone
# -- because ``repr`` differs across types that compare equal
# (``True`` vs ``1``).  Bounded: cleared wholesale at the limit.
_DIGEST_MEMO: dict = {}
_DIGEST_MEMO_LIMIT = 1 << 16


def _memoized_digest(payload: Any) -> str:
    cls = payload.__class__
    if cls is str or cls is int or cls is float or cls is bool or cls is bytes:
        key = (cls, payload)
        cached = _DIGEST_MEMO.get(key)
        if cached is None:
            cached = digest(payload)
            if len(_DIGEST_MEMO) >= _DIGEST_MEMO_LIMIT:
                _DIGEST_MEMO.clear()
            _DIGEST_MEMO[key] = cached
        return cached
    return digest(payload)


def digest_of(value: "LabeledValue") -> str:
    """``digest(value.payload)``, cached on the (immutable) value.

    The same labeled value is typically observed several times per run
    (sender, wire observers, receiver); the first call pays for the
    sha256, the rest read a slot.  Byte-identical to :func:`digest` by
    construction.
    """
    cached = value._digest_cache
    if cached is None:
        cached = _memoized_digest(value.payload)
        value._digest_cache = cached
    return cached


@dataclass(frozen=True)
class Subject:
    """The principal whose privacy a labeled value concerns.

    Usually a user; occasionally a population (for aggregates).  Two
    subjects are the same iff their names match.
    """

    name: str

    def __post_init__(self) -> None:
        # Subjects key every per-subject ledger index, so one record
        # hashes a subject several times; the hash is precomputed per
        # (immutable) instance.  The slow reference recomputes the
        # field-tuple hash per call, as the generated method always did.
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        if _fastpath.SLOW_PATH:
            return hash((self.name,))
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ShareInfo:
    """Marks a value as one share of a secret-shared sensitive value.

    Individually a share is information-theoretically useless (its
    label is ``⊙``); a coalition holding *all* ``total`` indices of the
    same ``group`` can reconstruct the underlying sensitive value.  The
    collusion analyzer (:mod:`repro.core.analysis`) uses this to model
    Prio/PPM-style guarantees.
    """

    group: str
    index: int
    total: int


@dataclass(slots=True)
class LabeledValue:
    """A payload annotated with its privacy label and subject.

    Parameters
    ----------
    payload:
        The concrete value (an address, a query name, ciphertext bytes,
        a token, ...).  Payloads should be cheap to ``repr``.
    label:
        The :class:`~repro.core.labels.Label` describing what knowing
        this payload reveals about ``subject``.
    subject:
        Whose information this is.
    description:
        A short human-readable note ("source IP", "DNS qname", ...).
    provenance:
        Names of the transformations that produced this value, oldest
        first, e.g. ``("qname", "hpke-seal")``.

    Labeled values are value objects: treat them as immutable.  Like
    :class:`~repro.core.ledger.Observation` they are slotted but not
    ``frozen`` -- protocol drive loops mint them by the thousand and
    the frozen machinery's per-field ``object.__setattr__`` stores
    dominated construction cost.  ``_digest_cache`` / ``_size_cache``
    hold the memoized ledger digest and wire-size estimate.
    """

    payload: Any
    label: Label
    subject: Subject
    description: str = ""
    provenance: Tuple[str, ...] = ()
    share_info: Optional[ShareInfo] = None
    uid: int = field(default_factory=lambda: next(_serial))
    _digest_cache: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    _size_cache: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        # ``uid`` is unique per instance, so two values compare equal
        # only when every field (uid included) matches -- hashing the
        # uid alone is therefore consistent with the generated __eq__.
        return hash(self.uid)

    def derived(
        self,
        payload: Any,
        *,
        label: Optional[Label] = None,
        description: Optional[str] = None,
        step: str = "",
    ) -> "LabeledValue":
        """A new value derived from this one, extending provenance."""
        return LabeledValue(
            payload=payload,
            label=self.label if label is None else label,
            subject=self.subject,
            description=self.description if description is None else description,
            provenance=self.provenance + ((step,) if step else ()),
            uid=next(_serial),
        )

    def blinded(self, payload: Any, step: str = "blind") -> "LabeledValue":
        """The blinded form of this value: same kind, non-sensitive.

        Blinding (Chaum), encryption toward someone else, and hashing
        with a secret all map a sensitive value to an unlinkable
        non-sensitive one.
        """
        return self.derived(payload, label=self.label.downgraded(), step=step)

    def pseudonym(self, payload: Any, step: str = "pseudonymize") -> "LabeledValue":
        """A non-sensitive identity standing in for this value's subject."""
        label = Label(Kind.IDENTITY, Sensitivity.NONSENSITIVE, self.label.facet)
        return self.derived(payload, label=label, step=step)

    def __str__(self) -> str:
        return f"{self.label.glyph}[{self.description or self.payload!r}]@{self.subject}"


@dataclass(slots=True)
class Sealed:
    """An envelope whose contents are visible only to key holders.

    ``key_id`` names the decryption capability required to open the
    envelope; entities hold key ids in their keyrings (see
    :class:`repro.core.entities.Entity`).  ``exterior`` is what a
    non-holder learns by observing the envelope: by default an opaque
    non-sensitive datum attributed to the same subject as the first
    inner value.

    Envelopes nest: onion encryption is ``Sealed(k1, [Sealed(k2, ...)])``.

    Sealed envelopes are value objects: treat them as immutable (see
    :class:`LabeledValue` for why they are slotted, not frozen).
    ``__hash__`` is identity-based; envelopes are never used as
    value-keyed set or dict members.
    """

    key_id: str
    contents: Tuple[Any, ...]
    exterior: Optional[LabeledValue] = None
    description: str = ""
    _size_cache: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    __hash__ = object.__hash__

    @staticmethod
    def wrap(
        key_id: str,
        contents: Iterable[Any],
        *,
        subject: Optional[Subject] = None,
        description: str = "",
    ) -> "Sealed":
        """Seal ``contents`` under ``key_id`` with a default exterior.

        The exterior *extends* the derivation chain of the first value
        visible inside (rather than starting a fresh ``("seal",)``
        chain), so an observation of the ciphertext still records how
        the enclosed value was produced -- the provenance graph depends
        on this to connect an envelope seen in transit with the
        plaintext derivations behind it.
        """
        items = tuple(contents)
        if subject is None:
            subject = _first_subject(items)
        if _fastpath.SLOW_PATH:
            source = next(walk_values(items, frozenset()), None)
        else:
            source = _first_value(items)
        prior = source.provenance if source is not None else ()
        exterior = LabeledValue(
            payload=f"ciphertext<{key_id}>",
            label=NONSENSITIVE_DATA,
            subject=subject or Subject("nobody"),
            description=description or f"ciphertext under {key_id}",
            provenance=prior + ("seal",),
        )
        return Sealed(key_id=key_id, contents=items, exterior=exterior, description=description)

    def __str__(self) -> str:
        return f"Sealed<{self.key_id}>({len(self.contents)} items)"


@dataclass(frozen=True)
class Aggregate:
    """A value computed from many subjects' inputs.

    Observing an aggregate reveals a non-sensitive datum about each
    contributing subject (their membership in the aggregate), never the
    individual contributions.  Used by the PPM / Prio models.

    ``provenance`` carries the derivation chain of the contributions
    that were folded in (e.g. ``("measurement", "share")``); the
    exterior values extend it with the ``"aggregate"`` step instead of
    overwriting it.
    """

    payload: Any
    contributors: Tuple[Subject, ...]
    description: str = "aggregate"
    provenance: Tuple[str, ...] = ()

    def exterior_values(self) -> Tuple[LabeledValue, ...]:
        """One non-sensitive datum per contributor."""
        return tuple(
            LabeledValue(
                payload=self.payload,
                label=NONSENSITIVE_DATA,
                subject=subject,
                description=self.description,
                provenance=self.provenance + ("aggregate",),
            )
            for subject in self.contributors
        )

    def __str__(self) -> str:
        return f"Aggregate({self.description}, {len(self.contributors)} contributors)"


def _first_subject(items: Tuple[Any, ...]) -> Optional[Subject]:
    for item in items:
        if isinstance(item, LabeledValue):
            return item.subject
        if isinstance(item, Sealed) and item.exterior is not None:
            return item.exterior.subject
        if isinstance(item, Aggregate) and item.contributors:
            return item.contributors[0]
    return None


def _first_value(item: Any) -> Optional[LabeledValue]:
    """First labeled value an empty keyring would see, in walk order.

    :meth:`Sealed.wrap` only needs the *first* value of
    ``walk_values(items, frozenset())`` to seed the exterior's
    provenance; spinning up the full generator machinery per envelope
    (every onion layer, every HPKE seal) showed up in drive-phase
    profiles.  With an empty keyring no envelope opens, so a sealed
    child contributes exactly its exterior.
    """
    cls = item.__class__
    if cls is LabeledValue:
        return item
    if cls is Sealed:
        return item.exterior
    if cls is str or cls is int or cls is float or cls is bool or cls is bytes or item is None:
        return None
    if cls is tuple or cls is list:
        for child in item:
            found = _first_value(child)
            if found is not None:
                return found
        return None
    if isinstance(item, LabeledValue):
        return item
    if isinstance(item, Sealed):
        return item.exterior
    if isinstance(item, Aggregate):
        values = item.exterior_values()
        return values[0] if values else None
    if isinstance(item, dict):
        for child in item.values():
            found = _first_value(child)
            if found is not None:
                return found
    elif isinstance(item, (set, frozenset)):
        for child in item:
            found = _first_value(child)
            if found is not None:
                return found
    elif hasattr(cls, "__dataclass_fields__") and not isinstance(item, type):
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(item))
            _FIELD_NAMES[cls] = names
        for name in names:
            found = _first_value(getattr(item, name))
            if found is not None:
                return found
    return None


def walk_values(
    item: Any, keyring: frozenset[str] | set[str]
) -> Iterator[LabeledValue]:
    """Yield every labeled value visible to a holder of ``keyring``.

    Walks arbitrarily nested tuples/lists/dicts, opening
    :class:`Sealed` envelopes whose ``key_id`` is in ``keyring`` and
    yielding only the exterior of those that are not.  This function is
    the single place where "who can see what" is decided; entities call
    it from :meth:`~repro.core.entities.Entity.observe`.
    """
    if isinstance(item, LabeledValue):
        yield item
    elif isinstance(item, Sealed):
        if item.key_id in keyring:
            # A key holder sees the ciphertext too: the exterior is
            # yielded alongside the contents.  This is what lets the
            # linkage analysis connect an envelope observed in transit
            # by one entity with its decryption at another.
            if item.exterior is not None:
                yield item.exterior
            for inner in item.contents:
                yield from walk_values(inner, keyring)
        elif item.exterior is not None:
            yield item.exterior
    elif isinstance(item, Aggregate):
        yield from item.exterior_values()
    elif isinstance(item, dict):
        for child in item.values():
            yield from walk_values(child, keyring)
    elif isinstance(item, (tuple, list, set, frozenset)):
        for child in item:
            yield from walk_values(child, keyring)
    elif dataclasses.is_dataclass(item) and not isinstance(item, type):
        # Protocol messages are dataclasses; walk their fields so the
        # labels they embed (a query's qname, a request's target) are
        # observed without each message type teaching the walker.
        for f in dataclasses.fields(item):
            yield from walk_values(getattr(item, f.name), keyring)
    # Bare payloads (str/int/bytes/None) carry no labeled information.


# Per-message-type field-name cache for collect_values: the slow
# ``dataclasses.fields`` call resolves the same tuple for every packet
# of a given protocol, so resolve it once per type.
_FIELD_NAMES: dict = {}


def collect_values(
    item: Any, keyring: frozenset[str] | set[str]
) -> list[LabeledValue]:
    """Eager :func:`walk_values` for the drive-phase hot path.

    Same traversal, same visibility rule, same order -- but appends to
    a list instead of resuming a generator per value, and caches each
    message dataclass's field names per type.  The equivalence
    ``collect_values(x, k) == list(walk_values(x, k))`` is pinned by a
    property test in ``tests/test_drive_fastpath.py``.
    """
    if item.__class__ is LabeledValue:
        return [item]  # the single-value case (e.g. a packet header)
    out: list[LabeledValue] = []
    _collect_into(item, keyring, out)
    return out


def _collect_into(item: Any, keyring, out: list) -> None:
    # Exact-class dispatch first: the hot structures are built from
    # these concrete classes, and ``cls is X`` is several times cheaper
    # than the isinstance chain.  Subclasses and odd containers fall
    # through to the general checks below.
    cls = item.__class__
    if cls is LabeledValue:
        out.append(item)
        return
    if cls is Sealed:
        if item.key_id in keyring:
            if item.exterior is not None:
                out.append(item.exterior)
            for inner in item.contents:
                _collect_into(inner, keyring, out)
        elif item.exterior is not None:
            out.append(item.exterior)
        return
    if cls is str or cls is int or cls is float or cls is bool or cls is bytes or item is None:
        return  # bare payloads carry no labeled information
    if cls is tuple or cls is list:
        for child in item:
            _collect_into(child, keyring, out)
        return
    if cls is dict:
        for child in item.values():
            _collect_into(child, keyring, out)
        return
    if cls is Aggregate:
        out.extend(item.exterior_values())
        return
    if isinstance(item, LabeledValue):
        out.append(item)
    elif isinstance(item, Sealed):
        if item.key_id in keyring:
            if item.exterior is not None:
                out.append(item.exterior)
            for inner in item.contents:
                _collect_into(inner, keyring, out)
        elif item.exterior is not None:
            out.append(item.exterior)
    elif isinstance(item, Aggregate):
        out.extend(item.exterior_values())
    elif isinstance(item, dict):
        for child in item.values():
            _collect_into(child, keyring, out)
    elif isinstance(item, (tuple, list, set, frozenset)):
        for child in item:
            _collect_into(child, keyring, out)
    elif hasattr(cls, "__dataclass_fields__") and not isinstance(item, type):
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(item))
            _FIELD_NAMES[cls] = names
        for name in names:
            _collect_into(getattr(item, name), keyring, out)

