"""The observation ledger: ground truth for every decoupling analysis.

Every time an entity observes information during a protocol run -- a
message delivered to it, a packet passing a wiretap, an identifier
presented during authentication -- an :class:`Observation` is appended
to the run's :class:`Ledger`.  The analyzer
(:mod:`repro.core.analysis`) never looks at the systems themselves,
only at the ledger; this keeps the derivation of the paper's tables
honest.

Storage is sharded into append-only segments
(:class:`repro.core.segments.LedgerSegment`): ``record``/``record_fast``
append to the single *active* segment and maintain its per-segment
buckets, while the ledger keeps compact global summaries (subject and
entity first-appearance order, per-pair label combinations, per-pair
sensitivity flags, per-organization sensitive-subject sets, identity
facets).  Sealed segments are immutable and can spill their rows to
disk, one compact JSON document per segment; every query below merges
per-segment buckets on demand, reloading spilled segments only when
their rows are actually touched.
A default-constructed ledger never auto-seals, so small runs behave
exactly like the flat in-memory ledger always did; large runs call
:meth:`Ledger.configure_segments` to bound resident memory (see
docs/SCALE.md).

A monotonically increasing :attr:`Ledger.version` lets downstream
caches (the analyzer's memoized coupling results,
:func:`repro.core.tuples.facets_in_ledger`) detect appends and
invalidate; :attr:`Ledger.generation` distinguishes destructive resets
(:meth:`Ledger.clear`) from appends so streaming consumers know when
their incremental state is void.  See docs/PERFORMANCE.md for the
invariants.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import weakref
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry as _get_registry

from .labels import Facet, Kind, Label
from .segments import LedgerSegment
from .values import LabeledValue, ShareInfo, Subject, digest_of

__all__ = ["Observation", "Ledger"]

_EMPTY: Tuple["Observation", ...] = ()

_intern = sys.intern


@dataclass(slots=True)
class Observation:
    """One entity learning one labeled value at one moment.

    ``channel`` records how the information arrived ("wire", "message",
    "attestation", "breach", ...) which the breach and collusion
    analyses use to slice the ledger.

    ``packet_id`` pins the observation to the concrete wire packet
    whose delivery produced it (``None`` for local acts: self
    observations, attestations, breaches).  The provenance graph
    (:mod:`repro.obs.provenance`) uses it to derive, rather than
    guess, the packet behind every knowledge-table cell.

    Observations are value objects: treat them as immutable.  The
    class is slotted but deliberately not ``frozen`` -- the frozen
    machinery routes all twelve constructor stores through
    ``object.__setattr__``, which dominated the drive-phase profile at
    tens of thousands of records per run.  Nothing in the codebase
    mutates one after construction, and the cached hash assumes nobody
    does.
    """

    entity: str
    organization: str
    subject: Subject
    label: Label
    value_digest: str
    description: str
    time: float
    channel: str
    session: str = ""
    provenance: Tuple[str, ...] = ()
    share_info: Optional[ShareInfo] = None
    packet_id: Optional[int] = None
    _cached_hash: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        # Observations live in sets and dict keys throughout the
        # coupling analysis; hashing all twelve fields per lookup
        # dominated profiles.  The hash is computed once, lazily, on
        # first use -- drive-phase records that the analyzer never
        # hashes pay nothing.
        cached = self._cached_hash
        if cached is None:
            cached = hash(
                (
                    self.entity,
                    self.organization,
                    self.subject,
                    self.label,
                    self.value_digest,
                    self.description,
                    self.time,
                    self.channel,
                    self.session,
                    self.provenance,
                    self.share_info,
                    self.packet_id,
                )
            )
            self._cached_hash = cached
        return cached

    def __str__(self) -> str:
        return (
            f"t={self.time:.3f} {self.entity} saw {self.label.glyph}"
            f"[{self.description}] of {self.subject} via {self.channel}"
        )


# ----------------------------------------------------------------------
# Interned label combinations
# ----------------------------------------------------------------------
#
# At a million subjects the per-pair label sets dominate resident
# memory if each pair owns a mutable set.  Label vocabularies are tiny
# (a few dozen distinct combinations per run), so pairs share interned
# frozensets instead: adding a label to a pair is one transition-cache
# lookup, and the per-pair cost is a single pointer.  The caches keep
# every combo alive, which is what makes keying the flag cache by
# ``id(combo)`` sound.

_COMBO_SINGLE: Dict[Label, FrozenSet[Label]] = {}
_COMBO_NEXT: Dict[Tuple[int, Label], FrozenSet[Label]] = {}
#: id(combo) -> bit flags: 1 = has sensitive identity, 2 = sensitive data.
_COMBO_FLAGS: Dict[int, int] = {}
#: Label -> the same flags, for the record hot loops.
_LABEL_FLAGS: Dict[Label, int] = {}


def _label_flags(label: Label) -> int:
    flags = _LABEL_FLAGS.get(label)
    if flags is None:
        flags = 0
        if label.is_sensitive:
            if label.is_identity:
                flags |= 1
            if label.is_data:
                flags |= 2
        _LABEL_FLAGS[label] = flags
    return flags


def _combo_single(label: Label) -> FrozenSet[Label]:
    combo = _COMBO_SINGLE.get(label)
    if combo is None:
        combo = frozenset((label,))
        _COMBO_SINGLE[label] = combo
        _COMBO_FLAGS[id(combo)] = _label_flags(label)
    return combo


def _combo_extend(combo: FrozenSet[Label], label: Label) -> FrozenSet[Label]:
    key = (id(combo), label)
    extended = _COMBO_NEXT.get(key)
    if extended is None:
        extended = frozenset((*combo, label))
        _COMBO_NEXT[key] = extended
        _COMBO_FLAGS[id(extended)] = _COMBO_FLAGS[id(combo)] | _label_flags(label)
    return extended


def _cleanup_spill_dir(path: str) -> None:
    """Best-effort removal of a ledger-owned spill directory."""
    try:
        shutil.rmtree(path, ignore_errors=True)
    except Exception:
        pass


class Ledger:
    """Append-only record of all observations in a protocol run."""

    def __init__(self) -> None:
        self._segments: List[LedgerSegment] = [LedgerSegment(0, 0)]
        self._total: int = 0
        self._version: int = 0
        self._generation: int = 0
        # Global summaries, maintained by every record path.  Dicts
        # preserve insertion order, so their keys double as the
        # first-appearance orderings that entities()/subjects()
        # promise.  Subject-keyed structures key on ``subject.name`` --
        # subjects are equal iff their names are, and string keys hash
        # at C speed (CPython caches a str's hash in the object) where
        # Subject keys would re-enter a Python ``__hash__`` frame on
        # every dict operation in the record hot loop.  ``_subjects``
        # maps each name to its Subject in first-appearance order.
        self._subjects: Dict[str, Subject] = {}
        self._entity_order: Dict[str, None] = {}
        self._org_order: Dict[str, None] = {}
        self._labels_by_entity: Dict[str, Set[Label]] = {}
        #: pair -> interned frozenset of labels (see module comment).
        self._labels_by_pair: Dict[Tuple[str, str], FrozenSet[Label]] = {}
        #: pairs that hold at least one secret share (rare; Prio).
        self._share_pairs: Set[Tuple[str, str]] = set()
        #: org -> subject names it saw with a sensitive identity label.
        self._org_identity: Dict[str, Set[str]] = {}
        #: org -> subject names it saw with a sensitive data label.
        self._org_data: Dict[str, Set[str]] = {}
        #: org -> subject names for which it holds secret shares.
        self._org_share: Dict[str, Set[str]] = {}
        self._identity_facets: Set[Facet] = set()
        # Segment policy and accounting (see configure_segments).
        self._segment_rows: Optional[int] = None
        self._spill_dir: Optional[str] = None
        self._owns_spill_dir: bool = False
        self._spill_finalizer = None
        self._auto_spill: bool = False
        self._sealed_count: int = 0
        self._spilled_count: int = 0
        self._spilled_rows: int = 0
        self._reloads: int = 0
        self._seal_listeners: List[Callable[["Ledger", LedgerSegment], None]] = []

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter.

        Bumped on every :meth:`record` and :meth:`clear`, and once per
        *batch* by :meth:`record_fast`.  The invariant downstream
        caches rely on is exactly this: **equal version means identical
        contents; any mutation changes the version**.  It deliberately
        does *not* promise ``version == len(observations)`` -- analyzer
        memo keys are ``(ledger, version)`` equality checks, so one
        bump per batch invalidates them just as correctly as one bump
        per row (``tests/test_drive.py`` pins this).  Sealing
        or spilling a segment does not bump the version: contents are
        unchanged.
        """
        return self._version

    @property
    def generation(self) -> int:
        """Bumped only by destructive resets (:meth:`clear`).

        Streaming consumers (the analyzer's incremental state) key
        their catch-up cursors on row counts, which appends only grow;
        a generation change is the signal that counts restarted and
        every incremental structure must be rebuilt.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Segment policy
    # ------------------------------------------------------------------

    def configure_segments(
        self,
        *,
        rows: Optional[int] = None,
        spill: bool = False,
        directory: Optional[str] = None,
    ) -> None:
        """Set the segment lifecycle policy.

        ``rows``: auto-seal the active segment when it reaches this
        many rows (``None``: never auto-seal -- the default, in which
        case the ledger behaves exactly like the flat single-segment
        ledger).  ``spill=True``: sealed segments immediately spill
        their rows to one JSON file each under ``directory``.  When
        ``directory`` is ``None`` a fresh private temp directory is
        created lazily; it is unique per ledger *and* per process
        (``mkdtemp`` plus the pid in the prefix), so parallel harness
        workers can never collide on spill paths, and it is removed
        when the ledger is garbage-collected or cleared.
        """
        if rows is not None and rows < 1:
            raise ValueError("segment rows must be >= 1")
        self._segment_rows = rows
        self._auto_spill = bool(spill)
        if directory is not None:
            self._spill_dir = directory
            self._owns_spill_dir = False
            os.makedirs(directory, exist_ok=True)

    def add_seal_listener(
        self, listener: Callable[["Ledger", LedgerSegment], None]
    ) -> None:
        """Call ``listener(ledger, segment)`` whenever a segment seals.

        Listeners run while the sealed segment is still resident --
        before any automatic spill -- which is how the streaming
        analyzer consumes rows incrementally without ever re-reading
        them from disk.
        """
        self._seal_listeners.append(listener)

    def _ensure_spill_dir(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(
                prefix=f"repro-spill-{os.getpid()}-"
            )
            self._owns_spill_dir = True
            self._spill_finalizer = weakref.finalize(
                self, _cleanup_spill_dir, self._spill_dir
            )
        return self._spill_dir

    @property
    def active_segment(self) -> LedgerSegment:
        return self._segments[-1]

    @property
    def segments(self) -> Tuple[LedgerSegment, ...]:
        return tuple(self._segments)

    def seal_active_segment(self) -> Optional[LedgerSegment]:
        """Seal the active segment and open a fresh one.

        Returns the sealed segment (``None`` if the active segment was
        empty -- sealing nothing is a no-op).  Contents are unchanged,
        so the :attr:`version` does not move.  When the spill policy is
        armed the sealed segment's rows go to disk immediately, after
        the seal listeners have seen them.  The fresh active segment
        opens first, so a spill that raises (disk full, directory
        gone) leaves the ledger recording; the sealed segment then
        stays resident until :meth:`spill_sealed_segments` succeeds.
        """
        segment = self._segments[-1]
        if segment.count == 0:
            return None
        segment.seal()
        self._segments.append(LedgerSegment(len(self._segments), self._total))
        self._sealed_count += 1
        for listener in self._seal_listeners:
            listener(self, segment)
        if _obs.COUNTERS:
            _get_registry().segments_sealed += 1
        if self._auto_spill:
            self._spill_segment(segment)
        return segment

    def _spill_segment(self, segment: LedgerSegment) -> None:
        directory = self._ensure_spill_dir()
        path = os.path.join(directory, f"segment-{segment.index:05d}.json")
        dropped = segment.spill(path)
        if dropped:
            self._spilled_count += 1
            self._spilled_rows += dropped
            if _obs.COUNTERS:
                registry = _get_registry()
                registry.segments_spilled += 1
                registry.rows_spilled += dropped

    def spill_sealed_segments(self) -> int:
        """Spill every sealed, still-resident segment; returns rows dropped."""
        before = self._spilled_rows
        for segment in self._segments:
            if segment.sealed and segment.resident:
                self._spill_segment(segment)
        return self._spilled_rows - before

    def _loaded(self, segment: LedgerSegment) -> LedgerSegment:
        if segment.rows is None:
            segment.load()
            self._reloads += 1
        return segment

    def memory_accounting(self) -> Dict[str, int]:
        """Bounded-memory accounting for the segment lifecycle.

        The same numbers every observability tier that records metrics
        counts into the metrics registry (``ledger.segments.sealed`` /
        ``ledger.segments.spilled`` / ``ledger.rows.spilled``), plus
        point-in-time residency, for the T-series harness and tests.
        """
        resident = sum(s.count for s in self._segments if s.resident)
        return {
            "total_rows": self._total,
            "resident_rows": resident,
            "segments": len(self._segments),
            "segments_sealed": self._sealed_count,
            "segments_spilled": self._spilled_count,
            "rows_spilled": self._spilled_rows,
            "segment_reloads": self._reloads,
        }

    # ------------------------------------------------------------------
    # Record paths
    # ------------------------------------------------------------------

    def _fold_summaries(self, observation: Observation) -> None:
        """Fold one observation into every global summary."""
        entity = observation.entity
        org = observation.organization
        name = observation.subject.name
        label = observation.label
        if name not in self._subjects:
            self._subjects[name] = observation.subject
        self._entity_order.setdefault(entity, None)
        self._org_order.setdefault(org, None)
        self._labels_by_entity.setdefault(entity, set()).add(label)
        pair = (entity, name)
        combo = self._labels_by_pair.get(pair)
        if combo is None:
            self._labels_by_pair[pair] = _combo_single(label)
        elif label not in combo:
            self._labels_by_pair[pair] = _combo_extend(combo, label)
        flags = _label_flags(label)
        if flags:
            if flags & 1:
                self._org_identity.setdefault(org, set()).add(name)
            if flags & 2:
                self._org_data.setdefault(org, set()).add(name)
        if observation.share_info is not None:
            self._share_pairs.add(pair)
            self._org_share.setdefault(org, set()).add(name)
        if label.kind is Kind.IDENTITY:
            self._identity_facets.add(label.facet)

    def _append(self, observation: Observation) -> None:
        """Fold one observation into the active segment and summaries."""
        self._segments[-1].fold(observation)
        self._fold_summaries(observation)
        self._total += 1

    def _maybe_roll_segment(self) -> None:
        limit = self._segment_rows
        if limit is not None and self._segments[-1].count >= limit:
            self.seal_active_segment()

    def record(
        self,
        entity: str,
        organization: str,
        value: LabeledValue,
        *,
        time: float = 0.0,
        channel: str = "message",
        session: str = "",
        packet_id: Optional[int] = None,
    ) -> Observation:
        """Append one observation and return it.

        ``session`` names the interaction this observation arrived in
        (one packet delivery, one local act).  Observations of the same
        entity in the same session are mutually *linkable*; across
        sessions, only a shared value digest (a pseudonym seen twice)
        links them.  The analyzer's coupling logic builds on this.

        ``packet_id`` stamps the wire packet whose delivery caused the
        observation, if any; the provenance graph joins on it.
        """
        (observation,) = self.record_fast(
            entity,
            organization,
            [value],
            time=time,
            channel=channel,
            session=session,
            packet_id=packet_id,
        )
        return observation

    def record_fast(
        self,
        entity: str,
        organization: str,
        values: List[LabeledValue],
        *,
        time: float = 0.0,
        channel: str = "message",
        session: str = "",
        packet_id: Optional[int] = None,
    ) -> List[Observation]:
        """Batch-append one interaction's pre-walked values.

        :meth:`Entity.observe <repro.core.entities.Entity.observe>`
        walks an item once with
        :func:`~repro.core.values.collect_values` and folds the whole
        value list into the active segment's buckets and the global
        summaries here, with hoisted bucket lookups, interned
        channel/session strings, memoized value digests, and **one
        version bump for the whole batch** (see :attr:`version` for why
        that is sound).  The resulting observations, indices, and
        iteration order are exactly what the equivalent sequence of
        :meth:`record` calls would produce.  Batches never straddle a
        segment boundary: the auto-seal check runs once per batch, so
        segment sizes are approximate by at most one batch.
        """
        if not values:
            return []
        channel = _intern(channel)
        session = _intern(session)
        segment = self._segments[-1]
        rows = segment.rows
        seg_by_subject = segment.by_subject
        seg_by_pair = segment.by_entity_subject
        seg_by_org_pair = segment.by_org_subject
        subjects = self._subjects
        labels_by_pair = self._labels_by_pair
        share_pairs = self._share_pairs
        identity_facets = self._identity_facets
        # One interaction has one entity/organization: resolve those
        # buckets and summary sets once per batch instead of per value.
        entity_bucket = segment.by_entity.setdefault(entity, [])
        org_bucket = segment.by_organization.setdefault(organization, [])
        entity_labels = self._labels_by_entity.setdefault(entity, set())
        if entity not in self._entity_order:
            self._entity_order[entity] = None
        if organization not in self._org_order:
            self._org_order[organization] = None
        org_identity = self._org_identity.setdefault(organization, set())
        org_data = self._org_data.setdefault(organization, set())
        recorded: List[Observation] = []
        for value in values:
            subject = value.subject
            name = subject.name
            label = value.label
            value_digest = value._digest_cache
            if value_digest is None:
                value_digest = digest_of(value)
            observation = Observation(
                entity,
                organization,
                subject,
                label,
                value_digest,
                value.description,
                time,
                channel,
                session,
                value.provenance,
                value.share_info,
                packet_id,
            )
            rows.append(observation)
            entity_bucket.append(observation)
            org_bucket.append(observation)
            bucket = seg_by_subject.get(name)
            if bucket is None:
                seg_by_subject[name] = [observation]
            else:
                bucket.append(observation)
            if name not in subjects:
                subjects[name] = subject
            pair = (entity, name)
            bucket = seg_by_pair.get(pair)
            if bucket is None:
                seg_by_pair[pair] = [observation]
            else:
                bucket.append(observation)
            org_pair = (organization, name)
            bucket = seg_by_org_pair.get(org_pair)
            if bucket is None:
                seg_by_org_pair[org_pair] = [observation]
            else:
                bucket.append(observation)
            entity_labels.add(label)
            combo = labels_by_pair.get(pair)
            if combo is None:
                labels_by_pair[pair] = _combo_single(label)
            elif label not in combo:
                labels_by_pair[pair] = _combo_extend(combo, label)
            flags = _LABEL_FLAGS.get(label)
            if flags is None:
                flags = _label_flags(label)
            if flags:
                if flags & 1:
                    org_identity.add(name)
                if flags & 2:
                    org_data.add(name)
            if value.share_info is not None:
                share_pairs.add(pair)
                self._org_share.setdefault(organization, set()).add(name)
            if label.kind is Kind.IDENTITY:
                identity_facets.add(label.facet)
            recorded.append(observation)
        segment.count += len(recorded)
        self._total += len(recorded)
        self._version += 1
        if _obs.COUNTERS:
            observations = _get_registry().observations
            observations[channel] = observations.get(channel, 0) + len(recorded)
        self._maybe_roll_segment()
        return recorded

    def ingest(self, observations: Iterable[Observation]) -> None:
        """Append pre-built observations (deserialization, replay).

        Maintains every index and summary and bumps :attr:`version`
        once per observation, exactly as :meth:`record` would; this is
        the supported way to rebuild a ledger from stored rows.
        """
        for observation in observations:
            self._append(observation)
            self._version += 1
            self._maybe_roll_segment()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[Observation]:
        for segment in self._segments:
            yield from self._loaded(segment).rows

    @property
    def observations(self) -> Tuple[Observation, ...]:
        return tuple(self)

    def rows_between(self, start: int, stop: int) -> Iterator[Observation]:
        """Rows ``[start, stop)`` in record order (streaming catch-up).

        Spilled segments in the range are *streamed* from their spill
        files, one segment at a time, without becoming resident again
        -- sequential catch-up scans must not inflate the resident
        set.  (The streaming analyzer mostly avoids even the file reads
        by consuming each segment at seal time via
        :meth:`add_seal_listener`.)
        """
        if start >= stop:
            return
        for segment in self._segments:
            seg_start = segment.start
            if seg_start >= stop:
                break
            seg_end = seg_start + segment.count
            if seg_end <= start:
                continue
            lo = max(0, start - seg_start)
            hi = min(segment.count, stop - seg_start)
            rows = segment.rows if segment.resident else segment.read_rows()
            if lo == 0 and hi == segment.count:
                yield from rows
            else:
                yield from rows[lo:hi]

    def entities(self) -> Tuple[str, ...]:
        """Entity names in order of first appearance."""
        return tuple(self._entity_order)

    def subjects(self) -> Tuple[Subject, ...]:
        """Subjects in order of first appearance."""
        return tuple(self._subjects.values())

    def subject(self, name: str) -> Subject:
        """The interned :class:`Subject` for ``name`` (KeyError if unseen)."""
        return self._subjects[name]

    def subject_names(self) -> Tuple[str, ...]:
        """Subject names in order of first appearance."""
        return tuple(self._subjects)

    def identity_facets(self) -> FrozenSet[Facet]:
        """The identity facets observed so far (unordered)."""
        return frozenset(self._identity_facets)

    def _merge_buckets(self, attribute: str, key) -> Tuple[Observation, ...]:
        segments = self._segments
        if len(segments) == 1:
            bucket = getattr(segments[0], attribute).get(key)
            return tuple(bucket) if bucket else _EMPTY
        merged: List[Observation] = []
        for segment in segments:
            buckets = getattr(segment, attribute)
            if buckets is None:
                # Spilled: the key summary says whether this segment
                # holds any rows for the key at all, so absent keys
                # never trigger a reload.
                if key not in segment.keys[attribute]:
                    continue
                buckets = getattr(self._loaded(segment), attribute)
            bucket = buckets.get(key)
            if bucket:
                merged.extend(bucket)
        return tuple(merged)

    def by_entity(self, entity: str) -> Tuple[Observation, ...]:
        return self._merge_buckets("by_entity", entity)

    def by_organization(self, organization: str) -> Tuple[Observation, ...]:
        return self._merge_buckets("by_organization", organization)

    def by_subject(self, subject: Subject) -> Tuple[Observation, ...]:
        return self._merge_buckets("by_subject", subject.name)

    def by_pair(self, entity: str, subject: Subject) -> Tuple[Observation, ...]:
        """Observations of one entity about one subject, in record order."""
        return self._merge_buckets("by_entity_subject", (entity, subject.name))

    def by_org_subject(
        self, organization: str, subject: Subject
    ) -> Tuple[Observation, ...]:
        """Observations by one organization about one subject."""
        return self._merge_buckets("by_org_subject", (organization, subject.name))

    def subjects_of_entity(self, entity: str) -> Tuple[Subject, ...]:
        """Subjects ``entity`` has observed, in global first-appearance order."""
        pairs = self._labels_by_pair
        return tuple(
            subject
            for name, subject in self._subjects.items()
            if (entity, name) in pairs
        )

    def labels_of(self, entity: str, subject: Optional[Subject] = None) -> Set[Label]:
        """The set of labels ``entity`` has observed (optionally per subject)."""
        if subject is None:
            return set(self._labels_by_entity.get(entity, ()))
        return set(self._labels_by_pair.get((entity, subject.name), ()))

    # ------------------------------------------------------------------
    # Streaming-analyzer summaries
    # ------------------------------------------------------------------

    def pair_is_coupling_candidate(self, entity: str, name: str) -> bool:
        """Can this (entity, subject-name) pair possibly couple?

        Coupling requires a sensitive identity label in the pair's pool
        plus either a sensitive data label or a secret share (a
        complete share group reconstructs to sensitive data).  The
        check is O(1) against the interned label-combo flags, so the
        analyzer can dismiss the overwhelmingly common one-sided pairs
        without touching their rows.  Conservative by construction:
        ``True`` means "must run the union-find", never "couples".
        """
        combo = self._labels_by_pair.get((entity, name))
        if combo is None:
            return False
        flags = _COMBO_FLAGS[id(combo)]
        if not flags & 1:
            return False
        if flags & 2:
            return True
        return (entity, name) in self._share_pairs

    def coalition_is_coupling_candidate(
        self, organizations: Iterable[str], name: str
    ) -> bool:
        """Same pre-filter for a pooled coalition and one subject."""
        has_identity = False
        has_data = False
        org_identity = self._org_identity
        org_data = self._org_data
        org_share = self._org_share
        for org in organizations:
            if not has_identity:
                names = org_identity.get(org)
                if names is not None and name in names:
                    has_identity = True
            if not has_data:
                names = org_data.get(org)
                if names is not None and name in names:
                    has_data = True
                else:
                    names = org_share.get(org)
                    if names is not None and name in names:
                        has_data = True
            if has_identity and has_data:
                return True
        return False

    def coalition_candidate_names(
        self, organizations: Iterable[str]
    ) -> Iterator[str]:
        """Subject names that pass the coalition candidate pre-filter.

        The pooled coupling check only needs to visit these: a subject
        for whom the coalition holds no sensitive identity, or neither
        sensitive data nor shares, cannot couple no matter how its
        observations link.

        Names come newest first, by first appearance, lazily.  A
        subject's rows all lie at or after its first appearance, so a
        caller that stops at the first coupling subject builds the pool
        that touches the fewest old (possibly spilled) segments, and
        the probe order never depends on string hashing.
        """
        orgs = list(organizations)
        data: Set[str] = set()
        for org in orgs:
            names = self._org_data.get(org)
            if names:
                data |= names
            names = self._org_share.get(org)
            if names:
                data |= names
        if not data:
            return iter(())
        identity: Set[str] = set()
        for org in orgs:
            names = self._org_identity.get(org)
            if names:
                identity |= names
        candidates = identity & data
        if not candidates:
            return iter(())
        return (name for name in reversed(self._subjects) if name in candidates)

    # ------------------------------------------------------------------
    # Merge / reset
    # ------------------------------------------------------------------

    def merged(self, other: "Ledger") -> "Ledger":
        """A new ledger holding both runs' observations, time-ordered."""
        combined = Ledger()
        for observation in sorted(
            [*self, *other], key=lambda o: o.time
        ):
            combined._append(observation)
        combined._version = combined._total
        return combined

    def clear(self) -> None:
        for segment in self._segments:
            segment.discard_spill()
        self._segments = [LedgerSegment(0, 0)]
        self._total = 0
        self._subjects.clear()
        self._entity_order.clear()
        self._org_order.clear()
        self._labels_by_entity.clear()
        self._labels_by_pair.clear()
        self._share_pairs.clear()
        self._org_identity.clear()
        self._org_data.clear()
        self._org_share.clear()
        self._identity_facets.clear()
        self._sealed_count = 0
        self._spilled_count = 0
        self._spilled_rows = 0
        self._reloads = 0
        self._version += 1
        self._generation += 1
