"""The observation ledger: ground truth for every decoupling analysis.

Every time an entity observes information during a protocol run -- a
message delivered to it, a packet passing a wiretap, an identifier
presented during authentication -- one row is appended to the run's
:class:`Ledger`.  The analyzer (:mod:`repro.core.analysis`) never looks
at the systems themselves, only at the ledger; this keeps the
derivation of the paper's tables honest.

A row is no Python object.  Storage is sharded into append-only
segments (:class:`repro.core.segments.LedgerSegment`) whose rows are
typed ``array`` columns of integer ids; the ledger owns the tables that
the low-cardinality ids index (entities, organizations, subject names,
labels, descriptions with provenance, channels) and compact global
summaries keyed by id (per-pair label bitmasks, per-organization
sensitive-subject sets, share pairs).  One fold (:meth:`Ledger._fold`)
serves :meth:`~Ledger.record_fast`, :meth:`~Ledger.ingest` and
:meth:`~Ledger.merged`.  An :class:`Observation` is built only when a
caller reads one -- iteration, the ``by_*`` queries,
:meth:`~Ledger.rows_between` -- so two reads give equal, not identical,
observations; the analyzer's coupling checks read the columns directly.

Sealed segments are immutable and can spill their columns to disk; every
query merges per-segment buckets on demand, reloading spilled segments
only when their rows are actually touched.  A default-constructed
ledger never auto-seals; large runs call
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
from array import array
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple
)

from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry as _get_registry

from .labels import Facet, Kind, Label
from .segments import NO_PACKET, LedgerSegment
from .values import LabeledValue, ShareInfo, Subject, digest_of

__all__ = ["Observation", "Ledger"]

_intern = sys.intern

#: Label flags: what a label makes a row hold (0: neither).  They also
#: index an organization's ``(share, identity, data)`` subject maps.
_IDENTITY = 1
_DATA = 2

#: A pool: segment by segment, the local row numbers of some rows.
Pool = List[Tuple[LedgerSegment, Sequence[int]]]


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
    ledger builds one per row read, so the cached hash costs a row
    that is never hashed nothing.
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
        cached = self._cached_hash
        if cached is None:
            cached = self._cached_hash = hash(
                (self.entity, self.organization, self.subject, self.label,
                 self.value_digest, self.description, self.time, self.channel,
                 self.session, self.provenance, self.share_info, self.packet_id)
            )
        return cached

    def __str__(self) -> str:
        return (
            f"t={self.time:.3f} {self.entity} saw {self.label.glyph}"
            f"[{self.description}] of {self.subject} via {self.channel}"
        )

    @property
    def _digest_cache(self) -> str:
        """The digest where the fold reads a labeled value's memoized one."""
        return self.value_digest


class _Table:
    """An intern table: ``values[id]`` and ``ids[value]``."""

    __slots__ = ("values", "ids")

    def __init__(self) -> None:
        self.values: list = []
        self.ids: dict = {}

    def add(self, value) -> int:
        ident = self.ids[value] = len(self.values)
        self.values.append(value)
        return ident


def _cleanup_spill_dir(path: str) -> None:
    """Best-effort removal of a ledger-owned spill directory."""
    try:
        shutil.rmtree(path, ignore_errors=True)
    except Exception:
        pass


class Ledger:
    """Append-only record of all observations in a protocol run."""

    def __init__(self) -> None:
        self._version: int = 0
        self._generation: int = 0
        self._reset()
        # Segment policy and accounting (see configure_segments).
        self._segment_rows: Optional[int] = None
        self._spill_dir: Optional[str] = None
        self._owns_spill_dir: bool = False
        self._spill_finalizer = None
        self._auto_spill: bool = False
        self._seal_listeners: List[Callable[["Ledger", LedgerSegment], None]] = []

    def _reset(self) -> None:
        """Empty rows, tables and summaries (construction and clear)."""
        self._segments: List[LedgerSegment] = [LedgerSegment(0, 0)]
        self._total = 0
        self._sealed_count = 0
        self._spilled_count = 0
        self._spilled_rows = 0
        self._reloads = 0
        # Ledger-wide tables, in first-appearance order, so the entity
        # and subject tables double as the orders entities()/subjects()
        # promise.  Subjects are kept by name: two subjects are the same
        # iff their names are, and a name is no object the collector
        # has to visit.
        self._entities = _Table()
        self._orgs = _Table()
        self._subjects = _Table()
        self._labels = _Table()
        #: (description, provenance) pairs.
        self._descs = _Table()
        self._channels = _Table()
        #: Per label id: _IDENTITY / _DATA if the label is a sensitive
        #: identity / sensitive data, else 0.
        self._label_flags: List[int] = []
        #: Bitmasks over label ids: sensitive identities, sensitive data.
        self._identity_bits = 0
        self._data_bits = 0
        #: Per entity id: bitmask of the label ids it observed.
        self._entity_labels: List[int] = []
        #: Per entity id: whether it observed a secret share.
        self._entity_shares: List[bool] = []
        #: Per entity id: subject id -> bitmask of the label ids seen.
        self._pair_labels: List[Dict[int, int]] = []
        #: Per organization id: the subject ids it saw with a secret
        #: share, a sensitive identity, sensitive data (dicts, which the
        #: collector stops tracking, rather than sets, which it never
        #: does).
        self._org_subjects: List[Tuple[Dict[int, None], ...]] = []
        #: (entity id, subject id) pairs holding a secret share (rare).
        self._share_pairs: Set[Tuple[int, int]] = set()

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
        their columns to one file each under ``directory``.  When
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
        path = os.path.join(directory, f"segment-{segment.index:05d}.bin")
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
        if not segment.resident:
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

    def _new_entity(self, entity: str) -> int:
        self._entity_labels.append(0)
        self._entity_shares.append(False)
        self._pair_labels.append({})
        return self._entities.add(entity)

    def _new_org(self, organization: str) -> int:
        self._org_subjects.append(({}, {}, {}))
        return self._orgs.add(organization)

    def _new_label(self, label: Label) -> int:
        flags = 0
        if label.is_sensitive:
            flags = _IDENTITY if label.is_identity else _DATA
        ident = self._labels.add(label)
        self._label_flags.append(flags)
        if flags == _IDENTITY:
            self._identity_bits |= 1 << ident
        elif flags == _DATA:
            self._data_bits |= 1 << ident
        return ident

    def _fold(
        self, entity: str, organization: str, values: Iterable, time: float,
        channel: str, session: str, packet_id: Optional[int],
    ) -> range:
        """Append one interaction's rows and fold them into the summaries.

        ``values`` are labeled values, or observations being
        re-ingested: anything with ``subject``, ``label``,
        ``description``, ``provenance``, ``share_info`` and a
        ``_digest_cache``.  One entity, organization, time, channel, session
        and packet id cover the batch, so their ids, buckets and
        summary maps resolve once.  Bumps :attr:`version` once and
        returns the new rows' numbers.
        """
        segment = self._segments[-1]
        eid = self._entities.ids.get(entity)
        if eid is None:
            eid = self._new_entity(entity)
        oid = self._orgs.ids.get(organization)
        if oid is None:
            oid = self._new_org(organization)
        cid = self._channels.ids.get(channel)
        if cid is None:
            cid = self._channels.add(_intern(channel))
        sessions = segment.sessions
        if not sessions or sessions[-1] != session:
            sessions.append(session)
        session_id = len(sessions) - 1
        packet = NO_PACKET if packet_id is None else packet_id
        pair_rows = segment.by_pair.get(eid)
        if pair_rows is None:
            pair_rows = segment.by_pair[eid] = {}
        org_rows = segment.by_org_pair.get(oid)
        if org_rows is None:
            org_rows = segment.by_org_pair[oid] = {}
        subject_ids = self._subjects.ids
        label_ids = self._labels.ids
        label_flags = self._label_flags
        desc_ids = self._descs.ids
        digest_ids = segment.digest_ids
        digest_table = segment.digests
        pair_labels = self._pair_labels[eid]
        org_subjects = self._org_subjects[oid]
        (add_entity, add_org, add_subject, add_label, add_description, add_channel,
         add_digest, add_session, add_time, add_packet) = segment.appends
        entity_mask = 0
        first = row = segment.count
        for value in values:
            name = value.subject.name
            subject = subject_ids.get(name)
            if subject is None:
                subject = self._subjects.add(name)
            label = value.label
            lid = label_ids.get(label)
            if lid is None:
                lid = self._new_label(label)
            key = (value.description, value.provenance)
            did = desc_ids.get(key)
            if did is None:
                did = self._descs.add(key)
            value_digest = value._digest_cache
            if value_digest is None:
                value_digest = digest_of(value)
            gid = digest_ids.get(value_digest)
            if gid is None:
                gid = digest_ids[value_digest] = len(digest_table)
                digest_table.append(value_digest)
            add_entity(eid)
            add_org(oid)
            add_subject(subject)
            add_label(lid)
            add_description(did)
            add_channel(cid)
            add_digest(gid)
            add_session(session_id)
            add_time(time)
            add_packet(packet)
            rows = pair_rows.get(subject)
            if rows is None:
                pair_rows[subject] = array("I", (row,))
            else:
                rows.append(row)
            rows = org_rows.get(subject)
            if rows is None:
                org_rows[subject] = array("I", (row,))
            else:
                rows.append(row)
            bit = 1 << lid
            entity_mask |= bit
            mask = pair_labels.get(subject, 0)
            if not mask & bit:
                pair_labels[subject] = mask | bit
            flags = label_flags[lid]
            if flags:
                org_subjects[flags][subject] = None
            share = value.share_info
            if share is not None:
                segment.shares[row] = share
                self._share_pairs.add((eid, subject))
                self._entity_shares[eid] = True
                org_subjects[0][subject] = None
            row += 1
        self._entity_labels[eid] |= entity_mask
        segment.count = row
        self._total += row - first
        self._version += 1
        return range(segment.start + first, segment.start + row)

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
        (row,) = self.record_fast(
            entity, organization, [value], time=time, channel=channel,
            session=session, packet_id=packet_id,
        )
        return next(self.rows_between(row, row + 1))

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
    ) -> range:
        """Batch-append one interaction's pre-walked values.

        :meth:`Entity.observe <repro.core.entities.Entity.observe>`
        walks an item once with
        :func:`~repro.core.values.collect_values` and appends the whole
        value list here, through the one fold, with **one version bump
        for the whole batch** (see :attr:`version` for why that is
        sound).  Returns the new rows' numbers; the rows, and their
        iteration order, are exactly what the equivalent sequence of
        :meth:`record` calls would produce.  Batches never straddle a
        segment boundary: the auto-seal check runs once per batch, so
        segment sizes are approximate by at most one batch.
        """
        if not values:
            return range(self._total, self._total)
        rows = self._fold(
            entity, organization, values, time, channel, session, packet_id
        )
        if _obs.COUNTERS:
            observations = _get_registry().observations
            observations[channel] = observations.get(channel, 0) + len(rows)
        self._maybe_roll_segment()
        return rows

    def ingest(self, observations: Iterable[Observation]) -> None:
        """Append pre-built observations (deserialization, replay).

        Each observation goes through the same fold as a one-value
        :meth:`record_fast` batch, so every index and summary is
        maintained and :attr:`version` bumps once per observation,
        exactly as :meth:`record` would; this is the supported way to
        rebuild a ledger from stored rows.
        """
        for obs in observations:
            self._fold(
                obs.entity, obs.organization, (obs,), obs.time, obs.channel,
                obs.session, obs.packet_id,
            )
            self._maybe_roll_segment()

    # ------------------------------------------------------------------
    # Row reads
    # ------------------------------------------------------------------

    def _observations(
        self, segment: LedgerSegment, rows: Iterable[int]
    ) -> Iterator[Observation]:
        """Build the observations of a resident segment's local ``rows``."""
        entities = self._entities.values
        orgs = self._orgs.values
        names = self._subjects.values
        labels = self._labels.values
        descs = self._descs.values
        channels = self._channels.values
        digests = segment.digests
        sessions = segment.sessions
        shares = segment.shares
        (entity, organization, subject_col, label, description, channel, digest,
         session, time, packet) = segment.columns()
        subjects: Dict[int, Subject] = {}
        for row in rows:
            sid = subject_col[row]
            subject = subjects.get(sid)
            if subject is None:
                subject = subjects[sid] = Subject(names[sid])
            text, provenance = descs[description[row]]
            packet_id = packet[row]
            yield Observation(
                entities[entity[row]],
                orgs[organization[row]],
                subject,
                labels[label[row]],
                digests[digest[row]],
                text,
                time[row],
                channels[channel[row]],
                sessions[session[row]],
                provenance,
                shares.get(row),
                None if packet_id == NO_PACKET else packet_id,
            )

    def _spans(
        self, start: int, stop: int
    ) -> Iterator[Tuple[LedgerSegment, int, int]]:
        """``(segment, lo, hi)`` local ranges covering rows ``[start, stop)``.

        A spilled segment in the range comes as a decoded copy that is
        not installed, so a sequential scan never inflates the resident
        set or counts a reload.
        """
        for segment in self._segments:
            seg_start = segment.start
            if seg_start >= stop:
                break
            if seg_start + segment.count <= start:
                continue
            lo = max(0, start - seg_start)
            hi = min(segment.count, stop - seg_start)
            yield (segment if segment.resident else segment.read()), lo, hi

    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[Observation]:
        for segment in self._segments:
            yield from self._observations(self._loaded(segment), range(segment.count))

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
        for segment, lo, hi in self._spans(start, stop):
            yield from self._observations(segment, range(lo, hi))

    def _pairs_between(self, start: int, stop: int) -> Set[Tuple[str, str]]:
        """The distinct (entity, subject name) pairs of rows ``[start, stop)``."""
        pairs: Set[Tuple[int, int]] = set()
        for segment, lo, hi in self._spans(start, stop):
            pairs.update(zip(segment.entity[lo:hi], segment.subject[lo:hi]))
        entities = self._entities.values
        names = self._subjects.values
        return {(entities[eid], names[sid]) for eid, sid in pairs}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def entities(self) -> Tuple[str, ...]:
        """Entity names in order of first appearance."""
        return tuple(self._entities.values)

    def subjects(self) -> Tuple[Subject, ...]:
        """Subjects in order of first appearance."""
        return tuple(map(Subject, self._subjects.values))

    def subject(self, name: str) -> Subject:
        """The :class:`Subject` for ``name`` (KeyError if unseen)."""
        if name not in self._subjects.ids:
            raise KeyError(name)
        return Subject(name)

    def subject_names(self) -> Tuple[str, ...]:
        """Subject names in order of first appearance."""
        return tuple(self._subjects.values)

    def identity_facets(self) -> FrozenSet[Facet]:
        """The identity facets observed so far (unordered)."""
        return frozenset(
            label.facet for label in self._labels.values if label.kind is Kind.IDENTITY
        )

    def _pool(self, buckets: str, key: str, name: str) -> Pool:
        """The rows of one (entity or organization, subject) bucket.

        ``buckets`` is ``"by_pair"`` (``key`` an entity) or
        ``"by_org_pair"`` (``key`` an organization).
        """
        table = self._entities if buckets == "by_pair" else self._orgs
        kid = table.ids.get(key)
        sid = self._subjects.ids.get(name)
        if kid is None or sid is None:
            return []
        return self._rows(buckets, (kid,), sid)

    def _rows(self, buckets: str, keys: Sequence[int], sid: int) -> Pool:
        """The rows of ``keys``' buckets about subject id ``sid``.

        ``buckets`` is ``"by_pair"`` (``keys`` are entity ids) or
        ``"by_org_pair"`` (organization ids); the ids come resolved, so
        a query that pools many subjects over the same keys -- a
        coalition probe, a breach -- resolves them once, and each pool
        walks the segments once for all keys.  A spilled segment whose
        key summary holds none of the (key, subject) pairs is skipped
        without a reload.
        """
        summary = "pair" if buckets == "by_pair" else "org_pair"
        pool: Pool = []
        for segment in self._segments:
            index = getattr(segment, buckets)
            if index is None:
                if not any(segment.has_key(summary, key << 32 | sid) for key in keys):
                    continue
                index = getattr(self._loaded(segment), buckets)
            for key in keys:
                subjects = index.get(key)
                if subjects:
                    rows = subjects.get(sid)
                    if rows:
                        pool.append((segment, rows))
        return pool

    def _org_ids(self, organizations: Iterable[str]) -> Tuple[int, ...]:
        """The ids of the ``organizations`` that observed anything, in
        name order: a coalition's pools then list its members' rows in
        one order, however the caller listed them."""
        ids = self._orgs.ids
        return tuple(ids[org] for org in sorted(organizations) if org in ids)

    def _subject_id(self, name: str) -> Optional[int]:
        """The id of subject ``name`` (``None`` if unseen)."""
        return self._subjects.ids.get(name)

    def _scan(self, column: str, table: _Table, key: str) -> Tuple[Observation, ...]:
        """Every row whose ``column`` id is ``key``'s, in record order."""
        kid = table.ids.get(key)
        if kid is None:
            return ()
        found: List[Observation] = []
        for segment in self._segments:
            if not segment.resident and not segment.has_key(column, kid):
                continue
            ids = getattr(self._loaded(segment), column)
            rows = [row for row, ident in enumerate(ids) if ident == kid]
            found.extend(self._observations(segment, rows))
        return tuple(found)

    def _read_pool(self, pool: Pool) -> Tuple[Observation, ...]:
        return tuple(
            obs for segment, rows in pool for obs in self._observations(segment, rows)
        )

    def by_entity(self, entity: str) -> Tuple[Observation, ...]:
        return self._scan("entity", self._entities, entity)

    def by_organization(self, organization: str) -> Tuple[Observation, ...]:
        return self._scan("organization", self._orgs, organization)

    def by_subject(self, subject: Subject) -> Tuple[Observation, ...]:
        return self._scan("subject", self._subjects, subject.name)

    def by_pair(self, entity: str, subject: Subject) -> Tuple[Observation, ...]:
        """Observations of one entity about one subject, in record order."""
        return self._read_pool(self._pool("by_pair", entity, subject.name))

    def numbered_pair(
        self, entity: str, subject: Subject
    ) -> Tuple[Tuple[int, Observation], ...]:
        """:meth:`by_pair` with each observation's row number.

        The row number is the observation's index in iteration order,
        which is also its ``obs:<index>`` node in the provenance graph.
        """
        pool = self._pool("by_pair", entity, subject.name)
        numbers = [segment.start + row for segment, rows in pool for row in rows]
        return tuple(zip(numbers, self._read_pool(pool)))

    def by_org_subject(
        self, organization: str, subject: Subject
    ) -> Tuple[Observation, ...]:
        """Observations by one organization about one subject."""
        return self._read_pool(self._pool("by_org_pair", organization, subject.name))

    def _pair_names(self, entity: str) -> List[str]:
        """Names of the subjects ``entity`` observed, by first appearance."""
        eid = self._entities.ids.get(entity)
        if eid is None:
            return []
        names = self._subjects.values
        return [names[sid] for sid in sorted(self._pair_labels[eid])]

    def _candidate_pair_names(self, entity: str) -> List[str]:
        """Names of the subjects whose pair with ``entity`` passes
        :meth:`pair_is_coupling_candidate`, read off the entity's label
        bitmasks in one pass (in the order the entity first saw them).
        An entity that fails :meth:`entity_is_coupling_candidate` has
        none, and none of its pairs is gated."""
        if not self.entity_is_coupling_candidate(entity):
            return []
        eid = self._entities.ids[entity]
        names = self._subjects.values
        candidate = self._is_candidate
        return [
            names[sid]
            for sid, mask in self._pair_labels[eid].items()
            if candidate(eid, sid, mask)
        ]

    def subjects_of_entity(self, entity: str) -> Tuple[Subject, ...]:
        """Subjects ``entity`` has observed, in global first-appearance order."""
        return tuple(map(Subject, self._pair_names(entity)))

    def _label_set(self, mask: int) -> Set[Label]:
        return {
            label for ident, label in enumerate(self._labels.values) if mask >> ident & 1
        }

    def labels_of(self, entity: str, subject: Optional[Subject] = None) -> Set[Label]:
        """The set of labels ``entity`` has observed (optionally per subject)."""
        return self._label_set(self._label_mask(entity, subject))

    def _label_mask(self, entity: str, subject: Optional[Subject] = None) -> int:
        """:meth:`labels_of` as a bitmask over label ids."""
        eid = self._entities.ids.get(entity)
        if eid is None:
            return 0
        if subject is None:
            return self._entity_labels[eid]
        sid = self._subjects.ids.get(subject.name)
        return self._pair_labels[eid].get(sid, 0)

    def _pool_mask(self, pool: Pool) -> int:
        """The labels of a pool's rows, as a bitmask over label ids."""
        mask = 0
        for segment, rows in pool:
            column = segment.label
            for lid in set(map(column.__getitem__, rows)):
                mask |= 1 << lid
        return mask

    # ------------------------------------------------------------------
    # Streaming-analyzer summaries
    # ------------------------------------------------------------------

    def pair_is_coupling_candidate(self, entity: str, name: str) -> bool:
        """Can this (entity, subject-name) pair possibly couple?

        Coupling requires a sensitive identity label in the pair's pool
        plus either a sensitive data label or a secret share (a
        complete share group reconstructs to sensitive data).  The
        check is O(1) against the pair's label bitmask, so the analyzer
        can dismiss the overwhelmingly common one-sided pairs without
        touching their rows.  Conservative by construction: ``True``
        means "must run the union-find", never "couples".
        """
        eid = self._entities.ids.get(entity)
        sid = self._subjects.ids.get(name)
        if eid is None or sid is None:
            return False
        return self._is_candidate(eid, sid, self._pair_labels[eid].get(sid, 0))

    def _is_candidate(self, eid: int, sid: int, mask: int) -> bool:
        """The candidate gate on one pair's label bitmask ``mask``: a
        sensitive identity, and sensitive data or a secret share."""
        if not mask & self._identity_bits:
            return False
        return bool(mask & self._data_bits) or (eid, sid) in self._share_pairs

    def entity_is_coupling_candidate(self, entity: str) -> bool:
        """Can any of this entity's pairs possibly couple?

        The pair gate applied to the entity-level label bitmask (the
        union of its pairs' bitmasks) and its share flag: an entity
        that never saw a sensitive identity, or never saw sensitive
        data or a secret share, has no pair that passes
        :meth:`pair_is_coupling_candidate`.  In a decoupled system most
        entities hold one side only, and they are dismissed whole.
        """
        eid = self._entities.ids.get(entity)
        if eid is None:
            return False
        mask = self._entity_labels[eid]
        if not mask & self._identity_bits:
            return False
        return bool(mask & self._data_bits) or self._entity_shares[eid]

    def _coalition_is_candidate(self, oids: Sequence[int], sid: int) -> bool:
        """The candidate gate for organization ids ``oids`` pooled, and
        subject id ``sid``."""
        has_identity = has_data = False
        for oid in oids:
            share, identity, data = self._org_subjects[oid]
            has_identity = has_identity or sid in identity
            has_data = has_data or sid in data or sid in share
            if has_identity and has_data:
                return True
        return False

    def _coalition_candidates(self, oids: Sequence[int]) -> List[int]:
        """Subject ids that pass the coalition candidate gate for
        organization ids ``oids`` pooled, newest first.

        The pooled coupling check only needs to visit these: a subject
        for whom the coalition holds no sensitive identity, or neither
        sensitive data nor shares, cannot couple no matter how its
        observations link.

        Subject ids number subjects by first appearance.  A subject's
        rows all lie at or after its first appearance, so a caller that
        stops at the first coupling subject builds the pool that
        touches the fewest old (possibly spilled) segments, and the
        probe order never depends on string hashing.
        """
        maps = [self._org_subjects[oid] for oid in oids]
        data: Set[int] = set()
        for share, _, subjects in maps:
            data.update(share, subjects)
        if not data:
            return []
        identity: Set[int] = set()
        for _, subjects, _ in maps:
            identity.update(subjects)
        return sorted(identity & data, reverse=True)

    # ------------------------------------------------------------------
    # Merge / reset
    # ------------------------------------------------------------------

    def merged(self, other: "Ledger") -> "Ledger":
        """A new ledger holding both runs' observations, time-ordered."""
        combined = Ledger()
        combined.ingest(sorted([*self, *other], key=lambda o: o.time))
        return combined

    def clear(self) -> None:
        for segment in self._segments:
            segment.discard_spill()
        self._reset()
        self._version += 1
        self._generation += 1
