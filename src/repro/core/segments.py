"""Append-only ledger segments: sealed, compact, spillable storage.

The streaming ledger (:class:`repro.core.ledger.Ledger`) shards its
observations into :class:`LedgerSegment` instances.  Exactly one
segment is *active* at any time -- ``record``/``record_fast`` append to
it and maintain its per-segment buckets.  Sealing a segment freezes it
(rows and buckets become tuples, cheap to share and impossible to
mutate by accident); a sealed segment can then be *spilled*: its rows
are written to disk as one compact JSON document (see
:meth:`LedgerSegment.spill`) and the in-memory rows and buckets are
dropped.  A spilled segment reloads transparently the first time a
query needs its rows, and stays resident afterwards so observation
identity is stable for the duration of an analysis pass
(``docs/SCALE.md`` documents the lifecycle and the memory bounds).

Segments know their global ``start`` offset, so concatenating segment
buckets in segment order reproduces exactly the record-order iteration
the flat ledger promised.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .labels import Facet, Kind, Label, Sensitivity
from .values import ShareInfo, Subject

if TYPE_CHECKING:  # pragma: no cover
    from .ledger import Observation

__all__ = ["LedgerSegment"]

_intern = sys.intern

#: Fields per row in a spill file's flat ``rows`` array.
_ROW_FIELDS = 12


class LedgerSegment:
    """One shard of a ledger: rows plus per-segment index buckets.

    Lifecycle: *active* (mutable lists, appended to by the ledger's
    record paths) -> *sealed* (immutable: rows and every bucket frozen
    to tuples) -> optionally *spilled* (rows and buckets dropped;
    ``spill_path`` holds the JSON document they reload from).
    """

    __slots__ = (
        "index",
        "start",
        "rows",
        "sealed",
        "spill_path",
        "by_entity",
        "by_organization",
        "by_subject",
        "by_entity_subject",
        "by_org_subject",
        "keys",
        "count",
    )

    def __init__(self, index: int, start: int) -> None:
        self.index = index
        self.start = start
        self.rows: Optional[List] = []
        self.sealed = False
        self.spill_path: Optional[str] = None
        self.by_entity: Optional[Dict[str, List]] = {}
        self.by_organization: Optional[Dict[str, List]] = {}
        self.by_subject: Optional[Dict[str, List]] = {}
        self.by_entity_subject: Optional[Dict[Tuple[str, str], List]] = {}
        self.by_org_subject: Optional[Dict[Tuple[str, str], List]] = {}
        #: While spilled: bucket-attribute name -> frozenset of that
        #: bucket dict's keys, so the ledger can answer "does this
        #: segment hold rows for key K?" without reloading the rows.
        #: ``None`` while the segment is resident.
        self.keys: Optional[Dict[str, frozenset]] = None
        self.count = 0

    # -- state ---------------------------------------------------------

    @property
    def resident(self) -> bool:
        """True when the segment's rows are in memory."""
        return self.rows is not None

    def fold(self, observation) -> None:
        """Append one observation to the rows and every bucket."""
        entity = observation.entity
        org = observation.organization
        name = observation.subject.name
        self.rows.append(observation)
        self.by_entity.setdefault(entity, []).append(observation)
        self.by_organization.setdefault(org, []).append(observation)
        self.by_subject.setdefault(name, []).append(observation)
        self.by_entity_subject.setdefault((entity, name), []).append(observation)
        self.by_org_subject.setdefault((org, name), []).append(observation)
        self.count += 1

    def seal(self) -> None:
        """Freeze the segment: compact rows and buckets to tuples."""
        if self.sealed:
            return
        self.rows = tuple(self.rows)
        for bucket_dict in (
            self.by_entity,
            self.by_organization,
            self.by_subject,
            self.by_entity_subject,
            self.by_org_subject,
        ):
            for key, bucket in bucket_dict.items():
                bucket_dict[key] = tuple(bucket)
        self.count = len(self.rows)
        self.sealed = True

    # -- spill / reload ------------------------------------------------

    def spill(self, path: str) -> int:
        """Write rows to ``path`` and drop the in-memory copy.

        The file is one JSON document: ``labels``, the segment's
        distinct labels as ``[kind, sensitivity, facet, partial]``, and
        ``rows``, one flat array holding each observation's fields in
        order, twelve per row::

            entity, organization, subject, label_index, value_digest,
            description, time, channel, session, provenance,
            share_info, packet_id

        where ``share_info`` is ``null`` or ``[group, index, total]``.
        Only the ledger that wrote a spill file reads it back, so the
        layout carries no version; the public row export is
        :func:`repro.core.serialize.ledger_to_jsonl`.

        Only sealed segments spill (the active segment is still being
        appended to).  Returns the number of rows written.  Idempotent:
        a segment that already spilled just drops its resident copy
        again without rewriting the file.  If writing fails, the
        partial file is removed, the error propagates, and the segment
        keeps its rows.
        """
        if not self.sealed:
            raise ValueError("only sealed segments can be spilled")
        if self.rows is None:
            return 0
        if self.spill_path is None:
            label_index: Dict[Label, int] = {}
            # One flat list rather than a container per row: the rows
            # of a whole segment are alive until the one ``dumps``
            # call, and that many new containers would run the cyclic
            # garbage collector in the middle of every spill
            # (docs/PERFORMANCE.md, "Segment spill").
            fields: list = []
            extend = fields.extend
            for observation in self.rows:
                label = observation.label
                index = label_index.get(label)
                if index is None:
                    index = label_index[label] = len(label_index)
                share = observation.share_info
                extend(
                    (
                        observation.entity,
                        observation.organization,
                        observation.subject.name,
                        index,
                        observation.value_digest,
                        observation.description,
                        observation.time,
                        observation.channel,
                        observation.session,
                        observation.provenance,
                        None
                        if share is None
                        else (share.group, share.index, share.total),
                        observation.packet_id,
                    )
                )
            labels = [
                [
                    label.kind.value,
                    label.sensitivity.value,
                    label.facet.value,
                    label.partial,
                ]
                for label in label_index
            ]
            text = json.dumps(
                {"labels": labels, "rows": fields}, separators=(",", ":")
            )
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.spill_path = path
        dropped = self.count
        # The key summaries retain dict keys that the ledger's global
        # summaries mostly hold anyway (entity/org/subject name strings
        # and the interned pair tuples), so their marginal memory is
        # set overhead, not duplicated data -- a cheap price for never
        # reloading a segment just to find a key absent.
        self.keys = {
            "by_entity": frozenset(self.by_entity),
            "by_organization": frozenset(self.by_organization),
            "by_subject": frozenset(self.by_subject),
            "by_entity_subject": frozenset(self.by_entity_subject),
            "by_org_subject": frozenset(self.by_org_subject),
        }
        self.rows = None
        self.by_entity = None
        self.by_organization = None
        self.by_subject = None
        self.by_entity_subject = None
        self.by_org_subject = None
        return dropped

    def read_rows(self) -> List[Observation]:
        """Decode the spill file into fresh observations, in row order.

        The file is parsed once.  Rows share one :class:`Label` per
        distinct label and one :class:`Subject` per distinct name, and
        channel and session strings are re-interned, so decoded rows
        share them the way ``record_fast`` did.  The decoded rows are
        value-equal to the originals but are not installed: the segment
        stays spilled, so sequential scans (``Ledger.rows_between``)
        never inflate the resident set the way :meth:`load` would.
        """
        if self.spill_path is None:
            raise ValueError(f"segment {self.index} has no spill file to load")
        # Imported lazily: the ledger module imports this one at its top.
        from .ledger import Observation

        with open(self.spill_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        labels = [
            Label(Kind(kind), Sensitivity(sensitivity), Facet(facet), partial)
            for kind, sensitivity, facet, partial in document["labels"]
        ]
        subjects: Dict[str, Subject] = {}
        rows = []
        fields = iter(document["rows"])
        for (
            entity,
            organization,
            name,
            label_index,
            value_digest,
            description,
            time,
            channel,
            session,
            provenance,
            share,
            packet_id,
        ) in zip(*(fields,) * _ROW_FIELDS):
            subject = subjects.get(name)
            if subject is None:
                subject = subjects[name] = Subject(name)
            rows.append(
                Observation(
                    entity,
                    organization,
                    subject,
                    labels[label_index],
                    value_digest,
                    description,
                    time,
                    _intern(channel),
                    _intern(session),
                    tuple(provenance),
                    None if share is None else ShareInfo(*share),
                    packet_id,
                )
            )
        return rows

    def load(self) -> None:
        """Reload a spilled segment's rows and rebuild its buckets.

        The rebuilt rows are value-equal (and serialize byte-identical)
        to the originals.  The segment stays resident until the owning
        ledger explicitly spills it again, which keeps observation
        identity stable across one analysis pass.
        """
        if self.rows is not None:
            return
        rows = self.read_rows()
        self.sealed = False
        self.keys = None
        self.rows = []
        self.by_entity = {}
        self.by_organization = {}
        self.by_subject = {}
        self.by_entity_subject = {}
        self.by_org_subject = {}
        self.count = 0
        for observation in rows:
            self.fold(observation)
        self.seal()

    def discard_spill(self) -> None:
        """Delete the spill file, if any (ledger clear/teardown)."""
        if self.spill_path is not None:
            try:
                os.unlink(self.spill_path)
            except OSError:
                pass
            self.spill_path = None
