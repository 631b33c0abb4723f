"""Append-only ledger segments: typed columns, sealed, spillable.

The streaming ledger (:class:`repro.core.ledger.Ledger`) shards its
rows into :class:`LedgerSegment` instances.  Exactly one segment is
*active* at any time -- the ledger's one fold appends to its columns and
keeps its ``(entity, subject)`` and ``(organization, subject)`` row
buckets current.  A row is no object: it is one slot in each of ten
``array`` columns of integer ids (see :data:`COLUMNS`).  Entity,
organization, subject, label, description and channel ids index the
ledger's own tables; value digests and sessions, the two fields with a
distinct value per row or per delivery, index tables of the segment's
own, so their strings leave memory with the segment.  The rare
secret-share marks sit in a side table keyed by row.

Sealing a segment ends its appends (it drops the append-time digest
dict).  A sealed segment can then be *spilled*: its columns' bytes go
to disk (see :meth:`LedgerSegment.spill`) and the columns, tables and
buckets are dropped, leaving sorted integer key summaries so absent
keys never force a reload.  A spilled segment reloads transparently the
first time a query needs its rows and stays resident afterwards
(``docs/SCALE.md`` documents the lifecycle and the memory bounds).

Segments know their global ``start`` offset, so concatenating segment
rows in segment order reproduces the ledger's record order.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from bisect import bisect_left
from typing import Dict, Optional, Tuple

from .values import ShareInfo

__all__ = ["LedgerSegment", "COLUMNS", "NO_PACKET"]

#: Column name -> ``array`` typecode, in the order a spill file stores
#: them.  ``digest`` and ``session`` index the segment's own tables;
#: the other ids index the ledger's.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("entity", "I"),
    ("organization", "I"),
    ("subject", "I"),
    ("label", "B"),
    ("description", "I"),
    ("channel", "I"),
    ("digest", "I"),
    ("session", "I"),
    ("time", "d"),
    ("packet", "q"),
)
_NAMES = tuple(name for name, _ in COLUMNS)

#: The ``packet`` column's value for a row with no packet id.
NO_PACKET = -(1 << 63)


def _pair_keys(buckets: Dict[int, Dict[int, array]]) -> array:
    """Sorted ``(id << 32) | subject`` keys of a bucket index."""
    return array(
        "Q", sorted(key << 32 | subject for key, rows in buckets.items() for subject in rows)
    )


class LedgerSegment:
    """One shard of a ledger: typed row columns plus row buckets.

    Lifecycle: *active* (columns appended to by the ledger's fold) ->
    *sealed* (no more appends) -> optionally *spilled* (columns, tables
    and buckets dropped; ``spill_path`` holds the bytes they reload
    from, ``keys`` the sorted ids present).

    ``by_pair[entity][subject]`` and ``by_org_pair[organization][subject]``
    are ``array('I')`` lists of local row numbers in record order.
    """

    __slots__ = (
        "index",
        "start",
        "count",
        "sealed",
        "spill_path",
        "keys",
        *_NAMES,
        "appends",
        "digests",
        "sessions",
        "digest_ids",
        "shares",
        "by_pair",
        "by_org_pair",
    )

    def __init__(self, index: int, start: int) -> None:
        self.index = index
        self.start = start
        self.count = 0
        self.sealed = False
        self.spill_path: Optional[str] = None
        #: While spilled: summary name -> sorted ``array`` of the ids
        #: (``entity``, ``organization``, ``subject``) or pair keys
        #: (``pair``, ``org_pair``) the segment holds.
        self.keys: Optional[Dict[str, array]] = None
        for name, code in COLUMNS:
            setattr(self, name, array(code))
        #: The columns' bound ``append`` methods, for the ledger's fold.
        self.appends = tuple(column.append for column in self.columns())
        self.digests: Optional[list] = []
        #: One entry per batch whose session differs from the previous
        #: batch's (a repeat costs nothing; sessions compare by value).
        self.sessions: Optional[list] = []
        self.digest_ids: Optional[Dict[str, int]] = {}
        #: local row -> ShareInfo, for the rows that carry one.
        self.shares: Optional[Dict[int, ShareInfo]] = {}
        self.by_pair: Optional[Dict[int, Dict[int, array]]] = {}
        self.by_org_pair: Optional[Dict[int, Dict[int, array]]] = {}

    # -- state ---------------------------------------------------------

    @property
    def resident(self) -> bool:
        """True when the segment's columns are in memory."""
        return self.entity is not None

    def columns(self) -> Tuple[array, ...]:
        """The row columns, in :data:`COLUMNS` order."""
        return tuple(getattr(self, name) for name in _NAMES)

    def seal(self) -> None:
        """End appends: drop the append methods and the digest dict."""
        self.sealed = True
        self.appends = None
        self.digest_ids = None

    def has_key(self, summary: str, key: int) -> bool:
        """Does this spilled segment hold rows for ``key``?"""
        keys = self.keys[summary]
        at = bisect_left(keys, key)
        return at < len(keys) and keys[at] == key

    # -- spill / reload ------------------------------------------------

    def spill(self, path: str) -> int:
        """Write the columns to ``path`` and drop the in-memory copy.

        The file is an 8-byte little-endian header length, a JSON
        header, then each column's raw bytes in :data:`COLUMNS` order.
        The header holds the segment's digest and session tables and
        its share rows as ``[row, group, index, total]``.  Ids refer to
        the owning ledger's tables, so only that ledger reads the file
        back, and the layout carries no version; the public row export
        is :func:`repro.core.serialize.ledger_to_jsonl`.

        Only sealed segments spill (the active segment is still being
        appended to).  Returns the number of rows dropped.  Idempotent:
        a segment that already spilled just drops its resident copy
        again without rewriting the file.  If writing fails, the
        partial file is removed, the error propagates, and the segment
        keeps its rows.
        """
        if not self.sealed:
            raise ValueError("only sealed segments can be spilled")
        if self.entity is None:
            return 0
        if self.spill_path is None:
            header = json.dumps(
                {
                    "digests": self.digests,
                    "sessions": self.sessions,
                    "shares": [
                        [row, share.group, share.index, share.total]
                        for row, share in self.shares.items()
                    ],
                },
                separators=(",", ":"),
            ).encode("utf-8")
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "wb") as handle:
                    handle.write(len(header).to_bytes(8, "little"))
                    handle.write(header)
                    for column in self.columns():
                        column.tofile(handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.spill_path = path
        self.keys = {
            "entity": array("I", sorted(self.by_pair)),
            "organization": array("I", sorted(self.by_org_pair)),
            "subject": array("I", sorted(set(self.subject))),
            "pair": _pair_keys(self.by_pair),
            "org_pair": _pair_keys(self.by_org_pair),
        }
        for name in _NAMES:
            setattr(self, name, None)
        self.digests = self.sessions = self.shares = None
        self.by_pair = self.by_org_pair = None
        return self.count

    def read(self) -> "LedgerSegment":
        """The spill file decoded into a fresh, unindexed segment.

        The copy holds the columns and tables only (no buckets), with
        its session strings interned, so repeated reads share them.  It
        is not installed: this segment stays spilled, so sequential
        scans (``Ledger.rows_between``) never inflate the resident set
        the way :meth:`load` would.
        """
        if self.spill_path is None:
            raise ValueError(f"segment {self.index} has no spill file to load")
        with open(self.spill_path, "rb") as handle:
            data = memoryview(handle.read())
        offset = 8 + int.from_bytes(data[:8], "little")
        header = json.loads(bytes(data[8:offset]))
        copy = LedgerSegment(self.index, self.start)
        copy.count = self.count
        copy.sealed = True
        copy.appends = copy.digest_ids = copy.by_pair = copy.by_org_pair = None
        for column in copy.columns():
            end = offset + column.itemsize * self.count
            column.frombytes(data[offset:end])
            offset = end
        copy.digests = header["digests"]
        copy.sessions = [sys.intern(session) for session in header["sessions"]]
        copy.shares = {row: ShareInfo(*share) for row, *share in header["shares"]}
        return copy

    def load(self) -> None:
        """Reload a spilled segment's columns and rebuild its buckets.

        The segment stays resident until the owning ledger explicitly
        spills it again.
        """
        if self.entity is not None:
            return
        copy = self.read()
        for name in (*_NAMES, "digests", "sessions", "shares"):
            setattr(self, name, getattr(copy, name))
        self.keys = None
        self.by_pair = {}
        self.by_org_pair = {}
        for buckets, keys in (
            (self.by_pair, self.entity),
            (self.by_org_pair, self.organization),
        ):
            for row, (key, subject) in enumerate(zip(keys, self.subject)):
                rows = buckets.setdefault(key, {}).get(subject)
                if rows is None:
                    buckets[key][subject] = array("I", (row,))
                else:
                    rows.append(row)

    def discard_spill(self) -> None:
        """Delete the spill file, if any (ledger clear/teardown)."""
        if self.spill_path is not None:
            try:
                os.unlink(self.spill_path)
            except OSError:
                pass
            self.spill_path = None
