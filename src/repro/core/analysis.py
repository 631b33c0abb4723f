"""The decoupling analyzer: from observation ledger to paper verdicts.

Given a run's :class:`~repro.core.ledger.Ledger` and the cast of
entities, the analyzer derives:

* the per-system knowledge table (the paper's section 3 tables);
* the *decoupling verdict* of section 2.4: a system is decoupled iff
  only the user holds ``(▲, ●)``;
* *collusion analysis*: the minimal coalitions of non-user
  organizations whose pooled observations re-couple identity and data;
* *breach analysis*: what an attacker who compromises one organization
  learns (the paper's "individually breach-proof" claim).

Coupling is *linkage-based*, not a bare label union.  Knowing a
sensitive identity and some sensitive data only violates privacy if the
two can be attributed to each other.  Two observations are directly
linkable when they share a session (arrived in the same interaction) or
a value digest (the same concrete value -- a pseudonym, a ciphertext --
seen in both places); linkability is the transitive closure.  This is
what makes the analyzer reproduce cryptographic facts the paper states
in prose: a blind signer's session log cannot be joined with deposits
even by the *same* bank, while an ODoH proxy's log joins with the
target's the moment they pool data, because the encrypted query seen by
one is the ciphertext decrypted by the other.

Secret shares (Prio) re-join only when a coalition holds *all* shares
of a group; the reconstructed sensitive value then lands in the merged
linkage component of those shares.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .entities import World
from .labels import Facet
from .ledger import _DATA, _IDENTITY, Ledger, Observation, Pool
from .tuples import KnowledgeCell, KnowledgeTable, cell_from_labels, facets_in_ledger
from .values import Subject

__all__ = [
    "CouplingViolation",
    "DecouplingVerdict",
    "BreachReport",
    "DecouplingAnalyzer",
]


@dataclass(frozen=True)
class CouplingViolation:
    """A non-user entity that can attribute ●/⊙/● data to a ▲ identity."""

    entity: str
    organization: str
    subject: Subject
    cell: KnowledgeCell

    def __str__(self) -> str:
        return (
            f"{self.entity} ({self.organization}) holds {self.cell.render()} "
            f"for {self.subject}"
        )


@dataclass(frozen=True)
class DecouplingVerdict:
    """The section 2.4 verdict for one run."""

    decoupled: bool
    violations: Tuple[CouplingViolation, ...]

    def __bool__(self) -> bool:
        return self.decoupled

    def __str__(self) -> str:
        if self.decoupled:
            return "DECOUPLED: only the user holds (▲, ●)"
        lines = ["NOT DECOUPLED:"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


@dataclass(frozen=True)
class BreachReport:
    """What leaks when one organization is compromised."""

    organization: str
    subjects_identified: Tuple[Subject, ...]
    subjects_with_sensitive_data: Tuple[Subject, ...]
    coupled_subjects: Tuple[Subject, ...]

    @property
    def breach_proof(self) -> bool:
        """True if the breach couples no subject's identity and data."""
        return not self.coupled_subjects


def _find(parent: List[int], node: int) -> int:
    """Root of ``node``, halving the path on the way up."""
    while True:
        up = parent[node]
        if up == node:
            return node
        grand = parent[up]
        parent[node] = grand
        node = grand


def _union(parent: List[int], marks: List[int], a: int, b: int) -> int:
    """Join the classes of ``a`` and ``b``; the joined class's mark."""
    a = _find(parent, a)
    b = _find(parent, b)
    if a != b:
        parent[a] = b
        marks[b] |= marks[a]
    return marks[b]


#: A class's mark when it holds both a sensitive identity and data.
_COUPLED = _IDENTITY | _DATA


class _Linkage:
    """The linkage classes of one pool of ledger rows.

    A flat integer union-find over the rows' columns; no observation is
    built.  There is one node per distinct value digest, and every row
    belongs to its digest's node, so a value seen twice links its rows
    without a union.  A session seen again joins its rows' nodes.  A
    *complete* share group (at least ``total`` distinct indices,
    ``total`` taken from the group's last share in pool order) joins its
    members' nodes after the pass and counts as sensitive data there.
    Every root carries a mark, the ``_IDENTITY``/``_DATA`` flags of its
    class, merged on every union, so whether a class couples is known
    the moment it forms.  ``find`` is iterative, so a linkage chain of
    any length fits the interpreter's stack.  Digests and sessions
    compare as strings, since their ids are per segment.

    After construction:

    * ``coupled`` tells whether some class holds both a sensitive
      identity and sensitive data (:meth:`couples`);
    * ``nodes[i]`` is the node of the pool's ``i``-th row;
    * ``reconstructed`` maps each complete share group, in order of
      first appearance, to the position of its first member.

    With ``stop=True`` (the yes/no callers) the pass ends at the row
    that forms the first coupled class, and share groups close only
    if none did; ``nodes`` and ``reconstructed`` are then partial.  The
    witness search (:meth:`root`, ``reconstructed``) builds in full.
    """

    __slots__ = ("parent", "marks", "nodes", "reconstructed", "coupled")

    def __init__(self, ledger: Ledger, pool: Pool, stop: bool = False) -> None:
        parent: List[int] = []
        marks: List[int] = []
        nodes: List[int] = []
        self.parent = parent
        self.marks = marks
        self.nodes = nodes
        self.reconstructed: Dict[str, int] = {}
        self.coupled = False
        digest_node: Dict[str, int] = {}
        session_node: Dict[str, int] = {}
        share_indices: Dict[str, Set[int]] = {}
        share_totals: Dict[str, int] = {}
        share_members: Dict[str, List[int]] = {}
        flags = ledger._label_flags
        for segment, rows in pool:
            digests = segment.digests
            digest_col = segment.digest
            sessions = segment.sessions
            session_col = segment.session
            label_col = segment.label
            shares = segment.shares
            for row in rows:
                digest = digests[digest_col[row]]
                node = digest_node.get(digest)
                if node is None:
                    node = digest_node[digest] = len(parent)
                    parent.append(node)
                    marks.append(0)
                session = sessions[session_col[row]]
                if session:
                    first = session_node.setdefault(session, node)
                    if first != node and _union(parent, marks, first, node) == _COUPLED:
                        self.coupled = True
                        if stop:
                            return
                flag = flags[label_col[row]]
                if flag:
                    root = node if parent[node] == node else _find(parent, node)
                    mark = marks[root] = marks[root] | flag
                    if mark == _COUPLED:
                        self.coupled = True
                        if stop:
                            return
                if shares:
                    share = shares.get(row)
                    if share is not None:
                        group = share.group
                        share_indices.setdefault(group, set()).add(share.index)
                        share_totals[group] = share.total
                        share_members.setdefault(group, []).append(len(nodes))
                nodes.append(node)
        for group, indices in share_indices.items():
            if len(indices) >= share_totals[group]:
                members = share_members[group]
                first = nodes[members[0]]
                for member in members[1:]:
                    _union(parent, marks, first, nodes[member])
                root = _find(parent, first)
                mark = marks[root] = marks[root] | _DATA
                if mark == _COUPLED:
                    self.coupled = True
                self.reconstructed[group] = members[0]

    def root(self, position: int) -> int:
        """The linkage class of the pool's row ``position``."""
        return _find(self.parent, self.nodes[position])

    def couples(self) -> bool:
        """Does some class hold both a sensitive identity and data?"""
        return self.coupled


def _linkage_of(observations: Iterable[Observation], stop: bool = False) -> _Linkage:
    """The linkage of a free-standing pool, routed through a scratch ledger.

    Pool positions are the observations' positions in ``observations``.
    """
    ledger = Ledger()
    ledger.ingest(observations)
    return _Linkage(ledger, [(ledger.active_segment, range(len(ledger)))], stop)


class DecouplingAnalyzer:
    """Derives decoupling facts from a world's observation ledger.

    By default the analyzer runs *streaming*: it keeps a row cursor
    into the append-only ledger and, on each public query (and at every
    segment seal, via :meth:`Ledger.add_seal_listener
    <repro.core.ledger.Ledger.add_seal_listener>`), consumes only the
    rows recorded since the last sync.  New rows mark their
    ``(entity, subject)`` pair and subject dirty; dirty state drops
    exactly the memo entries that could change.  Because the ledger is
    append-only, coupling is *monotone* -- a pool that couples keeps
    coupling as rows arrive -- so ``True`` memo entries are sticky and
    only ``False`` answers are ever re-derived.  On top of that the
    ledger's O(1) candidate summaries
    (:meth:`~repro.core.ledger.Ledger.entity_is_coupling_candidate`,
    :meth:`~repro.core.ledger.Ledger.pair_is_coupling_candidate`)
    dismiss one-sided entities and pairs without touching their rows,
    which is what makes mid-run ``verdict()``/``coalition_couples()``
    answers cheap at a million subjects: the analyzer can be queried at any ledger
    version during ingest, and the answer is byte-identical to a fresh
    full-scan derivation over the same rows (the equivalence suites pin
    this against an independent test oracle).  :meth:`Ledger.clear
    <repro.core.ledger.Ledger.clear>` bumps the ledger *generation*,
    which voids all incremental state and restarts the cursor.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self.ledger: Ledger = world.ledger
        self._facets_memo: Optional[Tuple[Facet, ...]] = None
        self._facets_version: int = -1
        #: label-id bitmask -> its knowledge cell, for the ledger version
        #: the facets were read at (the facet tuple is fixed for a
        #: version, and label ids are fixed for a generation).
        self._cells: Dict[int, KnowledgeCell] = {}
        # Memo keys use subject *names*: subjects are equal iff their
        # names are, and the dirty-pair bookkeeping from the sync loop
        # arrives as names.
        self._entity_couples_memo: Dict[Tuple[str, str], bool] = {}
        self._coalition_couples_memo: Dict[
            Tuple[FrozenSet[str], str], bool
        ] = {}
        #: subject name -> coalition memo keys holding False for it
        #: (the ones a dirty subject must invalidate; True is sticky).
        self._coalition_false_keys: Dict[str, List[Tuple[FrozenSet[str], str]]] = {}
        self._generation: int = -1
        self._synced: int = 0
        #: dirty (entity, subject-name) pairs awaiting the next
        #: incremental verdict pass.
        self._pending: Set[Tuple[str, str]] = set()
        #: violating (entity, subject-name) pairs, primed on the first
        #: verdict and grown incrementally after (coupling is
        #: monotone, so pairs are only ever added); ``None`` = unprimed.
        self._violations: Optional[Set[Tuple[str, str]]] = None
        self._verdict_entities: int = -1
        self._organizations: Tuple[str, ...] = ()
        self._organizations_entities: int = -1
        # Sync at every segment seal, while the sealed rows are still
        # resident -- once a segment spills, catching up through it
        # would mean re-reading it from disk.  The weakref keeps the
        # ledger's listener list from pinning dead analyzers.
        ref = weakref.ref(self)

        def _on_seal(ledger: Ledger, segment: object, _ref=ref) -> None:
            analyzer = _ref()
            if analyzer is not None:
                analyzer._sync()

        self.ledger.add_seal_listener(_on_seal)

    def _sync(self) -> None:
        """Catch the incremental state up with the ledger.

        Consumes rows ``[synced, len(ledger))``, marking each row's
        ``(entity, subject)`` pair pending for the incremental verdict
        and dropping the ``False`` memo entries that new rows could
        flip (``True`` is sticky: appends never decouple a pool).  A
        generation change (ledger cleared) voids everything first.
        """
        ledger = self.ledger
        if ledger.generation != self._generation:
            self._generation = ledger.generation
            self._synced = 0
            self._facets_memo = None
            self._facets_version = -1
            self._entity_couples_memo.clear()
            self._coalition_couples_memo.clear()
            self._coalition_false_keys.clear()
            self._pending.clear()
            self._violations = None
        total = len(ledger)
        synced = self._synced
        if synced >= total:
            return
        entity_memo = self._entity_couples_memo
        coalition_memo = self._coalition_couples_memo
        coalition_false = self._coalition_false_keys
        if self._violations is None:
            # Unprimed: the next verdict does a full prime pass over
            # the summary indices, so per-row dirty tracking buys
            # nothing -- drop ``False`` memo entries wholesale instead
            # of re-reading (possibly spilled) rows to find which
            # could flip.  This is what keeps the post-hoc comparison
            # analyzers in the scale workload from reloading every
            # spilled segment.
            for key in [k for k, v in entity_memo.items() if v is False]:
                del entity_memo[key]
            for key in [k for k, v in coalition_memo.items() if v is False]:
                del coalition_memo[key]
            coalition_false.clear()
            self._synced = total
            return
        dirty_pairs = ledger._pairs_between(synced, total)
        dirty_names: Set[str] = set()
        for pair in dirty_pairs:
            if entity_memo.get(pair) is False:
                del entity_memo[pair]
            dirty_names.add(pair[1])
        for name in dirty_names:
            keys = coalition_false.pop(name, None)
            if keys:
                for key in keys:
                    if coalition_memo.get(key) is False:
                        del coalition_memo[key]
        self._pending |= dirty_pairs
        self._synced = total

    # ------------------------------------------------------------------
    # Knowledge tables
    # ------------------------------------------------------------------

    def facets(self) -> Tuple[Facet, ...]:
        version = self.ledger.version
        if version != self._facets_version or self._facets_memo is None:
            self._facets_memo = facets_in_ledger(self.ledger)
            self._facets_version = version
            self._cells.clear()
        return self._facets_memo

    def _cell(self, mask: int) -> KnowledgeCell:
        """The cell of a label-id bitmask, built once per ledger version.

        A table of a thousand entities holds a handful of distinct
        cells; each is built on first use and shared after.
        """
        facets = self.facets()
        cell = self._cells.get(mask)
        if cell is None:
            labels = self.ledger._label_set(mask)
            cell = self._cells[mask] = cell_from_labels(labels, facets)
        return cell

    def knowledge_cell(
        self, entity: str, subject: Optional[Subject] = None
    ) -> KnowledgeCell:
        """The cell for one entity, maximized over subjects by default."""
        return self._cell(self.ledger._label_mask(entity, subject))

    def table(
        self,
        entities: Optional[Sequence[str]] = None,
        subject: Optional[Subject] = None,
        title: str = "",
    ) -> KnowledgeTable:
        """The run's decoupling-analysis table in declaration order."""
        if entities is None:
            entities = [e.name for e in self.world.entities]
        rows = {name: self.knowledge_cell(name, subject) for name in entities}
        return KnowledgeTable(
            rows=rows, facets=self.facets(), subject=subject, title=title
        )

    # ------------------------------------------------------------------
    # Coupling machinery
    # ------------------------------------------------------------------

    def entity_couples(self, entity: str, subject: Subject) -> bool:
        """Can this entity alone attribute sensitive data to ▲?"""
        self._sync()
        return self._entity_couples(entity, subject.name)

    def _entity_couples(self, entity: str, name: str) -> bool:
        if not self.ledger.pair_is_coupling_candidate(entity, name):
            # The candidate summary is the negative cache: a pool with
            # no sensitive identity, or with neither sensitive data nor
            # shares, cannot couple no matter how its rows link.  Not
            # memoized -- the O(1) gate stays correct as rows arrive,
            # where a stored False would need invalidating.
            return False
        return self._candidate_couples(entity, name)

    def _candidate_couples(self, entity: str, name: str) -> bool:
        """Memoized kernel answer for a pair that passed the candidate gate."""
        key = (entity, name)
        memo = self._entity_couples_memo
        cached = memo.get(key)
        if cached is None:
            ledger = self.ledger
            pool = ledger._pool("by_pair", entity, name)
            cached = memo[key] = _Linkage(ledger, pool, stop=True).coupled
        return cached

    def coalition_couples(
        self, organizations: Iterable[str], subject: Optional[Subject] = None
    ) -> bool:
        """Would these organizations, colluding, re-couple ▲ with ●?

        One probe: only subjects that pass the coalition candidate gate
        reach the kernel (for every other subject the pooled check is
        ``False`` by the same gate), newest first, so the pool built
        before the first ``True`` reloads the fewest spilled segments.
        Each (coalition, subject name) answer is memoized.  A pool
        concatenates the members' buckets, so its cost is the pool
        size, not the ledger size; it is not in global record order,
        and the coupling kernel does not depend on order.
        """
        orgs = frozenset(organizations)
        self._sync()
        ledger = self.ledger
        oids = ledger._org_ids(orgs)
        if subject is None:
            return self._probe(orgs, oids, ledger._coalition_candidates(oids))
        sid = ledger._subject_id(subject.name)
        return (
            sid is not None
            and ledger._coalition_is_candidate(oids, sid)
            and self._probe(orgs, oids, (sid,))
        )

    def _probe(self, orgs: FrozenSet[str], oids: Sequence[int], sids: Iterable[int]) -> bool:
        """Does coalition ``orgs`` (organization ids ``oids``) couple for
        one of the gated subject ids ``sids``?

        Stops at the first subject that couples; each (coalition,
        subject name) answer is memoized.
        """
        ledger = self.ledger
        names = ledger._subjects.values
        memo = self._coalition_couples_memo
        for sid in sids:
            name = names[sid]
            key = (orgs, name)
            cached = memo.get(key)
            if cached is None:
                pool = ledger._rows("by_org_pair", oids, sid)
                cached = memo[key] = _Linkage(ledger, pool, stop=True).coupled
                if not cached:
                    self._coalition_false_keys.setdefault(name, []).append(key)
            if cached:
                return True
        return False

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def verdict(self, trust_attested: bool = False) -> DecouplingVerdict:
        """Apply section 2.4: only the user may hold (▲, ●).

        ``trust_attested=True`` extends trust to attested TEE
        organizations (paper section 4.3): their coupling is excused,
        modeling the "locus of trust moved to the hardware vendor".
        The default is the conservative reading.
        """
        self._sync()
        ledger = self.ledger
        entity_count = len(self.world.entities)
        if self._violations is None or self._verdict_entities != entity_count:
            # Prime: one full pass.  Subjects an entity never observed
            # cannot couple for it (empty pool), and the ledger reads
            # the pairs that pass the candidate gate off the entity's
            # label bitmasks, so the one-sided rest never reach the
            # kernel; an entity that holds one side only is dismissed
            # whole, without a pair gate.  Attested entities are
            # checked too -- trust is a per-query rendering decision,
            # not a coupling fact.
            self._verdict_entities = entity_count
            violating: Set[Tuple[str, str]] = set()
            for entity in self.world.non_user_entities():
                entity_name = entity.name
                for name in ledger._candidate_pair_names(entity_name):
                    if self._candidate_couples(entity_name, name):
                        violating.add((entity_name, name))
            self._violations = violating
            self._pending.clear()
        elif self._pending:
            # Incremental: a pair's coupling state depends only on its
            # own pool, so only pairs with new rows since the last
            # verdict need re-evaluation; coupling is monotone, so
            # existing violations never leave.  Pairs of an entity
            # that fails the entity gate cannot couple yet, and are
            # dismissed without a pair gate.
            pending = self._pending
            self._pending = set()
            violating = self._violations
            gated = {
                e.name
                for e in self.world.non_user_entities()
                if ledger.entity_is_coupling_candidate(e.name)
            }
            for pair in pending:
                if pair in violating or pair[0] not in gated:
                    continue
                if self._entity_couples(*pair):
                    violating.add(pair)
        # Render in world declaration order per entity, global subject
        # first-appearance order within it.
        rendered: List[CouplingViolation] = []
        if self._violations:
            order = {name: i for i, name in enumerate(ledger.subject_names())}
            by_entity: Dict[str, List[str]] = {}
            for entity_name, name in self._violations:
                by_entity.setdefault(entity_name, []).append(name)
            for entity in self.world.non_user_entities():
                if trust_attested and entity.organization.attested:
                    continue
                names = by_entity.get(entity.name)
                if not names:
                    continue
                for name in sorted(names, key=order.__getitem__):
                    subject = ledger.subject(name)
                    rendered.append(
                        CouplingViolation(
                            entity=entity.name,
                            organization=entity.organization.name,
                            subject=subject,
                            cell=self._cell(ledger._label_mask(entity.name, subject)),
                        )
                    )
        return DecouplingVerdict(
            decoupled=not rendered, violations=tuple(rendered)
        )

    # ------------------------------------------------------------------
    # Collusion analysis
    # ------------------------------------------------------------------

    def non_user_organizations(self) -> Tuple[str, ...]:
        # Keyed on the entity count, like the verdict: entities are
        # only ever added, and an organization's trust never changes.
        entity_count = len(self.world.entities)
        if self._organizations_entities != entity_count:
            seen: Dict[str, None] = {}
            for entity in self.world.non_user_entities():
                seen.setdefault(entity.organization.name, None)
            self._organizations = tuple(seen)
            self._organizations_entities = entity_count
        return self._organizations

    def minimal_recoupling_coalitions(
        self, max_size: Optional[int] = None
    ) -> Tuple[FrozenSet[str], ...]:
        """All minimal non-user coalitions that re-couple ▲ with ●.

        Returned coalitions are minimal under set inclusion, smallest
        first.  An empty result means no coalition (up to ``max_size``)
        can re-couple -- the information the coalition pools simply
        does not join, as with a blind signer's logs.
        """
        organizations = self.non_user_organizations()
        limit = max_size if max_size is not None else len(organizations)
        self._sync()
        ledger = self.ledger
        found: List[FrozenSet[str]] = []
        for size in range(1, limit + 1):
            for combo in itertools.combinations(organizations, size):
                coalition = frozenset(combo)
                if any(prior <= coalition for prior in found):
                    continue
                oids = ledger._org_ids(combo)
                if self._probe(coalition, oids, ledger._coalition_candidates(oids)):
                    found.append(coalition)
        return tuple(found)

    def collusion_resistance(
        self, max_size: Optional[int] = None, subject: Optional[Subject] = None
    ) -> int:
        """Size of the smallest re-coupling coalition.

        Coupling is monotone in the coalition: pooling one more
        organization's rows never unlinks a class.  So the query needs
        an upper bound and a descent, not a walk over every small
        coalition:

        * **The bound.**  The newest subject that passes the whole
          non-user coalition's candidate gate has its rows alone walked
          smallest first; the first coalition whose pooled rows couple
          for it bounds the answer.
        * **The descent.**  While some coalition one size below the
          bound re-couples, for any subject, the bound drops by one.
          A size at which no coalition re-couples rules out every
          smaller size, since each smaller coalition lies inside one of
          that size.

        The answer is the smallest size of
        :meth:`minimal_recoupling_coalitions`.  With ``subject``, only
        that subject's pooled rows count, as in
        :meth:`coalition_couples`, and the walk is the whole query.
        Returns ``len(non-user orgs) + 1`` when no coalition (up to
        ``max_size``) re-couples (information-theoretic decoupling, as
        with blind signatures or a VOPRF issuer).
        """
        organizations = self.non_user_organizations()
        everyone = len(organizations)
        limit = everyone if max_size is None else min(max_size, everyone)
        self._sync()
        ledger = self.ledger
        if subject is not None:
            sid = ledger._subject_id(subject.name)
            bound = None if sid is None else self._smallest_for(organizations, limit, sid)
            return everyone + 1 if bound is None else bound
        known = ledger._org_ids(organizations)
        candidates = ledger._coalition_candidates(known)
        if not candidates:
            return everyone + 1
        bound = self._smallest_for(organizations, limit, candidates[0])
        size = limit + 1 if bound is None else bound
        while size > 1 and self._some_couples(organizations, size - 1, known, candidates):
            size -= 1
        return size if size <= limit else everyone + 1

    def _smallest_for(
        self, organizations: Sequence[str], limit: int, sid: int
    ) -> Optional[int]:
        """The size of the first coalition, smallest first and up to
        ``limit``, whose pooled rows about subject id ``sid`` couple."""
        ledger = self.ledger
        for size in range(1, limit + 1):
            for combo in itertools.combinations(organizations, size):
                oids = ledger._org_ids(combo)
                if ledger._coalition_is_candidate(oids, sid) and self._probe(
                    frozenset(combo), oids, (sid,)
                ):
                    return size
        return None

    def _some_couples(
        self,
        organizations: Sequence[str],
        size: int,
        known: Sequence[int],
        candidates: List[int],
    ) -> bool:
        """Does some coalition of ``size`` organizations re-couple?

        ``known`` and ``candidates`` are the whole coalition's
        organization ids and candidate subject ids: a coalition that
        holds every known organization has exactly those candidates.
        """
        ledger = self.ledger
        for combo in itertools.combinations(organizations, size):
            oids = ledger._org_ids(combo)
            if len(oids) < len(known):
                sids = ledger._coalition_candidates(oids)
            else:
                sids = candidates
            if self._probe(frozenset(combo), oids, sids):
                return True
        return False

    # ------------------------------------------------------------------
    # Breach analysis
    # ------------------------------------------------------------------

    def breach(self, organization: str) -> BreachReport:
        """What an attacker holding all of ``organization``'s data gets."""
        identified: List[Subject] = []
        with_data: List[Subject] = []
        coupled: List[Subject] = []
        ledger = self.ledger
        oids = ledger._org_ids((organization,))
        for sid, name in enumerate(ledger.subject_names()):
            pool = ledger._rows("by_org_pair", oids, sid)
            if not pool:
                # An empty pool yields an all-non-sensitive cell and no
                # coupling.
                continue
            subject = Subject(name)
            cell = self._cell(ledger._pool_mask(pool))
            if cell.knows_sensitive_identity:
                identified.append(subject)
            if cell.knows_sensitive_data:
                with_data.append(subject)
            if _Linkage(ledger, pool, stop=True).coupled:
                coupled.append(subject)
        return BreachReport(
            organization=organization,
            subjects_identified=tuple(identified),
            subjects_with_sensitive_data=tuple(with_data),
            coupled_subjects=tuple(coupled),
        )

    def breach_reports(self) -> Tuple[BreachReport, ...]:
        """One breach report per non-user organization."""
        return tuple(self.breach(org) for org in self.non_user_organizations())

    # ------------------------------------------------------------------
    # Narration
    # ------------------------------------------------------------------

    def explain(self, entity: str, max_items: int = 12) -> str:
        """A human-readable account of what one entity learned.

        Groups the entity's observations by subject and kind of
        information, most sensitive first -- the narrative version of
        its table cell, for audits and demos.
        """
        subjects = self.ledger.subjects_of_entity(entity)
        if not subjects:
            return f"{entity} observed nothing."
        lines = [f"What {entity} learned:"]
        for subject in subjects:
            subject_obs = self.ledger.by_pair(entity, subject)
            cell = self.knowledge_cell(entity, subject)
            lines.append(f"  about {subject}: {cell.render()}")
            seen: Set[Tuple[str, str]] = set()
            shown = 0
            for obs in sorted(
                subject_obs, key=lambda o: (-o.label.rank, o.time)
            ):
                key = (obs.label.glyph, obs.description)
                if key in seen:
                    continue
                seen.add(key)
                lines.append(
                    f"    {obs.label.glyph:<5} {obs.description or '(unnamed)'}"
                    f"  [via {obs.channel}]"
                )
                shown += 1
                if shown >= max_items:
                    lines.append("    ...")
                    break
            coupled = self.entity_couples(entity, subject)
            if coupled:
                lines.append(
                    "    => can attribute sensitive data to this subject"
                )
        return "\n".join(lines)
