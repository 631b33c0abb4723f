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
from .labels import Facet, Label
from .ledger import Ledger, Observation
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


#: What an observation's label makes its linkage class hold (0: neither).
_SENSITIVE_IDENTITY = 1
_SENSITIVE_DATA = 2
#: Label -> one of the above, filled once per distinct label.
_LABEL_CLASSES: Dict[Label, int] = {}


def _label_class(label: Label) -> int:
    cls = 0
    if label.is_sensitive:
        cls = _SENSITIVE_IDENTITY if label.is_identity else _SENSITIVE_DATA
    _LABEL_CLASSES[label] = cls
    return cls


def _find(parent: List[int], node: int) -> int:
    """Root of ``node``, halving the path on the way up."""
    while True:
        up = parent[node]
        if up == node:
            return node
        grand = parent[up]
        parent[node] = grand
        node = grand


def _union(parent: List[int], a: int, b: int) -> None:
    a = _find(parent, a)
    b = _find(parent, b)
    if a != b:
        parent[a] = b


class _Linkage:
    """The linkage classes of one pool of observations.

    A flat integer union-find.  There is one node per distinct value
    digest, and every observation belongs to its digest's node, so a
    value seen twice links its observations without a union.  A session
    seen again joins its observations' nodes.  A *complete* share group
    (at least ``total`` distinct indices, ``total`` taken from the
    group's last share in pool order) joins its members' nodes and
    counts as sensitive data there.  ``find`` is iterative, so a linkage
    chain of any length fits the interpreter's stack.

    After construction:

    * ``nodes[i]`` is observation ``i``'s node;
    * ``identity`` / ``data`` are the nodes of sensitive-identity and
      sensitive-data observations, ``data`` including the first member
      of every complete share group;
    * ``reconstructed`` maps each complete share group, in order of
      first appearance, to the position of its first member.
    """

    __slots__ = ("parent", "nodes", "identity", "data", "reconstructed")

    def __init__(self, observations: Iterable[Observation]) -> None:
        parent: List[int] = []
        nodes: List[int] = []
        identity: Set[int] = set()
        data: Set[int] = set()
        digest_node: Dict[str, int] = {}
        session_node: Dict[str, int] = {}
        share_indices: Dict[str, Set[int]] = {}
        share_totals: Dict[str, int] = {}
        share_members: Dict[str, List[int]] = {}
        classes = _LABEL_CLASSES
        for obs in observations:
            digest = obs.value_digest
            node = digest_node.get(digest)
            if node is None:
                node = digest_node[digest] = len(parent)
                parent.append(node)
            session = obs.session
            if session:
                first = session_node.setdefault(session, node)
                if first != node:
                    _union(parent, first, node)
            cls = classes.get(obs.label)
            if cls is None:
                cls = _label_class(obs.label)
            if cls == _SENSITIVE_IDENTITY:
                identity.add(node)
            elif cls == _SENSITIVE_DATA:
                data.add(node)
            share = obs.share_info
            if share is not None:
                group = share.group
                share_indices.setdefault(group, set()).add(share.index)
                share_totals[group] = share.total
                share_members.setdefault(group, []).append(len(nodes))
            nodes.append(node)
        reconstructed: Dict[str, int] = {}
        for group, indices in share_indices.items():
            if len(indices) >= share_totals[group]:
                members = share_members[group]
                first = nodes[members[0]]
                for member in members[1:]:
                    _union(parent, first, nodes[member])
                data.add(first)
                reconstructed[group] = members[0]
        self.parent = parent
        self.nodes = nodes
        self.identity = identity
        self.data = data
        self.reconstructed = reconstructed

    def root(self, position: int) -> int:
        """The linkage class of observation ``position``."""
        return _find(self.parent, self.nodes[position])

    def couples(self) -> bool:
        """Does some class hold both a sensitive identity and data?

        A pool with no sensitive identity, or with neither sensitive
        data nor a complete share group, is ``False`` before any
        ``find``.
        """
        if not self.identity or not self.data:
            return False
        parent = self.parent
        identity_roots = {_find(parent, node) for node in self.identity}
        return any(_find(parent, node) in identity_roots for node in self.data)


def _observations_couple(observations: Sequence[Observation]) -> bool:
    """Linkage-based coupling over one subject's pooled observations."""
    return _Linkage(observations).couples()


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
    (:meth:`~repro.core.ledger.Ledger.pair_is_coupling_candidate`)
    dismiss one-sided pairs without touching their rows, which is what
    makes mid-run ``verdict()``/``coalition_couples()`` answers cheap
    at a million subjects: the analyzer can be queried at any ledger
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
        dirty_pairs: Set[Tuple[str, str]] = set()
        for obs in ledger.rows_between(synced, total):
            dirty_pairs.add((obs.entity, obs.subject.name))
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
        return self._facets_memo

    def knowledge_cell(
        self, entity: str, subject: Optional[Subject] = None
    ) -> KnowledgeCell:
        """The cell for one entity, maximized over subjects by default."""
        labels = self.ledger.labels_of(entity, subject)
        return cell_from_labels(labels, self.facets())

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
        name = subject.name
        key = (entity, name)
        cached = self._entity_couples_memo.get(key)
        if cached is not None:
            return cached
        if not self.ledger.pair_is_coupling_candidate(entity, name):
            # The candidate summary is the negative cache: a pool with
            # no sensitive identity, or with neither sensitive data nor
            # shares, cannot couple no matter how its rows link.  Not
            # memoized -- the O(1) gate stays correct as rows arrive,
            # where a stored False would need invalidating.
            return False
        cached = _observations_couple(self.ledger.by_pair(entity, subject))
        self._entity_couples_memo[key] = cached
        return cached

    def _coalition_couples_one(self, orgs: FrozenSet[str], subject: Subject) -> bool:
        """Memoized per-(coalition, subject) coupling check.

        The pool concatenates the members' buckets, so its cost is the
        pool size, not the ledger size.  It is not in global record
        order; the union-find coupling check does not depend on order.
        """
        self._sync()
        name = subject.name
        key = (orgs, name)
        cached = self._coalition_couples_memo.get(key)
        if cached is not None:
            return cached
        if not self.ledger.coalition_is_coupling_candidate(orgs, name):
            return False
        pool: List[Observation] = []
        for org in sorted(orgs):
            pool.extend(self.ledger.by_org_subject(org, subject))
        cached = _observations_couple(pool)
        self._coalition_couples_memo[key] = cached
        if not cached:
            self._coalition_false_keys.setdefault(name, []).append(key)
        return cached

    def coalition_couples(
        self, organizations: Iterable[str], subject: Optional[Subject] = None
    ) -> bool:
        """Would these organizations, colluding, re-couple ▲ with ●?"""
        orgs = frozenset(organizations)
        if subject is not None:
            return self._coalition_couples_one(orgs, subject)
        self._sync()
        # Only candidate subjects can make the pooled check True; for
        # every other subject _coalition_couples_one is False by the
        # same gate, so skipping them cannot change the any().  The
        # candidates come newest first, so the pool built before the
        # first True reloads the fewest spilled segments.
        ledger = self.ledger
        return any(
            self._coalition_couples_one(orgs, ledger.subject(name))
            for name in ledger.coalition_candidate_names(orgs)
        )

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
            # cannot couple for it (empty pool); the candidate gate
            # inside entity_couples dismisses the one-sided rest in
            # O(1) each.  Attested entities are checked too -- trust is
            # a per-query rendering decision, not a coupling fact.
            self._verdict_entities = entity_count
            violating: Set[Tuple[str, str]] = set()
            for entity in self.world.non_user_entities():
                entity_name = entity.name
                for subject in ledger.subjects_of_entity(entity_name):
                    if self.entity_couples(entity_name, subject):
                        violating.add((entity_name, subject.name))
            self._violations = violating
            self._pending.clear()
        elif self._pending:
            # Incremental: a pair's coupling state depends only on its
            # own pool, so only pairs with new rows since the last
            # verdict need re-evaluation; coupling is monotone, so
            # existing violations never leave.
            pending = self._pending
            self._pending = set()
            violating = self._violations
            non_user = {e.name for e in self.world.non_user_entities()}
            for pair in pending:
                if pair in violating or pair[0] not in non_user:
                    continue
                if self.entity_couples(pair[0], ledger.subject(pair[1])):
                    violating.add(pair)
        # Render in world declaration order per entity, global subject
        # first-appearance order within it.
        rendered: List[CouplingViolation] = []
        if self._violations:
            order = {name: i for i, name in enumerate(ledger.subject_names())}
            by_entity: Dict[str, List[str]] = {}
            for entity_name, name in self._violations:
                by_entity.setdefault(entity_name, []).append(name)
            facets = self.facets()
            for entity in self.world.non_user_entities():
                if trust_attested and entity.organization.attested:
                    continue
                names = by_entity.get(entity.name)
                if not names:
                    continue
                for name in sorted(names, key=order.__getitem__):
                    subject = ledger.subject(name)
                    labels = ledger.labels_of(entity.name, subject)
                    rendered.append(
                        CouplingViolation(
                            entity=entity.name,
                            organization=entity.organization.name,
                            subject=subject,
                            cell=cell_from_labels(labels, facets),
                        )
                    )
        return DecouplingVerdict(
            decoupled=not rendered, violations=tuple(rendered)
        )

    # ------------------------------------------------------------------
    # Collusion analysis
    # ------------------------------------------------------------------

    def non_user_organizations(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for entity in self.world.non_user_entities():
            seen.setdefault(entity.organization.name, None)
        return tuple(seen)

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
        found: List[FrozenSet[str]] = []
        for size in range(1, limit + 1):
            for combo in itertools.combinations(organizations, size):
                coalition = frozenset(combo)
                if any(prior <= coalition for prior in found):
                    continue
                if self.coalition_couples(coalition):
                    found.append(coalition)
        return tuple(found)

    def collusion_resistance(self, max_size: Optional[int] = None) -> int:
        """Size of the smallest re-coupling coalition.

        Returns ``len(non-user orgs) + 1`` when no coalition of any
        size re-couples (information-theoretic decoupling, as with
        blind signatures or a VOPRF issuer).
        """
        coalitions = self.minimal_recoupling_coalitions(max_size)
        if not coalitions:
            return len(self.non_user_organizations()) + 1
        return min(len(c) for c in coalitions)

    # ------------------------------------------------------------------
    # Breach analysis
    # ------------------------------------------------------------------

    def breach(self, organization: str) -> BreachReport:
        """What an attacker holding all of ``organization``'s data gets."""
        identified: List[Subject] = []
        with_data: List[Subject] = []
        coupled: List[Subject] = []
        for subject in self.ledger.subjects():
            pool = self.ledger.by_org_subject(organization, subject)
            if not pool:
                # An empty pool yields an all-non-sensitive cell and no
                # coupling.
                continue
            labels = {obs.label for obs in pool}
            cell = cell_from_labels(labels, self.facets())
            if cell.knows_sensitive_identity:
                identified.append(subject)
            if cell.knows_sensitive_data:
                with_data.append(subject)
            if _observations_couple(pool):
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
