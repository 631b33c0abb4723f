"""A full-scan decoupling analyzer, kept as a test oracle.

``repro.core.analysis.DecouplingAnalyzer`` answers from per-segment
buckets, the ledger's label and candidate summaries, memo tables and a
streaming row cursor.  :class:`ReferenceAnalyzer` answers the same
public queries from nothing but a scan of the whole ledger per query,
and couples pools with the recursive kernel in
``tests/coupling_reference.py``, not the analyzer's ``_Linkage``.  It
shares only ``Ledger.__iter__``, the label predicates and
``cell_from_labels`` with the code it checks, so a bug in an index, a
summary, the incremental state or the coupling kernel shows up as a
difference between the two.

Every query costs at least one pass over the ledger (the verdict one
per entity and subject); keep the ledgers it checks small.
"""

import itertools
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from coupling_reference import _observations_couple
from repro.core.analysis import BreachReport, CouplingViolation, DecouplingVerdict
from repro.core.entities import World
from repro.core.labels import Facet
from repro.core.ledger import Observation
from repro.core.tuples import KnowledgeCell, KnowledgeTable, cell_from_labels
from repro.core.values import Subject


class ReferenceAnalyzer:
    """``DecouplingAnalyzer``'s public queries, one ledger scan each."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.ledger = world.ledger

    def _subjects(self) -> List[Subject]:
        """Every subject, in order of first appearance."""
        seen: List[Subject] = []
        for obs in self.ledger:
            if obs.subject not in seen:
                seen.append(obs.subject)
        return seen

    def _rows(
        self,
        subject: Optional[Subject] = None,
        *,
        entity: Optional[str] = None,
        organizations: Optional[FrozenSet[str]] = None,
    ) -> List[Observation]:
        """The observations that match every given filter, in record order."""
        return [
            obs
            for obs in self.ledger
            if (subject is None or obs.subject == subject)
            and (entity is None or obs.entity == entity)
            and (organizations is None or obs.organization in organizations)
        ]

    # -- knowledge tables ------------------------------------------------

    def facets(self) -> Tuple[Facet, ...]:
        """Human then network facets if the run used either, else generic."""
        used = {obs.label.facet for obs in self.ledger if obs.label.is_identity}
        shown = tuple(f for f in (Facet.HUMAN, Facet.NETWORK) if f in used)
        return shown or (Facet.GENERIC,)

    def knowledge_cell(
        self, entity: str, subject: Optional[Subject] = None
    ) -> KnowledgeCell:
        labels = {obs.label for obs in self._rows(subject, entity=entity)}
        return cell_from_labels(labels, self.facets())

    def table(
        self,
        entities: Optional[Sequence[str]] = None,
        subject: Optional[Subject] = None,
        title: str = "",
    ) -> KnowledgeTable:
        if entities is None:
            entities = [e.name for e in self.world.entities]
        rows = {name: self.knowledge_cell(name, subject) for name in entities}
        return KnowledgeTable(
            rows=rows, facets=self.facets(), subject=subject, title=title
        )

    # -- coupling --------------------------------------------------------

    def entity_couples(self, entity: str, subject: Subject) -> bool:
        return _observations_couple(self._rows(subject, entity=entity))

    def coalition_couples(
        self, organizations: Iterable[str], subject: Optional[Subject] = None
    ) -> bool:
        orgs = frozenset(organizations)
        subjects = self._subjects() if subject is None else [subject]
        return any(
            _observations_couple(self._rows(subj, organizations=orgs))
            for subj in subjects
        )

    def verdict(self, trust_attested: bool = False) -> DecouplingVerdict:
        violations: List[CouplingViolation] = []
        for entity in self.world.non_user_entities():
            if trust_attested and entity.organization.attested:
                continue
            for subject in self._subjects():
                if self.entity_couples(entity.name, subject):
                    violations.append(
                        CouplingViolation(
                            entity=entity.name,
                            organization=entity.organization.name,
                            subject=subject,
                            cell=self.knowledge_cell(entity.name, subject),
                        )
                    )
        return DecouplingVerdict(
            decoupled=not violations, violations=tuple(violations)
        )

    # -- collusion -------------------------------------------------------

    def non_user_organizations(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for entity in self.world.non_user_entities():
            if entity.organization.name not in seen:
                seen.append(entity.organization.name)
        return tuple(seen)

    def minimal_recoupling_coalitions(
        self, max_size: Optional[int] = None
    ) -> Tuple[FrozenSet[str], ...]:
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
        coalitions = self.minimal_recoupling_coalitions(max_size)
        if not coalitions:
            return len(self.non_user_organizations()) + 1
        return min(len(c) for c in coalitions)

    # -- breaches --------------------------------------------------------

    def breach(self, organization: str) -> BreachReport:
        orgs = frozenset([organization])
        identified: List[Subject] = []
        with_data: List[Subject] = []
        coupled: List[Subject] = []
        for subject in self._subjects():
            pool = self._rows(subject, organizations=orgs)
            if not pool:
                continue
            cell = cell_from_labels([obs.label for obs in pool], self.facets())
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
        return tuple(self.breach(org) for org in self.non_user_organizations())
