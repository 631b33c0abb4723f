"""One-call decoupling audits: the full analysis as a document.

``audit(world)`` runs every analysis the framework offers -- table,
verdict, coalitions, breaches, per-entity narration -- and bundles them
into an :class:`AuditReport` that renders as text or markdown.  This is
the artifact a system designer would attach to a design review.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .analysis import BreachReport, DecouplingAnalyzer, DecouplingVerdict
from .entities import World
from .tuples import KnowledgeTable

__all__ = ["AuditReport", "audit", "audit_grade"]


def audit_grade(decoupled: bool, recouplable: bool) -> str:
    """A one-word summary of a run's privacy posture.

    * ``strong``  -- decoupled and no coalition can re-couple;
    * ``decoupled`` -- decoupled, but some coalition could collude;
    * ``coupled`` -- some single entity already couples.
    """
    if not decoupled:
        return "coupled"
    return "decoupled" if recouplable else "strong"


@dataclass
class AuditReport:
    """Everything the analyzer can say about one run, in one place."""

    title: str
    table: KnowledgeTable
    verdict: DecouplingVerdict
    verdict_trusting_attested: DecouplingVerdict
    coalitions: Tuple[frozenset, ...]
    breaches: Tuple[BreachReport, ...]
    narrations: Tuple[Tuple[str, str], ...]  # (entity, explain text)

    @property
    def grade(self) -> str:
        """The :func:`audit_grade` of this run."""
        return audit_grade(self.verdict.decoupled, bool(self.coalitions))

    def render(self) -> str:
        lines = [f"=== Decoupling audit: {self.title} ===", ""]
        lines.append(self.table.render())
        lines.append("")
        lines.append(str(self.verdict))
        if (
            not self.verdict.decoupled
            and self.verdict_trusting_attested.decoupled
        ):
            lines.append(
                "(decoupled IF attested TEEs are trusted -- section 4.3)"
            )
        lines.append("")
        if self.coalitions:
            lines.append("Minimal re-coupling coalitions:")
            for coalition in self.coalitions:
                lines.append(f"  - {', '.join(sorted(coalition))}")
        else:
            lines.append(
                "Minimal re-coupling coalitions: none possible -- the"
                " linkage the coalitions would need does not exist."
            )
        lines.append("")
        lines.append("Single-organization breach exposure:")
        for report in self.breaches:
            status = "breach-proof" if report.breach_proof else "EXPOSES USERS"
            lines.append(f"  - {report.organization}: {status}")
        lines.append("")
        lines.append(f"Grade: {self.grade.upper()}")
        lines.append("")
        for _, narration in self.narrations:
            lines.append(narration)
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def to_markdown(self) -> str:
        lines = [f"## Decoupling audit: {self.title}", ""]
        lines.append(self.table.to_markdown())
        lines.append("")
        status = "DECOUPLED" if self.verdict.decoupled else "NOT DECOUPLED"
        lines.append(f"**Verdict:** {status}  ")
        lines.append(f"**Grade:** {self.grade}")
        lines.append("")
        if self.coalitions:
            lines.append("**Re-coupling coalitions:**")
            for coalition in self.coalitions:
                lines.append(f"- {', '.join(sorted(coalition))}")
        else:
            lines.append("**Re-coupling coalitions:** none possible")
        lines.append("")
        lines.append("| organization | breach exposure |")
        lines.append("|---|---|")
        for report in self.breaches:
            status = "breach-proof" if report.breach_proof else "exposes users"
            lines.append(f"| {report.organization} | {status} |")
        return "\n".join(lines) + "\n"


def audit(
    world: World,
    title: str = "untitled system",
    entities: Optional[Sequence[str]] = None,
    narrate: bool = True,
) -> AuditReport:
    """Run the complete analysis over ``world`` and bundle the results."""
    analyzer = DecouplingAnalyzer(world)
    # The audit header carries the title; keep the table untitled so it
    # does not render twice.
    table = analyzer.table(entities=entities)
    narrations: List[Tuple[str, str]] = []
    if narrate:
        for entity_name in table.entities():
            narrations.append(
                (entity_name, analyzer.explain(entity_name, max_items=6))
            )
    return AuditReport(
        title=title,
        table=table,
        verdict=analyzer.verdict(),
        verdict_trusting_attested=analyzer.verdict(trust_attested=True),
        coalitions=analyzer.minimal_recoupling_coalitions(),
        breaches=analyzer.breach_reports(),
        narrations=tuple(narrations),
    )
