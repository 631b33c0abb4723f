"""Knowledge tuples and the paper's table notation.

A *knowledge cell* summarizes what one entity knows about one subject:
one identity mark per facet in play, plus one data mark.  A *knowledge
row* is one entity's cell (maximized over subjects, as in the paper's
tables which speak of "the user" generically), and a
:class:`KnowledgeTable` is the full per-system table -- exactly what
sections 3.1-3.3 of the paper print.

Rendering rules, derived in DESIGN.md:

* identity mark per facet = the most sensitive identity label of that
  facet the entity observed; ``△`` when it never observed any (the
  entity knows the user at most as an anonymous member of an
  aggregate);
* data mark = the most sensitive data label observed, where the order
  is ``⊙ < ⊙/● < ●``; ``⊙`` when it observed none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .labels import (
    Facet,
    Kind,
    Label,
    NONSENSITIVE_DATA,
    Sensitivity,
)
from .ledger import Ledger
from .values import Subject

__all__ = ["KnowledgeCell", "KnowledgeTable", "cell_from_labels"]

#: Facet display order: generic first, then human, then network --
#: matching the paper's ``(▲_H, ▲_N, ●)`` ordering for PGPP.
_FACET_ORDER = (Facet.GENERIC, Facet.HUMAN, Facet.NETWORK)


def _identity_mark(facet: Facet, sensitivity: Sensitivity) -> Label:
    return Label(Kind.IDENTITY, sensitivity, facet)


@dataclass(frozen=True)
class KnowledgeCell:
    """One entity's knowledge of one (or any) subject.

    ``identity`` maps each displayed facet to its identity label;
    ``data`` is the single data label.
    """

    identity: Tuple[Label, ...]
    data: Label

    @property
    def labels(self) -> Tuple[Label, ...]:
        return self.identity + (self.data,)

    @property
    def knows_sensitive_identity(self) -> bool:
        return any(mark.is_sensitive for mark in self.identity)

    @property
    def knows_sensitive_data(self) -> bool:
        return self.data.is_sensitive

    @property
    def is_coupled(self) -> bool:
        """True if this cell holds both a ▲ (any facet) and a ● or ⊙/●."""
        return self.knows_sensitive_identity and self.knows_sensitive_data

    def render(self) -> str:
        """The paper's notation, e.g. ``(▲, ⊙)`` or ``(▲_H, △_N, ●)``."""
        marks = [mark.glyph for mark in self.identity] + [self.data.glyph]
        return "(" + ", ".join(marks) + ")"

    def __str__(self) -> str:
        return self.render()


def cell_from_labels(
    labels: Iterable[Label], facets: Sequence[Facet] = (Facet.GENERIC,)
) -> KnowledgeCell:
    """Build a cell from a bag of observed labels.

    ``facets`` fixes which identity facets the table displays (derived
    from the whole run, so every row shows the same tuple shape).
    """
    observed = list(labels)
    identity_marks: List[Label] = []
    for facet in _FACET_ORDER:
        if facet not in facets:
            continue
        facet_labels = [
            lab for lab in observed if lab.is_identity and lab.facet is facet
        ]
        if any(lab.is_sensitive for lab in facet_labels):
            identity_marks.append(_identity_mark(facet, Sensitivity.SENSITIVE))
        else:
            identity_marks.append(_identity_mark(facet, Sensitivity.NONSENSITIVE))
    data_labels = [lab for lab in observed if lab.is_data]
    data_mark = NONSENSITIVE_DATA
    for lab in data_labels:
        if lab.rank > data_mark.rank:
            data_mark = Label(Kind.DATA, lab.sensitivity, partial=lab.partial)
    return KnowledgeCell(identity=tuple(identity_marks), data=data_mark)


@dataclass
class KnowledgeTable:
    """A full decoupling-analysis table: one cell per entity.

    ``rows`` preserves entity order (the paper's column order);
    ``facets`` is the tuple shape shared by every cell.
    """

    rows: "Dict[str, KnowledgeCell]"
    facets: Tuple[Facet, ...]
    subject: Optional[Subject] = None
    title: str = ""

    def cell(self, entity: str) -> KnowledgeCell:
        return self.rows[entity]

    def entities(self) -> Tuple[str, ...]:
        return tuple(self.rows)

    def as_mapping(self) -> Mapping[str, str]:
        """Entity name -> rendered cell, e.g. ``{"Mix 1": "(▲, ⊙)"}``."""
        return {name: cell.render() for name, cell in self.rows.items()}

    def render(self) -> str:
        """A fixed-width text table in the paper's style."""
        names = list(self.rows)
        cells = [self.rows[name].render() for name in names]
        widths = [max(len(n), len(c)) for n, c in zip(names, cells)]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.extend([header, rule, body])
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """A GitHub-flavored markdown table (for EXPERIMENTS.md etc.)."""
        names = list(self.rows)
        cells = [self.rows[name].render() for name in names]
        lines = [
            "| " + " | ".join(names) + " |",
            "|" + "|".join("---" for _ in names) + "|",
            "| " + " | ".join(cells) + " |",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def facets_in_ledger(ledger: Ledger) -> Tuple[Facet, ...]:
    """Which identity facets a run used, in display order.

    A run that used only generic identities displays the single-mark
    shape; one that used human/network facets (PGPP) displays both.

    The ledger maintains its identity-facet set incrementally, so this
    is O(#facets) rather than O(#observations).
    """
    seen = ledger.identity_facets()
    ordered = tuple(f for f in _FACET_ORDER if f in seen and f is not Facet.GENERIC)
    if ordered:
        return ordered
    return (Facet.GENERIC,)
