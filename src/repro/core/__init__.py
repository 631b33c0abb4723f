"""The Decoupling Principle core: labels, ledger, and analysis.

This package is the paper's primary contribution made executable: a
framework in which protocol models record who observed what, and the
decoupling analysis of section 2.4 is *derived* from those
observations.

Typical use::

    from repro.core import World, DecouplingAnalyzer

    world = World()
    user = world.entity("User", "user-device", trusted_by_user=True)
    mix = world.entity("Mix 1", "mix-org-1")
    ...  # run a protocol; entities .observe(...) what they receive
    analyzer = DecouplingAnalyzer(world)
    print(analyzer.table())      # the paper-style knowledge table
    print(analyzer.verdict())    # DECOUPLED / NOT DECOUPLED
"""

from .labels import (
    Facet,
    Kind,
    Label,
    NONSENSITIVE_DATA,
    NONSENSITIVE_HUMAN_IDENTITY,
    NONSENSITIVE_IDENTITY,
    NONSENSITIVE_NETWORK_IDENTITY,
    PARTIAL_SENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_HUMAN_IDENTITY,
    SENSITIVE_IDENTITY,
    SENSITIVE_NETWORK_IDENTITY,
    Sensitivity,
)
from .values import Aggregate, LabeledValue, Sealed, ShareInfo, Subject, digest
from .ledger import Ledger, Observation
from .entities import Entity, Organization, World
from .tuples import KnowledgeCell, KnowledgeTable, cell_from_labels
from .analysis import (
    BreachReport,
    CouplingViolation,
    DecouplingAnalyzer,
    DecouplingVerdict,
)
from .metrics import (
    DegreePoint,
    DegreeSweep,
    anonymity_set_size,
    entropy_bits,
    normalized_entropy,
    uniformity_l1_distance,
)
from .audit import AuditReport, audit
from .report import ExperimentReport, FlowStep, compare_tables, flow_series

__all__ = [
    # labels
    "Facet",
    "Kind",
    "Label",
    "Sensitivity",
    "SENSITIVE_IDENTITY",
    "NONSENSITIVE_IDENTITY",
    "SENSITIVE_DATA",
    "PARTIAL_SENSITIVE_DATA",
    "NONSENSITIVE_DATA",
    "SENSITIVE_HUMAN_IDENTITY",
    "NONSENSITIVE_HUMAN_IDENTITY",
    "SENSITIVE_NETWORK_IDENTITY",
    "NONSENSITIVE_NETWORK_IDENTITY",
    # values
    "LabeledValue",
    "Sealed",
    "Aggregate",
    "ShareInfo",
    "Subject",
    "digest",
    # ledger / entities
    "Ledger",
    "Observation",
    "Entity",
    "Organization",
    "World",
    # tuples / analysis
    "KnowledgeCell",
    "KnowledgeTable",
    "cell_from_labels",
    "DecouplingAnalyzer",
    "DecouplingVerdict",
    "CouplingViolation",
    "BreachReport",
    # metrics / report
    "DegreePoint",
    "DegreeSweep",
    "anonymity_set_size",
    "entropy_bits",
    "normalized_entropy",
    "uniformity_l1_distance",
    "ExperimentReport",
    "compare_tables",
    "FlowStep",
    "flow_series",
    "AuditReport",
    "audit",
]
