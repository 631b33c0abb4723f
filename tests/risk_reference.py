"""The graded-risk formulas as first written, kept as a test oracle.

``repro.risk.score`` works a population's linkability out once per
report, reads each organization's rows about a subject once per
``coalition_risks`` call, groups a report's pairs by subject and asks
the analyzer for each subject's collusion resistance.  The functions
here compute the same numbers directly: one pass over the whole
population per linkability, one scan of every pair per subject
exposure, every coalition's pool concatenated row by row, and a
smallest-first coalition loop per subject.  The tests compare a
report with them by ``==`` in one process, so every float must agree
to its last bit, whatever ``sum`` the interpreter has.

Each call costs what the original did (``coalition_risks`` makes one
linkability pass per coalition and subject); keep the runs it checks
small.
"""

import itertools
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.analysis import DecouplingAnalyzer
from repro.core.ledger import Ledger, Observation
from repro.core.metrics import anonymity_set_size, entropy_bits
from repro.risk.score import CoalitionRisk, RiskReport, inferability_rung


def subject_linkability(population: Mapping[str, float], subject: str) -> float:
    """``0.5 * prior + 0.5 * 2^-H``, or 1.0 with nowhere to hide."""
    positive = {name: w for name, w in population.items() if w > 0}
    if anonymity_set_size(positive) <= 1:
        return 1.0
    total = sum(positive.values())
    prior = positive.get(subject, 0.0) / total
    effective = 2.0 ** (-entropy_bits(positive))
    return 0.5 * prior + 0.5 * effective


def subject_exposure(report: RiskReport, subject: str) -> float:
    sens = max(
        (
            p.sensitivity
            for p in report.pairs
            if p.subject == subject and not p.is_user
        ),
        default=0.0,
    )
    link = subject_linkability(report.population, subject)
    resistance = report.subject_resistance.get(
        subject, len(report.organizations) + 1
    )
    w = report.profile
    return (
        w.w_sensitivity * sens
        + w.w_linkability * link
        + w.w_inferability * (1.0 / resistance)
    )


def system_risk(report: RiskReport) -> float:
    return max(
        (subject_exposure(report, name) for name in report.subjects),
        default=0.0,
    )


def coalition_risks(
    report: RiskReport,
    ledger: Ledger,
    analyzer: DecouplingAnalyzer,
    max_size: Optional[int] = None,
) -> Tuple[CoalitionRisk, ...]:
    profile = report.profile
    results: List[CoalitionRisk] = []
    limit = max_size if max_size is not None else len(report.organizations)
    for size in range(1, limit + 1):
        for combo in itertools.combinations(report.organizations, size):
            for subject in ledger.subjects():
                pool: List[Observation] = []
                for org in combo:
                    pool.extend(ledger.by_org_subject(org, subject))
                if not pool:
                    continue
                sens = max(profile.weight_for(o.label, o.description) for o in pool)
                couples = analyzer.coalition_couples(frozenset(combo), subject)
                has_identity = any(
                    o.label.is_identity and o.label.is_sensitive for o in pool
                )
                has_data = any(o.label.is_data and o.label.is_sensitive for o in pool)
                rung = inferability_rung(has_identity, has_data, couples)
                link = subject_linkability(report.population, subject.name)
                score = (
                    profile.w_sensitivity * sens
                    + profile.w_linkability * link
                    + profile.w_inferability * rung
                )
                results.append(
                    CoalitionRisk(
                        organizations=tuple(combo),
                        subject=subject.name,
                        size=size,
                        couples=couples,
                        score=score,
                    )
                )
    return tuple(results)


def subject_resistance(
    analyzer: DecouplingAnalyzer, organizations: Tuple[str, ...], ledger: Ledger
) -> Dict[str, int]:
    """Per subject, the smallest coalition size that re-couples it."""
    resistance: Dict[str, int] = {}
    for subject in ledger.subjects():
        resistance[subject.name] = len(organizations) + 1
        for size in range(1, len(organizations) + 1):
            if any(
                analyzer.coalition_couples(frozenset(combo), subject)
                for combo in itertools.combinations(organizations, size)
            ):
                resistance[subject.name] = size
                break
    return resistance
