"""The composite risk score and its provenance decomposition.

Every (entity, subject) pair in a run's knowledge table gets a score

    risk = w_s * sensitivity + w_l * linkability + w_i * inferability

with all three sub-scores in [0, 1] and the component weights drawn
from a :class:`~repro.risk.profile.SensitivityProfile` (defaults
0.25 / 0.25 / 0.5, summing to exactly 1.0):

* **sensitivity** -- the weight of the most sensitive fact the entity
  holds about the subject (the knowledge-table cell, made continuous);
* **linkability** -- how pinnable the subject is against the run's
  population: ``0.5 * prior + 0.5 * 2^-H`` where ``prior`` is the
  subject's share of the population weight and ``H`` its entropy
  (:func:`repro.core.metrics.entropy_bits`), so a subject hiding in a
  uniform crowd of k scores ``1/k`` and a singleton scores 1.0;
* **inferability** -- where the pair sits on the coupling ladder:
  1.0 if the entity alone re-couples identity and data (the paper's
  binary verdict), 0.5 if both facets are co-resident but unlinkable,
  0.25 if only one side of the join is present, 0.0 otherwise.

The score is *computed as* the sum of its decomposition terms, each
term pinned to a witness observation in the ledger, so
:meth:`RiskReport.why` renders sub-score terms that sum to the
reported value byte-exactly.  Because the component weights are exact
binary fractions summing to 1.0 and every sub-score lies in [0, 1],
no score can leave [0, 1] -- there is no clamping anywhere.

Monotonicity (property-tested in ``tests/test_risk_properties.py``):
recording more observations never lowers a cell's or pair's risk
(max-weight, coupling, and the ladder are all monotone in the pool),
and growing the population never raises any subject's linkability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.analysis import DecouplingAnalyzer
from repro.core.audit import audit_grade
from repro.core.ledger import Ledger, Observation
from repro.core.metrics import anonymity_set_size, entropy_bits
from repro.core.values import Subject
from repro.obs import runtime as _obs
from repro.obs.metrics import get_registry as _get_registry

from .profile import DEFAULT_PROFILE, SensitivityProfile

__all__ = [
    "RiskError",
    "RiskTerm",
    "CellRisk",
    "PairRisk",
    "CoalitionRisk",
    "RiskDecomposition",
    "RiskReport",
    "subject_linkability",
    "inferability_rung",
    "score_run",
]


class RiskError(LookupError):
    """An unknown (entity, subject) pair or unusable report state."""


#: The inferability ladder, lowest rung first.
INFER_NONE = 0.0
INFER_ONE_SIDED = 0.25
INFER_CO_RESIDENT = 0.5
INFER_COUPLED = 1.0


def subject_linkability(population: Mapping[str, float], subject: str) -> float:
    """How pinnable ``subject`` is against a weighted population, in [0, 1].

    ``0.5 * prior + 0.5 * 2^-H``: the subject's prior share of the
    population weight, averaged with the effective-anonymity-set term
    ``2^-H`` (H the population's Shannon entropy).  A uniform crowd of
    k gives exactly ``1/k``; an empty or singleton population gives
    1.0 (nowhere to hide).  Growing the population (adding subjects,
    or weight to *other* subjects) never raises this.
    """
    positive = {name: w for name, w in population.items() if w > 0}
    if anonymity_set_size(positive) <= 1:
        return 1.0
    total = sum(positive.values())
    prior = positive.get(subject, 0.0) / total
    effective = 2.0 ** (-entropy_bits(positive))
    return 0.5 * prior + 0.5 * effective


def inferability_rung(
    has_identity: bool, has_data: bool, couples: bool
) -> float:
    """Where a pool sits on the coupling ladder (see module docstring)."""
    if couples:
        return INFER_COUPLED
    if has_identity and has_data:
        return INFER_CO_RESIDENT
    if has_identity or has_data:
        return INFER_ONE_SIDED
    return INFER_NONE


@dataclass(frozen=True)
class RiskTerm:
    """One additive term of a pair's score, pinned to a witness.

    ``value`` is the term's exact contribution (``weight * subscore``,
    halved when a component splits across an identity and a data
    witness); the terms of a pair sum to its score byte-exactly.
    ``observation`` is the ledger index of the witness observation,
    which is also its node id (``obs:<index>``) in the provenance
    graph.
    """

    component: str
    value: float
    subscore: float
    weight: float
    observation: int
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "value": self.value,
            "subscore": self.subscore,
            "weight": self.weight,
            "observation": self.observation,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CellRisk:
    """The score of one knowledge-table cell: one distinct fact.

    ``weight`` is the profile's sensitivity weight of this fact; the
    cell score swaps it into the pair formula in place of the pair's
    max, so the pair score equals the max over its cells.
    """

    entity: str
    subject: str
    glyph: str
    description: str
    weight: float
    score: float
    observation: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entity": self.entity,
            "subject": self.subject,
            "glyph": self.glyph,
            "description": self.description,
            "weight": self.weight,
            "score": self.score,
            "observation": self.observation,
        }


@dataclass(frozen=True)
class PairRisk:
    """The composite score of one (entity, subject) pair."""

    entity: str
    organization: str
    subject: str
    is_user: bool
    score: float
    sensitivity: float
    linkability: float
    inferability: float
    couples: bool
    observations: int
    terms: Tuple[RiskTerm, ...]

    def to_dict(self, include_terms: bool = False) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "entity": self.entity,
            "organization": self.organization,
            "subject": self.subject,
            "is_user": self.is_user,
            "score": self.score,
            "sensitivity": self.sensitivity,
            "linkability": self.linkability,
            "inferability": self.inferability,
            "couples": self.couples,
            "observations": self.observations,
        }
        if include_terms:
            data["terms"] = [term.to_dict() for term in self.terms]
        return data


@dataclass(frozen=True)
class CoalitionRisk:
    """The pooled score of one coalition against one subject."""

    organizations: Tuple[str, ...]
    subject: str
    size: int
    couples: bool
    score: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "organizations": list(self.organizations),
            "subject": self.subject,
            "size": self.size,
            "couples": self.couples,
            "score": self.score,
        }


@dataclass(frozen=True)
class RiskDecomposition:
    """One pair's score, decomposed term by term with provenance.

    ``chains`` runs parallel to ``terms``: the provenance chain of
    each term's witness observation.  ``sum(t.value for t in terms)``
    equals ``score`` exactly.
    """

    entity: str
    subject: str
    score: float
    terms: Tuple[RiskTerm, ...]
    chains: Tuple[Any, ...]

    def render(self) -> str:
        lines = [f"risk({self.entity}, {self.subject}) = {self.score:.4f}"]
        for term, chain in zip(self.terms, self.chains):
            lines.append(
                f"  + {term.value:.4f}  {term.component}:"
                f" {term.subscore:.4f} x weight {term.weight:g}"
                f" -- {term.detail}"
            )
            for line in chain.render().splitlines():
                lines.append(f"      {line}")
        lines.append(
            f"  = {self.score:.4f}  (terms sum exactly to the pair score)"
        )
        return "\n".join(lines)


class RiskReport:
    """Every scored cell and pair of one run, plus graded coalitions.

    Construct with :func:`score_run`.  The report keeps the run's
    ledger and analyzer so :meth:`why` and :meth:`coalition_risks` can
    decompose lazily; everything needed for serialization is plain
    data, and :meth:`to_dict` output is byte-deterministic.
    """

    def __init__(
        self,
        *,
        profile: SensitivityProfile,
        population: Dict[str, float],
        subjects: Tuple[str, ...],
        pairs: Tuple[PairRisk, ...],
        cells: Tuple[CellRisk, ...],
        organizations: Tuple[str, ...],
        subject_resistance: Dict[str, int],
        collusion_resistance: int,
        ledger: Ledger,
        analyzer: Optional[DecouplingAnalyzer] = None,
        graph: Optional[Any] = None,
        scenario_id: str = "",
    ) -> None:
        self.profile = profile
        self.population = population
        self.subjects = subjects
        self.pairs = pairs
        self.cells = cells
        self.organizations = organizations
        self.subject_resistance = subject_resistance
        self.collusion_resistance = collusion_resistance
        self.scenario_id = scenario_id
        self._ledger = ledger
        self._analyzer = analyzer
        self._graph = graph

    # -- lookups -------------------------------------------------------

    def pair(self, entity: str, subject: str) -> PairRisk:
        """The scored pair, or :class:`RiskError` naming the known ones."""
        for pair in self.pairs:
            if pair.entity == entity and pair.subject == subject:
                return pair
        known = ", ".join(
            sorted({f"({p.entity}, {p.subject})" for p in self.pairs})
        ) or "(none)"
        raise RiskError(
            f"no scored pair ({entity!r}, {subject!r}); known pairs: {known}"
        )

    def non_user_pairs(self) -> Tuple[PairRisk, ...]:
        return tuple(p for p in self.pairs if not p.is_user)

    def entity_risk(self, entity: str) -> float:
        """The entity's worst pair score over every subject."""
        return max(
            (p.score for p in self.pairs if p.entity == entity), default=0.0
        )

    def max_pair(self) -> Optional[PairRisk]:
        """The riskiest non-user pair (first of the maxima, so stable)."""
        best: Optional[PairRisk] = None
        for pair in self.non_user_pairs():
            if best is None or pair.score > best.score:
                best = pair
        return best

    def mean_pair_risk(self) -> float:
        pairs = self.non_user_pairs()
        if not pairs:
            return 0.0
        return sum(p.score for p in pairs) / len(pairs)

    @property
    def coupled_pairs(self) -> int:
        return sum(1 for p in self.non_user_pairs() if p.couples)

    @property
    def decoupled(self) -> bool:
        """True iff no non-user pair couples -- the paper's verdict."""
        return self.coupled_pairs == 0

    @property
    def grade(self) -> str:
        """The :func:`~repro.core.audit.audit_grade` of the scored run."""
        return audit_grade(
            self.decoupled, self.collusion_resistance <= len(self.organizations)
        )

    # -- the graded verdict --------------------------------------------

    def subject_exposure(self, subject: str) -> float:
        """The system-level risk borne by one subject, in [0, 1].

        ``w_s * worst sensitivity held by any non-user entity +
        w_l * linkability + w_i / collusion-resistance``: the graded
        generalization of the binary verdict.  The inferability term
        decays as 1/cr, so each added decoupled party buys less -- the
        section 4.2 diminishing-returns curve, made quantitative.
        """
        sens = max(
            (
                p.sensitivity
                for p in self.pairs
                if p.subject == subject and not p.is_user
            ),
            default=0.0,
        )
        link = subject_linkability(self.population, subject)
        resistance = self.subject_resistance.get(
            subject, len(self.organizations) + 1
        )
        w = self.profile
        return (
            w.w_sensitivity * sens
            + w.w_linkability * link
            + w.w_inferability * (1.0 / resistance)
        )

    def system_risk(self) -> float:
        """The worst subject exposure in the run."""
        return max(
            (self.subject_exposure(name) for name in self.subjects),
            default=0.0,
        )

    # -- graded coalition analysis -------------------------------------

    def coalition_risks(
        self, max_size: Optional[int] = None
    ) -> Tuple[CoalitionRisk, ...]:
        """Per-coalition pooled risk: the graded collusion analysis.

        For every coalition of non-user organizations (up to
        ``max_size``) and every subject it has observations about,
        scores the pooled knowledge with the pair formula.  The binary
        collusion analysis reads off as ``couples``; the score grades
        everything beneath it.
        """
        analyzer = self._require_analyzer()
        ledger = self._ledger
        results: List[CoalitionRisk] = []
        limit = max_size if max_size is not None else len(self.organizations)
        for size in range(1, limit + 1):
            for combo in itertools.combinations(self.organizations, size):
                for subject in ledger.subjects():
                    pool: List[Observation] = []
                    for org in combo:
                        pool.extend(ledger.by_org_subject(org, subject))
                    if not pool:
                        continue
                    sens = max(
                        self.profile.weight_for(o.label, o.description)
                        for o in pool
                    )
                    couples = analyzer.coalition_couples(frozenset(combo), subject)
                    has_identity = any(
                        o.label.is_identity and o.label.is_sensitive for o in pool
                    )
                    has_data = any(
                        o.label.is_data and o.label.is_sensitive for o in pool
                    )
                    rung = inferability_rung(has_identity, has_data, couples)
                    link = subject_linkability(self.population, subject.name)
                    score = (
                        self.profile.w_sensitivity * sens
                        + self.profile.w_linkability * link
                        + self.profile.w_inferability * rung
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

    def coalition_curve(
        self, max_size: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Max pooled risk per coalition size: the graded-verdict curve."""
        curve: List[Dict[str, Any]] = []
        by_size: Dict[int, List[CoalitionRisk]] = {}
        for risk in self.coalition_risks(max_size):
            by_size.setdefault(risk.size, []).append(risk)
        for size in sorted(by_size):
            risks = by_size[size]
            coupling = {
                r.organizations for r in risks if r.couples
            }
            curve.append(
                {
                    "size": size,
                    "coalitions": len({r.organizations for r in risks}),
                    "coupling": len(coupling),
                    "max_risk": max(r.score for r in risks),
                }
            )
        return curve

    # -- decomposition -------------------------------------------------

    def _require_analyzer(self) -> DecouplingAnalyzer:
        if self._analyzer is None:
            raise RiskError(
                "this report was built without an analyzer;"
                " coalition analysis is unavailable"
            )
        return self._analyzer

    def provenance(self) -> Any:
        """The provenance graph backing :meth:`why` (built lazily).

        A graph passed to :func:`score_run` (e.g. from a traced run,
        with real packet hops) is used as-is; otherwise a ledger-only
        graph is built on first use.
        """
        if self._graph is None:
            from repro.obs.provenance import build_provenance

            self._graph = build_provenance(None, None, ledger=self._ledger)
        return self._graph

    def why(self, entity: str, subject: str) -> RiskDecomposition:
        """Decompose one pair's score through the provenance graph.

        Every term of the score is pinned to a witness observation;
        this walks each witness's provenance chain (send -> hops ->
        delivery -> observation) and returns terms whose values sum to
        the pair score exactly.
        """
        pair = self.pair(entity, subject)
        graph = self.provenance()
        chains = tuple(
            graph.chain_for(graph.nodes[f"obs:{term.observation}"])
            for term in pair.terms
        )
        return RiskDecomposition(
            entity=entity,
            subject=subject,
            score=pair.score,
            terms=pair.terms,
            chains=chains,
        )

    # -- serialization -------------------------------------------------

    def to_dict(self, include_terms: bool = False) -> Dict[str, Any]:
        max_pair = self.max_pair()
        return {
            "scenario_id": self.scenario_id,
            "profile": self.profile.name,
            "population": dict(self.population),
            "decoupled": self.decoupled,
            "grade": self.grade,
            "collusion_resistance": self.collusion_resistance,
            "system_risk": self.system_risk(),
            "max_pair_risk": max_pair.score if max_pair else 0.0,
            "mean_pair_risk": self.mean_pair_risk(),
            "coupled_pairs": self.coupled_pairs,
            "pairs": [p.to_dict(include_terms) for p in self.pairs],
            "cells": [c.to_dict() for c in self.cells],
            "coalition_curve": self.coalition_curve(),
        }


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------


def _rank_pool(
    pool: Sequence[Observation], index_of: Dict[int, int]
) -> List[Tuple[Observation, int]]:
    """The pool with global ledger indices, earliest first."""
    entries = [(obs, index_of[id(obs)]) for obs in pool]
    entries.sort(key=lambda entry: (entry[0].time, entry[1]))
    return entries


def _subject_resistance(
    analyzer: DecouplingAnalyzer,
    organizations: Tuple[str, ...],
    subject: Subject,
) -> int:
    """Smallest coalition size that re-couples this one subject."""
    for size in range(1, len(organizations) + 1):
        for combo in itertools.combinations(organizations, size):
            if analyzer.coalition_couples(frozenset(combo), subject):
                return size
    return len(organizations) + 1


def score_run(
    run: Any = None,
    profile: Optional[SensitivityProfile] = None,
    *,
    world: Any = None,
    analyzer: Optional[DecouplingAnalyzer] = None,
    population: Optional[Mapping[str, float]] = None,
    graph: Any = None,
) -> RiskReport:
    """Score every knowledge-table cell and pair of a finished run.

    ``run`` is any object with ``world`` and (optionally) ``analyzer``
    attributes -- every :class:`~repro.scenario.run.ScenarioRun`
    qualifies; alternatively pass ``world`` (and ``analyzer``)
    directly.  ``population`` overrides the linkability population; it
    is a fixed input, so scores are comparable across runs that share
    it.  It may be a mapping, or anything with a
    ``linkability_population()`` method (a
    :class:`~repro.population.PopulationEngine`).  When omitted, a run
    launched with ``run_scenario(population=...)`` contributes its
    engine's ambient population -- scores then reflect the deployment's
    user base, not just the driven subjects -- and engine-less runs
    keep the historical default of every ledger subject, uniformly
    weighted.  ``graph`` attaches a prebuilt provenance graph for
    :meth:`why` (one is built ledger-only on demand otherwise).
    """
    if world is None:
        if run is None:
            raise RiskError("score_run needs a run or a world")
        world = run.world
    if analyzer is None:
        analyzer = getattr(run, "analyzer", None) or DecouplingAnalyzer(world)
    profile = profile if profile is not None else DEFAULT_PROFILE
    ledger: Ledger = world.ledger

    if population is None:
        engine = getattr(run, "population_engine", None)
        if engine is not None:
            population = engine.linkability_population()
    elif hasattr(population, "linkability_population"):
        population = population.linkability_population()
    pop: Dict[str, float] = (
        dict(population)
        if population is not None
        else {subject.name: 1.0 for subject in ledger.subjects()}
    )
    positive = {name: w for name, w in pop.items() if w > 0}
    set_size = anonymity_set_size(positive)
    pop_entropy = entropy_bits(positive)

    index_of = {id(obs): i for i, obs in enumerate(ledger)}
    w_s, w_l, w_i = (
        profile.w_sensitivity,
        profile.w_linkability,
        profile.w_inferability,
    )

    pairs: List[PairRisk] = []
    cells: List[CellRisk] = []
    for entity in world.entities:
        for subject in ledger.subjects_of_entity(entity.name):
            pool = ledger.by_pair(entity.name, subject)
            ranked = _rank_pool(pool, index_of)
            weights = [
                profile.weight_for(obs.label, obs.description)
                for obs, _ in ranked
            ]
            sens = max(weights)
            sens_at = next(
                idx for (_, idx), w in zip(ranked, weights) if w == sens
            )
            link = subject_linkability(pop, subject.name)
            couples = analyzer.entity_couples(entity.name, subject)
            identity_at = next(
                (
                    idx
                    for (obs, idx) in ranked
                    if obs.label.is_identity and obs.label.is_sensitive
                ),
                None,
            )
            data_at = next(
                (
                    idx
                    for (obs, idx) in ranked
                    if obs.label.is_data and obs.label.is_sensitive
                ),
                None,
            )
            if data_at is None and couples:
                # Coupling without directly sensitive data means a
                # reconstructed share group; its earliest share is the
                # data-side witness.
                data_at = next(
                    (
                        idx
                        for (obs, idx) in ranked
                        if obs.share_info is not None
                    ),
                    None,
                )
            rung = inferability_rung(
                identity_at is not None, data_at is not None, couples
            )

            terms: List[RiskTerm] = []
            sens_obs = ledger.observations[sens_at]
            terms.append(
                RiskTerm(
                    component="sensitivity",
                    value=w_s * sens,
                    subscore=sens,
                    weight=w_s,
                    observation=sens_at,
                    detail=(
                        f"most sensitive fact held:"
                        f" {sens_obs.label.glyph}"
                        f"[{sens_obs.description or '(unnamed)'}]"
                    ),
                )
            )
            terms.append(
                RiskTerm(
                    component="linkability",
                    value=w_l * link,
                    subscore=link,
                    weight=w_l,
                    observation=ranked[0][1],
                    detail=(
                        f"{subject.name} hides among {set_size} subjects"
                        f" ({pop_entropy:.3f} bits)"
                    ),
                )
            )
            if rung > 0.0:
                if couples:
                    ladder = "identity and data join at this vantage"
                elif identity_at is not None and data_at is not None:
                    ladder = "identity and data co-resident but unlinkable"
                elif identity_at is not None:
                    ladder = "identity facet only; no sensitive data here"
                else:
                    ladder = "data facet only; no sensitive identity here"
                witnesses: List[Tuple[int, str]] = []
                if identity_at is not None:
                    witnesses.append((identity_at, "identity witness"))
                if data_at is not None:
                    witnesses.append((data_at, "data witness"))
                if not witnesses:
                    witnesses.append((ranked[0][1], "earliest observation"))
                # Splitting across two witnesses multiplies by 0.5,
                # which is float-exact, so the terms still sum to the
                # score byte-exactly.
                share = 1.0 / len(witnesses)
                for witness_at, role in witnesses:
                    terms.append(
                        RiskTerm(
                            component="inferability",
                            value=share * (w_i * rung),
                            subscore=rung,
                            weight=w_i,
                            observation=witness_at,
                            detail=f"{ladder} ({role})",
                        )
                    )
            score = sum(term.value for term in terms)
            pairs.append(
                PairRisk(
                    entity=entity.name,
                    organization=entity.organization.name,
                    subject=subject.name,
                    is_user=entity.is_user,
                    score=score,
                    sensitivity=sens,
                    linkability=link,
                    inferability=rung,
                    couples=couples,
                    observations=len(pool),
                    terms=tuple(terms),
                )
            )

            seen: set = set()
            for (obs, idx), weight in zip(ranked, weights):
                key = (obs.label.glyph, obs.description)
                if key in seen:
                    continue
                seen.add(key)
                cells.append(
                    CellRisk(
                        entity=entity.name,
                        subject=subject.name,
                        glyph=obs.label.glyph,
                        description=obs.description,
                        weight=weight,
                        score=w_s * weight + w_l * link + w_i * rung,
                        observation=idx,
                    )
                )

    organizations = analyzer.non_user_organizations()
    subject_resistance = {
        subject.name: _subject_resistance(analyzer, organizations, subject)
        for subject in ledger.subjects()
    }
    collusion_resistance = min(
        subject_resistance.values(), default=len(organizations) + 1
    )

    report = RiskReport(
        profile=profile,
        population=pop,
        subjects=tuple(subject.name for subject in ledger.subjects()),
        pairs=tuple(pairs),
        cells=tuple(cells),
        organizations=organizations,
        subject_resistance=subject_resistance,
        collusion_resistance=collusion_resistance,
        ledger=ledger,
        analyzer=analyzer,
        graph=graph,
        scenario_id=getattr(run, "scenario_id", "") or "",
    )
    if _obs.COUNTERS:
        registry = _get_registry()
        registry.counter("risk.reports").inc()
        max_pair = report.max_pair()
        registry.gauge("risk.system").set(report.system_risk())
        registry.gauge("risk.max_pair").set(max_pair.score if max_pair else 0.0)
        registry.gauge("risk.coupled_pairs").set(float(report.coupled_pairs))
    return report
