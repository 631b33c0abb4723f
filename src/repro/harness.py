"""The reproduction harness: every paper artifact, one call each.

Benchmarks (``benchmarks/bench_*.py``), the text report
(``benchmarks/report.py``), and the CLI (``python -m repro``) all build
on these functions, so "regenerate table T4" means the same thing
everywhere.
"""

from __future__ import annotations

import functools
import multiprocessing
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import runtime as _obs
from repro.obs.tracing import NOOP_SPAN, get_tracer

from repro.core.audit import audit_grade
from repro.core.metrics import DegreePoint, DegreeSweep
from repro.core.report import ExperimentReport, compare_tables, flow_series
from repro.mixnet import run_mixnet
from repro.mpr import run_mpr
from repro.pgpp import (
    TrajectoryLinker,
    extract_epoch_tracks,
    run_pgpp,
    tracking_accuracy,
)
from repro.ppm import run_prio
from repro.privacypass import run_privacy_pass
from repro.scenario import (
    register_sweep,
    run_scenario,
    experiment_specs,
    sweep_specs,
)

__all__ = [
    "TableSummary",
    "SweepResult",
    "ResiliencePoint",
    "RiskSummary",
    "RiskPoint",
    "table_summaries",
    "sweep_results",
    "resilience_point",
    "resilience_sweep",
    "DEFAULT_RESILIENCE_RATES",
    "RISK_SWEEPS",
    "ScalePoint",
    "scale_point",
    "scale_sweep",
    "risk_report",
    "risk_summaries",
    "risk_point",
    "risk_sweep",
    "risk_delta",
    "risk_monotone_non_increasing",
    "risk_diminishing_returns",
    "PrivcountPoint",
    "privcount_point",
    "privcount_sweep",
    "DEFAULT_PRIVCOUNT_COLLECTORS",
    "DEFAULT_PRIVCOUNT_KEEPERS",
    "parallel_map",
    "figure_f1_series",
    "figure_f2_series",
    "sweep_relays",
    "sweep_aggregators",
    "sweep_batches",
    "STRIPING_NAMES",
    "striping_stub",
    "sweep_striping",
    "sweep_tracking",
    "sweep_disclosure",
]


def _run_experiment(experiment_id: str, title: str, runner: Callable[[], object]):
    """Run one table experiment inside an ``experiment`` span.

    The span is annotated with the run's simulator/network/ledger
    totals so the CLI's ``--trace`` section and the JSONL export can
    attribute cost per experiment without re-running anything.  In the
    ``sampled`` obs tier the seeded sampler decides whether this
    experiment is traced at all (one draw from the ``"experiment"``
    stream); unsampled experiments run under the shared no-op span.
    """
    span = (
        get_tracer().span(
            "experiment",
            kind="harness",
            sim_time=0.0,
            experiment=experiment_id,
            title=title,
        )
        if _obs.sample("experiment")
        else NOOP_SPAN
    )
    with span as span:
        run = runner()
        network = getattr(run, "network", None)
        if network is not None:
            span.end_sim(network.simulator.now)
            span.set("events", network.simulator.events_processed)
            span.set("messages", network.messages_delivered)
            span.set("bytes", network.bytes_delivered)
        world = getattr(run, "world", None)
        if world is not None:
            span.set("observations", len(world.ledger))
    return run


def _table_specs() -> List[Tuple[str, str, Dict[str, str], Callable[[], object]]]:
    """The T/E-series experiment specs in the paper's presentation order.

    A registry query: every spec carrying an ``experiment_id`` appears,
    sorted by its declared presentation order, with its default
    parameter binding as the runner.  Workers are handed only a spec
    index and rebuild this list in-process, so the runners need not be
    picklable.
    """
    return [
        (
            spec.experiment_id,
            spec.title,
            spec.expected_table(),
            functools.partial(run_scenario, spec.id),
        )
        for spec in experiment_specs()
    ]


# ----------------------------------------------------------------------
# Parallel sweep/table runner
# ----------------------------------------------------------------------
#
# ``table_summaries(jobs=N)`` and ``sweep_results(jobs=N)`` fan the
# T/E-series experiments and D-series sweeps across worker processes.
# Every run is deterministically seeded, workers are handed only a spec
# index (picklable under fork and spawn alike), and results merge in
# the fixed presentation order regardless of completion order -- so a
# parallel run's report is byte-identical to a serial one.
#
# Observability degrades gracefully rather than silently: a worker
# process cannot append spans to the parent's tracer, so each worker
# runs under its own capture and ships back wall time, span counts, and
# counter snapshots, which the parent folds into the report's trace
# summary section.


class _Point:
    """A series result whose JSON document is its fields, in order."""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class TableSummary:
    """The picklable result of one table experiment.

    Holds everything the CLI's text/JSON report paths need (the
    paper-vs-measured report, verdict, coalitions, run totals) without
    the run object itself, whose simulator and entity graph do not
    survive pickling.
    """

    experiment_id: str
    title: str
    report: ExperimentReport
    verdict_decoupled: bool
    coalitions: Tuple[Tuple[str, ...], ...]
    observations: int
    #: The :func:`~repro.core.audit.audit_grade` of the run
    #: (strong / decoupled / coupled).
    grade: str = ""
    sim_seconds: Optional[float] = None
    events: Optional[int] = None
    messages: Optional[int] = None
    bytes: Optional[int] = None
    wall_ms: float = 0.0
    spans: int = 0
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class SweepResult:
    """One D-series sweep's payload plus worker-side trace metrics."""

    key: str
    payload: object
    wall_ms: float = 0.0
    points: int = 0
    spans: int = 0
    counters: Dict[str, int] = field(default_factory=dict)


def _summarize_table_run(
    experiment_id: str, title: str, expected: Dict[str, str], run: object
) -> TableSummary:
    report = compare_tables(experiment_id, title, expected, run.table())
    analyzer = run.analyzer
    coalitions = tuple(
        tuple(sorted(coalition))
        for coalition in analyzer.minimal_recoupling_coalitions()
    )
    decoupled = analyzer.verdict().decoupled
    summary = TableSummary(
        experiment_id=experiment_id,
        title=title,
        report=report,
        verdict_decoupled=decoupled,
        coalitions=coalitions,
        observations=len(run.world.ledger),
        grade=audit_grade(decoupled, bool(coalitions)),
    )
    network = getattr(run, "network", None)
    if network is not None:
        summary.sim_seconds = network.simulator.now
        summary.events = network.simulator.events_processed
        summary.messages = network.messages_delivered
        summary.bytes = network.bytes_delivered
    return summary


def _table_worker(index: int) -> TableSummary:
    """Run one table experiment in a worker process, fully traced."""
    from repro import obs

    experiment_id, title, expected, runner = _table_specs()[index]
    start = time.perf_counter()
    with obs.capture() as (tracer, registry):
        run = _run_experiment(experiment_id, title, runner)
    summary = _summarize_table_run(experiment_id, title, expected, run)
    summary.wall_ms = (time.perf_counter() - start) * 1000.0
    summary.spans = max(len(tracer.spans) - 1, 0)
    summary.counters = registry.counters()
    return summary


def parallel_map(fn: Callable, items: Sequence[Tuple], jobs: int) -> List:
    """Order-preserving ``fn(*item)`` over worker processes.

    Each item is a tuple of ``fn``'s positional arguments, picklable
    under fork and spawn alike.  ``jobs <= 1`` runs in-process (no
    pool, spans flow to the ambient tracer).  Otherwise a pool of
    ``min(jobs, len(items))`` processes starmaps ``fn`` with results
    returned in input order, independent of worker completion order.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    with multiprocessing.Pool(processes=min(jobs, len(items))) as pool:
        return pool.starmap(fn, items)


def table_summaries(jobs: int = 1) -> List[TableSummary]:
    """Every table experiment, summarized; parallel when ``jobs > 1``.

    The serial path runs in-process so callers' ``obs.capture()`` sees
    every span; the parallel path delegates to :func:`_table_worker`,
    which captures per worker and returns folded metrics instead.
    """
    specs = _table_specs()
    if jobs <= 1:
        return [
            _summarize_table_run(
                experiment_id, title, expected, _run_experiment(experiment_id, title, runner)
            )
            for experiment_id, title, expected, runner in specs
        ]
    return parallel_map(_table_worker, [(i,) for i in range(len(specs))], jobs)


@register_sweep("D3u", title="D3: batch sweep, unpadded", order=3.0)
def _sweep_batches_unpadded() -> List[Dict[str, float]]:
    return sweep_batches(False)


@register_sweep("D3p", title="D3: batch sweep, padded", order=3.5)
def _sweep_batches_padded() -> List[Dict[str, float]]:
    return sweep_batches(True)


def _sweep_specs() -> List[Tuple[str, Callable[[], object]]]:
    """The D-series sweeps in presentation order, by stable key.

    A registry query over :func:`repro.scenario.register_sweep`
    registrations.  ``D3u``/``D3p`` are the unpadded/padded halves of
    the paper's D3 traffic-analysis sweep (one worker each).
    """
    return [(spec.key, spec.runner) for spec in sweep_specs()]


def _sweep_worker(index: int) -> SweepResult:
    """Run one D-series sweep in a worker process, fully traced."""
    from repro import obs

    key, runner = _sweep_specs()[index]
    start = time.perf_counter()
    with obs.capture() as (tracer, registry):
        payload = runner()
    return SweepResult(
        key=key,
        payload=payload,
        wall_ms=(time.perf_counter() - start) * 1000.0,
        points=len(tracer.by_name("sweep-point")),
        spans=len(tracer.spans),
        counters=registry.counters(),
    )


def sweep_results(jobs: int = 1) -> List[SweepResult]:
    """Every D-series sweep, in stable order; parallel when ``jobs > 1``."""
    specs = _sweep_specs()
    if jobs <= 1:
        return [SweepResult(key=key, payload=runner()) for key, runner in specs]
    return parallel_map(_sweep_worker, [(i,) for i in range(len(specs))], jobs)


# ----------------------------------------------------------------------
# R-series: resilience sweep (decoupling verdicts under failure)
# ----------------------------------------------------------------------
#
# The paper's tables are happy-path artifacts.  The R-series ramps a
# uniform link-loss fault plan over every registered scenario and
# reports two things per (scenario, rate) point: how much of the
# workload still completes (delivery), and whether the decoupling
# verdict survives (stability).  A verdict that flips under faults --
# odoh's proxy-down fallback to direct resolution is the canonical
# case -- is the quantified form of "fallback is a privacy breach".


@dataclass
class ResiliencePoint(_Point):
    """One (scenario, fault rate) cell of the R-series sweep."""

    scenario: str
    rate: float
    packets_sent: int
    packets_delivered: int
    packets_dropped: int
    packets_duplicated: int
    delivery_rate: float
    decoupled: bool
    baseline_decoupled: bool
    verdict_stable: bool
    attempts: int
    retries: int
    fallbacks: int
    failures: int
    phase_errors: int
    observations: int


#: The default loss ramp: fault-free anchor, mild, and heavy loss.
DEFAULT_RESILIENCE_RATES: Tuple[float, ...] = (0.0, 0.15, 0.35)


def resilience_point(
    scenario_id: str, rate: float, seed: int = 0
) -> ResiliencePoint:
    """Run one scenario fault-free and under ``rate`` uniform loss.

    The fault-free run anchors the verdict; ``rate == 0`` reuses it as
    the measured run, so the sweep's first column doubles as a
    differential check that the fault machinery is inert when null.
    """
    from repro.faults import FaultPlan

    with get_tracer().span(
        "resilience-point", kind="harness", sim_time=0.0,
        scenario=scenario_id, rate=rate,
    ) as span:
        baseline = run_scenario(scenario_id)
        baseline_decoupled = baseline.analyzer.verdict().decoupled
        if rate <= 0.0:
            run = baseline
            stats = {}
        else:
            run = run_scenario(
                scenario_id, faults=FaultPlan.uniform_loss(rate, seed=seed)
            )
            stats = run.fault_summary["stats"]
        network = run.network
        span.end_sim(network.simulator.now)
        decoupled = run.analyzer.verdict().decoupled
        sent = network.packets_sent + network.packets_duplicated
        return ResiliencePoint(
            scenario=scenario_id,
            rate=rate,
            packets_sent=network.packets_sent,
            packets_delivered=network.messages_delivered,
            packets_dropped=network.packets_dropped,
            packets_duplicated=network.packets_duplicated,
            delivery_rate=network.messages_delivered / max(1, sent),
            decoupled=decoupled,
            baseline_decoupled=baseline_decoupled,
            verdict_stable=decoupled == baseline_decoupled,
            attempts=stats.get("attempts", 0),
            retries=stats.get("retries", 0),
            fallbacks=stats.get("fallbacks", 0),
            failures=stats.get("failures", 0),
            phase_errors=len(stats.get("phase_errors", ())),
            observations=len(run.world.ledger),
        )


def resilience_sweep(
    rates: Sequence[float] = DEFAULT_RESILIENCE_RATES,
    scenario_ids: Optional[Sequence[str]] = None,
    seed: int = 0,
    jobs: int = 1,
) -> List[ResiliencePoint]:
    """The R-series: every scenario under a ramp of fault rates.

    Returns points in (scenario, rate) order -- all registered specs
    by default.  ``jobs > 1`` fans cells across worker processes; the
    per-cell runs are seeded, so the merged result is identical to a
    serial sweep.
    """
    if scenario_ids is None:
        from repro.scenario import all_specs

        scenario_ids = [spec.id for spec in all_specs()]
    items = [
        (scenario_id, float(rate), seed)
        for scenario_id in scenario_ids
        for rate in rates
    ]
    return parallel_map(resilience_point, items, jobs)


# ----------------------------------------------------------------------
# G-series: graded decoupling risk
# ----------------------------------------------------------------------
#
# The G-series layers the composite risk score (``repro.risk``) over
# the registry: one :class:`RiskSummary` per scenario, plus risk-vs-
# degree sweeps over the same degree knobs as D1/D2, making section
# 4.2's diminishing-returns argument fully quantitative.  Like the
# R-series, G-series results never register as D-series sweeps -- the
# pinned report goldens stay untouched.


@dataclass
class RiskSummary(_Point):
    """The picklable risk summary of one scenario run."""

    scenario: str
    title: str
    population: int
    observations: int
    decoupled: bool
    grade: str
    collusion_resistance: int
    system_risk: float
    max_pair_entity: str
    max_pair_subject: str
    max_pair_risk: float
    mean_pair_risk: float
    coupled_pairs: int
    pairs: List[Dict[str, object]] = field(default_factory=list)
    coalition_curve: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class RiskPoint(_Point):
    """One (scenario, degree) cell of a G-series risk sweep."""

    scenario: str
    degree: int
    collusion_resistance: int
    system_risk: float
    max_pair_risk: float
    mean_pair_risk: float
    coupled_pairs: int
    population: int
    observations: int


#: The G-series sweeps: (key, title, scenario, degree knob, degrees,
#: fixed overrides).  G1/G2 reuse the exact D1/D2 parameter bindings,
#: so the risk curves anchor against the established cost curves.
RISK_SWEEPS: Tuple[Tuple[str, str, str, str, Tuple[int, ...], Dict[str, object]], ...] = (
    ("G1", "G1: risk vs relay degree (MPR)", "mpr", "relays",
     (1, 2, 3, 4, 5), {"requests": 2}),
    ("G2", "G2: risk vs aggregator degree (PPM)", "prio", "aggregators",
     (2, 3, 4, 5), {"clients": 6}),
)


def risk_report(scenario_id: str, profile=None, faults=None, **overrides):
    """Score one registered scenario; returns a ``RiskReport``."""
    from repro.risk import score_run

    with get_tracer().span(
        "risk-report", kind="harness", sim_time=0.0, scenario=scenario_id,
    ) as span:
        run = run_scenario(scenario_id, faults=faults, **overrides)
        span.end_sim(run.network.simulator.now)
        report = score_run(run, profile)
        report.scenario_id = scenario_id
        return report


def _risk_fields(report) -> Dict[str, object]:
    """The risk fields every G- and P-series result reads off one report."""
    max_pair = report.max_pair()
    return {
        "system_risk": report.system_risk(),
        "max_pair_risk": max_pair.score if max_pair else 0.0,
        "mean_pair_risk": report.mean_pair_risk(),
        "coupled_pairs": report.coupled_pairs,
        "observations": sum(p.observations for p in report.pairs),
    }


def _risk_summary(scenario_id: str, profile=None) -> RiskSummary:
    """Score one scenario and summarize the report."""
    from repro.scenario import get_spec

    report = risk_report(scenario_id, profile)
    max_pair = report.max_pair()
    return RiskSummary(
        scenario=scenario_id,
        title=get_spec(scenario_id).title,
        population=len(report.population),
        decoupled=report.decoupled,
        grade=report.grade,
        collusion_resistance=report.collusion_resistance,
        max_pair_entity=max_pair.entity if max_pair else "",
        max_pair_subject=max_pair.subject if max_pair else "",
        pairs=[p.to_dict() for p in report.non_user_pairs()],
        coalition_curve=report.coalition_curve(),
        **_risk_fields(report),
    )


def risk_summaries(
    jobs: int = 1,
    scenario_ids: Optional[Sequence[str]] = None,
    profile=None,
) -> List[RiskSummary]:
    """Risk summaries for every registered scenario (or a subset).

    Ordered by scenario id, like ``repro demos``.  ``jobs > 1`` fans
    scenarios across worker processes; scoring is deterministic, so
    the merged result is byte-identical to a serial run.
    """
    if scenario_ids is None:
        from repro.scenario import all_specs

        scenario_ids = [spec.id for spec in all_specs()]
    items = [(scenario_id, profile) for scenario_id in scenario_ids]
    return parallel_map(_risk_summary, items, jobs)


def risk_point(
    scenario_id: str,
    degree: int,
    degree_param: str,
    profile=None,
    overrides: Optional[Dict[str, object]] = None,
) -> RiskPoint:
    """Score one scenario at one degree of decoupling.

    ``overrides`` binds the scenario's other parameters.
    """
    with get_tracer().span(
        "risk-point", kind="harness", sim_time=0.0,
        scenario=scenario_id, degree=degree,
    ) as span:
        from repro.risk import score_run

        run = run_scenario(scenario_id, **{degree_param: degree}, **(overrides or {}))
        span.end_sim(run.network.simulator.now)
        report = score_run(run, profile)
        return RiskPoint(
            scenario=scenario_id,
            degree=degree,
            collusion_resistance=report.collusion_resistance,
            population=len(report.population),
            **_risk_fields(report),
        )


def risk_sweep(
    jobs: int = 1,
    profile=None,
    keys: Optional[Sequence[str]] = None,
) -> Dict[str, List[RiskPoint]]:
    """The G-series: system risk vs degree of decoupling.

    Returns ``{key: [RiskPoint, ...]}`` in :data:`RISK_SWEEPS` order.
    Each curve is monotone non-increasing with diminishing returns
    (asserted by the tier-1 tests): the 1/collusion-resistance term
    decays harmonically, so each added relay or aggregator buys less.
    """
    sweeps = [s for s in RISK_SWEEPS if keys is None or s[0] in keys]
    items = [
        (scenario_id, degree, degree_param, profile, dict(overrides))
        for key, _title, scenario_id, degree_param, degrees, overrides in sweeps
        for degree in degrees
    ]
    points = parallel_map(risk_point, items, jobs)
    results: Dict[str, List[RiskPoint]] = {}
    cursor = 0
    for key, _title, _sid, _param, degrees, _overrides in sweeps:
        results[key] = points[cursor : cursor + len(degrees)]
        cursor += len(degrees)
    return results


def risk_monotone_non_increasing(points: Sequence[RiskPoint]) -> bool:
    """System risk never rises with degree (more decoupling, less risk)."""
    ordered = sorted(points, key=lambda p: p.degree)
    return all(
        a.system_risk >= b.system_risk for a, b in zip(ordered, ordered[1:])
    )


def risk_diminishing_returns(points: Sequence[RiskPoint]) -> bool:
    """The last degree step reduces risk no more than the first did."""
    ordered = sorted(points, key=lambda p: p.degree)
    if len(ordered) < 3:
        return True
    first_drop = ordered[0].system_risk - ordered[1].system_risk
    last_drop = ordered[-2].system_risk - ordered[-1].system_risk
    return last_drop <= first_drop


def risk_delta(scenario_id: str, faults, profile=None) -> Dict[str, object]:
    """Risk shift when a fault plan fires: the R/G composition.

    Scores the scenario fault-free and under ``faults`` and reports
    the system-risk delta plus every pair whose score moved -- the
    quantified form of "fallback is a privacy breach" (odoh under a
    proxy crash is the canonical case).
    """
    from repro.risk import score_run

    baseline = run_scenario(scenario_id)
    baseline_report = score_run(baseline, profile)
    faulted = run_scenario(scenario_id, faults=faults)
    faulted_report = score_run(faulted, profile)
    stats = (faulted.fault_summary or {}).get("stats", {})
    base_pairs = {
        (p.entity, p.subject): p for p in baseline_report.pairs
    }
    pair_deltas: List[Dict[str, object]] = []
    for pair in faulted_report.pairs:
        before = base_pairs.get((pair.entity, pair.subject))
        before_score = before.score if before else 0.0
        if pair.score != before_score:
            pair_deltas.append(
                {
                    "entity": pair.entity,
                    "subject": pair.subject,
                    "before": before_score,
                    "after": pair.score,
                    "delta": pair.score - before_score,
                }
            )
    return {
        "scenario": scenario_id,
        "baseline_system_risk": baseline_report.system_risk(),
        "faulted_system_risk": faulted_report.system_risk(),
        "system_risk_delta": (
            faulted_report.system_risk() - baseline_report.system_risk()
        ),
        "baseline_decoupled": baseline_report.decoupled,
        "faulted_decoupled": faulted_report.decoupled,
        "fallbacks": stats.get("fallbacks", 0),
        "failures": stats.get("failures", 0),
        "pair_deltas": pair_deltas,
    }


@dataclass
class PrivcountPoint(_Point):
    """One (collectors, share keepers) cell of the P-series sweep."""

    collectors: int
    share_keepers: int
    users: int
    #: Minimal coalition size that recombines a register:
    #: the analyzer's collusion resistance for the run.
    reconstruction_threshold: int
    #: Does the measured threshold equal ``share_keepers + 1`` (the
    #: owning collector plus every keeper)?
    threshold_matches: bool
    system_risk: float
    max_pair_risk: float
    mean_pair_risk: float
    coupled_pairs: int
    reconstructed: bool
    observations: int


#: The P-series grid: every (collectors, share keepers) pairing swept
#: by default.  Reconstruction threshold should track keepers + 1 on
#: every cell, independent of collector count.
DEFAULT_PRIVCOUNT_COLLECTORS: Tuple[int, ...] = (1, 2, 3)
DEFAULT_PRIVCOUNT_KEEPERS: Tuple[int, ...] = (2, 3, 4)


def privcount_point(
    collectors: int, share_keepers: int, users: int = 6
) -> PrivcountPoint:
    """Score one PrivCount deployment shape.

    The headline number is the reconstruction threshold: the smallest
    coalition that can put a blinded register back together, which the
    decoupling analyzer derives as the minimal re-coupling coalition
    size.  The PrivCount design predicts ``share_keepers + 1``.
    """
    with get_tracer().span(
        "privcount-point", kind="harness", sim_time=0.0,
        collectors=collectors, share_keepers=share_keepers,
    ) as span:
        from repro.risk import score_run

        run = run_scenario(
            "privcount",
            users=users,
            collectors=collectors,
            share_keepers=share_keepers,
        )
        span.end_sim(run.network.simulator.now)
        report = score_run(run)
        threshold = report.collusion_resistance
        return PrivcountPoint(
            collectors=collectors,
            share_keepers=share_keepers,
            users=users,
            reconstruction_threshold=threshold,
            threshold_matches=threshold == share_keepers + 1,
            reconstructed=run.reconstructed,
            **_risk_fields(report),
        )


def privcount_sweep(
    collectors: Sequence[int] = DEFAULT_PRIVCOUNT_COLLECTORS,
    share_keepers: Sequence[int] = DEFAULT_PRIVCOUNT_KEEPERS,
    users: int = 6,
    jobs: int = 1,
) -> List[PrivcountPoint]:
    """The P-series: reconstruction threshold vs deployment shape.

    Sweeps the (collectors, share keepers) grid and records, per cell,
    the measured reconstruction threshold and the risk-layer scores.
    Row-major (collectors outer) so the output order is stable.
    """
    items = [(c, k, users) for c in collectors for k in share_keepers]
    return parallel_map(privcount_point, items, jobs)


def figure_f1_series(max_steps: int = 10):
    run = run_mixnet(mixes=3, senders=4)
    return flow_series(
        run.world.ledger, ["Mix 1", "Mix 2", "Mix 3", "Receiver"], max_steps
    )


def figure_f2_series(max_steps: int = 10):
    run = run_privacy_pass(tokens=1)
    return flow_series(run.world.ledger, ["Issuer", "Origin"], max_steps)


@register_sweep("D1", title="D1: relays vs privacy/cost", order=1.0)
def sweep_relays(degrees=(1, 2, 3, 4, 5)) -> DegreeSweep:
    """D1: relay count vs collusion resistance and latency."""
    sweep = DegreeSweep(name="D1: relays vs privacy/cost")
    for relays in degrees:
        with get_tracer().span(
            "sweep-point", kind="harness", sweep="D1", degree=relays
        ):
            run = run_mpr(relays=relays, requests=2)
        sweep.add(
            DegreePoint(
                degree=relays,
                collusion_resistance=run.analyzer.collusion_resistance(),
                latency=run.mean_latency,
                messages=run.network.messages_delivered,
                bandwidth_overhead=run.network.bytes_delivered,
            )
        )
    return sweep


@register_sweep("D2", title="D2: aggregators vs privacy/cost", order=2.0)
def sweep_aggregators(degrees=(2, 3, 4, 5), clients: int = 6) -> DegreeSweep:
    """D2: aggregator count vs collusion resistance and traffic."""
    sweep = DegreeSweep(name="D2: aggregators vs privacy/cost")
    for count in degrees:
        with get_tracer().span(
            "sweep-point", kind="harness", sweep="D2", degree=count
        ):
            run = run_prio(clients=clients, aggregators=count)
        if run.reported_total != run.true_total:
            raise AssertionError("aggregate total diverged from ground truth")
        sweep.add(
            DegreePoint(
                degree=count,
                collusion_resistance=run.analyzer.collusion_resistance(),
                latency=run.network.simulator.now,
                messages=run.network.messages_delivered,
                bandwidth_overhead=run.network.bytes_delivered,
            )
        )
    return sweep


def sweep_batches(
    use_padding: bool, batches=(1, 2, 4, 8), seeds=range(6)
) -> List[Dict[str, float]]:
    """D3: batch size vs correlation accuracy and latency."""
    from repro.adversary import PassiveCorrelator, correlation_accuracy

    series = []
    for batch in batches:
        timing, sizes, latencies = [], [], []
        for seed in seeds:
            with get_tracer().span(
                "sweep-point", kind="harness", sweep="D3", degree=batch, seed=seed
            ):
                run = run_mixnet(
                    mixes=2, senders=8, batch_size=batch, seed=seed,
                    use_padding=use_padding,
                )
            correlator = PassiveCorrelator(run.network.trace)
            args = (
                run.mixes[0].address,
                run.mixes[-1].address,
                run.receiver.address,
            )
            truth = run.ground_truth()
            timing.append(
                correlation_accuracy(correlator.fifo_guesses(*args), truth)
            )
            sizes.append(
                correlation_accuracy(correlator.size_guesses(*args), truth)
            )
            latencies.append(run.end_to_end_latency())
        series.append(
            {
                "batch": batch,
                "timing_accuracy": statistics.mean(timing),
                "size_accuracy": statistics.mean(sizes),
                "latency": statistics.mean(latencies),
            }
        )
    return series


#: D4's workload: distinct names, looked up once each.
STRIPING_NAMES: Tuple[str, ...] = tuple(f"site-{i}.example.com" for i in range(16))


def striping_stub(resolver_count: int, policy):
    """One client striping a lookup per name over ``resolver_count`` resolvers.

    The zone serves :data:`STRIPING_NAMES`; each resolver belongs to
    its own organization, and ``policy`` (a :mod:`repro.dns.striping`
    policy) picks the resolver per query.  Returns the client's stub,
    which holds the per-resolver knowledge.
    """
    from repro.core.entities import World
    from repro.core.labels import SENSITIVE_IDENTITY
    from repro.core.values import LabeledValue, Subject
    from repro.dns.resolver import RecursiveResolver
    from repro.dns.striping import StripingStub
    from repro.dns.zones import AuthoritativeServer, Zone, ZoneRegistry
    from repro.net.network import Network

    world = World()
    network = Network()
    registry = ZoneRegistry()
    zone = Zone("example.com")
    for name in STRIPING_NAMES:
        zone.add(name, "203.0.113.99")
    AuthoritativeServer(network, world.entity("Auth", "dns-infra"), zone, registry)
    resolvers = [
        RecursiveResolver(
            network,
            world.entity(f"Resolver {i}", f"resolver-org-{i}"),
            registry,
            name=f"resolver-{i}",
        )
        for i in range(resolver_count)
    ]
    alice = Subject("alice")
    host = network.add_host(
        "client",
        world.entity("Client", "device", trusted_by_user=True),
        identity=LabeledValue("198.51.100.9", SENSITIVE_IDENTITY, alice, "ip"),
    )
    stub = StripingStub(host, [r.address for r in resolvers], policy)
    for name in STRIPING_NAMES:
        stub.lookup(name, alice)
    return stub


@register_sweep("D4", title="D4: resolver striping", order=4.0)
def sweep_striping(resolver_counts=(1, 2, 4, 8)) -> List[Dict[str, float]]:
    """D4: resolver count vs per-resolver knowledge, round-robin striping."""
    from repro.dns.striping import RoundRobinPolicy

    series = []
    for count in resolver_counts:
        with get_tracer().span(
            "sweep-point", kind="harness", sweep="D4", degree=count
        ):
            stub = striping_stub(count, RoundRobinPolicy())
        series.append(
            {
                "resolvers": count,
                "max_query_share": stub.max_resolver_share(),
                "max_name_coverage": stub.max_name_coverage(len(STRIPING_NAMES)),
                "load_entropy_bits": stub.load_entropy_bits(),
                "imbalance": stub.load_imbalance(),
            }
        )
    return series


@register_sweep("D6", title="D6: statistical disclosure", order=6.0)
def sweep_disclosure(
    rounds=(2, 8, 32), seeds=range(8), recipients: int = 6
) -> List[Dict[str, float]]:
    """D6 (extension): statistical disclosure vs observation time."""
    from repro.adversary import StatisticalDisclosureAttack, generate_sda_rounds

    series = []
    for round_count in rounds:
        hits = 0
        with get_tracer().span(
            "sweep-point", kind="harness", sweep="D6", degree=round_count
        ):
            for seed in seeds:
                observations, target, truth = generate_sda_rounds(
                    rounds=round_count, covers=9, recipients=recipients, seed=seed
                )
                guess = StatisticalDisclosureAttack().estimate(observations, target)
                hits += int(guess == truth)
        series.append(
            {
                "rounds": round_count,
                "accuracy": hits / len(list(seeds)),
                "chance": 1.0 / recipients,
            }
        )
    return series


@register_sweep("D5", title="D5: PGPP tracking", order=5.0)
def sweep_tracking(populations=(2, 4, 8, 16), seeds=range(5)) -> List[Dict[str, float]]:
    """D5 (extension): PGPP tracking accuracy vs population size."""
    series = []
    for users in populations:
        accuracies = []
        with get_tracer().span(
            "sweep-point", kind="harness", sweep="D5", degree=users
        ):
            for seed in seeds:
                run = run_pgpp(users=users, cells=6, steps=4, epochs=3, seed=seed)
                tracks = extract_epoch_tracks(run.core.mobility_log)
                chains = TrajectoryLinker().link(tracks)
                accuracies.append(tracking_accuracy(chains, run.imsi_truth()))
        series.append(
            {
                "users": users,
                "tracking_accuracy": statistics.mean(accuracies),
                "chance": 1.0 / users,
            }
        )
    return series


# ----------------------------------------------------------------------
# T-series: streaming analysis at population scale
# ----------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize both.
    Returns 0.0 where the resource module is unavailable.
    """
    try:
        import resource
        import sys as _sys
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if _sys.platform == "darwin":  # pragma: no cover - platform specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


@dataclass
class ScalePoint(_Point):
    """One T-series measurement: the scale workload at one user count.

    ``mid_run_matches`` is the acceptance property: every mid-run
    checkpoint's streaming ``verdict()`` (and collusion resistance)
    rendered byte-identical to a fresh full-scan analyzer over the
    same ledger version.

    The point measures *ledger ingest*: arrivals are recorded straight
    into the ledger, with no network or crypto.  ``ingest_seconds``
    (and so ``observations_per_second``) excludes the checkpoints,
    whose time is ``verify_seconds``.
    """

    users: int
    observations: int
    arrivals: int
    sessions: int
    decoupled: bool
    collusion_resistance: Optional[int]
    checkpoints: int
    mid_run_matches: bool
    ingest_seconds: float
    verify_seconds: float
    observations_per_second: float
    segments: int
    segments_sealed: int
    segments_spilled: int
    rows_spilled: int
    resident_rows: int
    segment_reloads: int
    peak_rss_mb: float
    segment_rows: Optional[int]
    spill: bool
    seed: int

    def to_dict(self) -> Dict[str, object]:
        document = asdict(self)
        for key, digits in (
            ("ingest_seconds", 3),
            ("verify_seconds", 3),
            ("observations_per_second", 1),
            ("peak_rss_mb", 1),
        ):
            document[key] = round(document[key], digits)
        return document


def scale_point(
    users: int,
    observations: Optional[int] = None,
    seed: int = 7,
    segment_rows: Optional[int] = 65_536,
    spill: bool = True,
    checkpoints: int = 8,
) -> ScalePoint:
    """Run the T-series scale workload at one population size.

    ``observations`` defaults to ten per user, the ratio the committed
    1M-user point uses.  The workload runs under the streaming segment
    policy and queries the analyzer mid-run at every checkpoint; see
    :func:`repro.population.run_scale_workload` for the topology.
    """
    from repro.population import run_scale_workload

    if observations is None:
        observations = users * 10
    with get_tracer().span(
        "scale-point", kind="harness", sweep="T1", users=users
    ):
        result = run_scale_workload(
            users=users,
            observations=observations,
            seed=seed,
            segment_rows=segment_rows,
            spill=spill,
            checkpoints=checkpoints,
        )
    final = result.checkpoints[-1]
    accounting = result.accounting
    ingest = result.ingest_seconds
    return ScalePoint(
        users=users,
        observations=result.observations,
        arrivals=result.arrivals,
        sessions=result.sessions,
        decoupled=final.decoupled,
        collusion_resistance=final.collusion_resistance,
        checkpoints=len(result.checkpoints),
        mid_run_matches=result.all_checkpoints_match,
        ingest_seconds=ingest,
        verify_seconds=sum(c.elapsed_seconds for c in result.checkpoints),
        observations_per_second=(
            result.observations / ingest if ingest > 0 else 0.0
        ),
        segments=accounting["segments"],
        segments_sealed=accounting["segments_sealed"],
        segments_spilled=accounting["segments_spilled"],
        rows_spilled=accounting["rows_spilled"],
        resident_rows=accounting["resident_rows"],
        segment_reloads=accounting["segment_reloads"],
        peak_rss_mb=_peak_rss_mb(),
        segment_rows=segment_rows,
        spill=spill,
        seed=seed,
    )


def scale_sweep(
    user_counts: Sequence[int] = (1_000, 10_000, 100_000),
    observations: Optional[int] = None,
    seed: int = 7,
    segment_rows: Optional[int] = 65_536,
    spill: bool = True,
    checkpoints: int = 8,
    jobs: int = 1,
) -> List[ScalePoint]:
    """The T-series sweep: one :func:`scale_point` per user count.

    Every point takes the same arguments.  Each worker spills into its
    own ledger-owned temp directory (the ledger's default is mkdtemp +
    pid-prefixed), so concurrent workers never collide on spill paths.
    """
    items = [
        (users, observations, seed, segment_rows, spill, checkpoints)
        for users in user_counts
    ]
    return parallel_map(scale_point, items, jobs)
