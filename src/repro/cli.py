"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``      -- regenerate every paper artifact, paper vs measured
  (``--trace`` appends a per-experiment timing/metrics section,
  ``--json`` emits the machine-readable equivalent, ``--jobs N`` fans
  experiments and sweeps across N worker processes with output
  identical to a serial run, ``--risk`` appends the G-series section)
* ``tables``      -- just the knowledge tables (T-series); ``--jobs N``
* ``figures``     -- just the flow figures (F-series)
* ``sweeps``      -- just the degree sweeps (D-series); ``--trace``
  appends a per-sweep timing section, ``--jobs N`` runs them parallel
* ``demo NAME``   -- run one system's scenario and print its analysis
  (``--json`` emits the run as a machine-readable document instead;
  ``--faults plan.json`` runs it under a fault plan, see
  ``docs/ROBUSTNESS.md``)
* ``demos``       -- list every registered scenario with its title and
  parameter schema (the registry behind ``demo``/``trace``/``explain``)
* ``trace NAME``  -- run one demo with tracing on and export the span
  tree, metrics, and provenance records as JSONL (``--out spans.jsonl``;
  ``--obs-mode`` selects the observability tier, ``--obs-sample`` /
  ``--obs-seed`` configure sampled mode)
* ``profile NAME`` -- time one demo phase-by-phase (build/drive/settle/
  analyze) under an observability tier; ``--repeats N`` keeps best-of-N,
  ``--trace-out DIR`` streams spans to bounded-memory JSONL segments,
  ``--json``/``--out`` emit the machine-readable document
* ``explain NAME --entity E [--subject S] [--fact F]`` -- run one demo
  and print, for every (matching) sensitive fact the entity holds, the
  causal chain from originating send through every forwarding hop to
  the recorded observation; ``--breach`` explains analyzer breaches
  instead (identity chain + data chain meeting at their shared link)
* ``timeline NAME`` -- run one demo and print when each entity's
  knowledge tuple grew, observation by observation
* ``resilience``  -- the R-series sweep: every scenario under a ramp of
  fault rates, reporting delivery and decoupling-verdict stability
* ``risk``        -- the G-series: graded decoupling risk scores for
  every scenario plus risk-vs-degree sweeps (``--profile`` loads a
  JSON sensitivity profile, ``--faults`` reports the risk delta when
  a fault plan fires; see docs/RISK.md)
* ``scale``       -- the T-series ledger-ingest workload: streaming
  analysis at population scale (``--users N[,N...]`` runs a sweep;
  see docs/SCALE.md)
* ``privcount``   -- the P-series: PrivCount's reconstruction threshold
  over a (collectors, share keepers) grid
* ``list``        -- list the available demos

``demo``, ``trace``, ``explain``, and ``timeline`` all accept
``--faults plan.json``; ``explain NAME --entity E --risk`` prints the
per-pair risk decomposition (sub-score terms pinned to provenance
chains).  The four series verbs (``resilience``, ``risk``, ``scale``,
``privcount``) share one output path: ``--out PATH`` writes the JSON
document, ``--json`` prints it, and otherwise the text report prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Dict, List, Optional

from repro import harness, obs
from repro.obs import export as obs_export
from repro.scenario import all_specs, experiment_specs, get_spec, run_scenario


__all__ = ["main"]


class _Exit(Exception):
    """An error exit: :func:`main` prints ``message`` and returns ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _spec_ids() -> List[str]:
    """Every registered scenario id, sorted."""
    return [spec.id for spec in all_specs()]


def _check_demo(name: str) -> None:
    if name not in _spec_ids():
        raise _Exit(2, f"unknown demo {name!r}; try: {', '.join(_spec_ids())}")


def _scenario_ids(text) -> Optional[List[str]]:
    """The ``--scenarios`` ids, checked; ``None`` means every spec."""
    if text is None:
        return None
    ids = [name.strip() for name in text.split(",") if name.strip()]
    if not ids:
        raise _Exit(2, "--scenarios needs at least one scenario id")
    known = _spec_ids()
    unknown = sorted(set(ids) - set(known))
    if unknown:
        raise _Exit(
            2, f"unknown scenario(s): {', '.join(unknown)}; try: {', '.join(known)}"
        )
    return ids


def _count_grids(verb: str, *grids) -> List[List[int]]:
    """Each ``(flag, text)`` grid as a list of positive integers.

    An empty grid, or one holding a non-integer or a count below 1,
    gets one line; every bad grid is reported in one exit 2.
    """
    counts, errors = [], []
    for flag, text in grids:
        items = [item.strip() for item in str(text).split(",") if item.strip()]
        try:
            values = [int(item) for item in items]
        except ValueError:
            values = [0]
        if not items:
            errors.append(f"{verb} needs at least one --{flag} count")
        elif min(values) < 1:
            errors.append(
                f"invalid --{flag} {text!r}:"
                " expected comma-separated positive integers"
            )
        counts.append(values)
    if errors:
        raise _Exit(2, "\n".join(errors))
    return counts


def _check_point(check, *args, **kwargs) -> None:
    """Run a sweep point's own limit check before the sweep fans out.

    Its ``ValueError`` is a bad argument: exit 2 with the message.  The
    same error raised mid-run is a fault and keeps its traceback.
    """
    try:
        check(*args, **kwargs)
    except ValueError as error:
        raise _Exit(2, str(error)) from None


def _load_fault_plan(path: str):
    """Parse a JSON fault-plan file."""
    from repro.faults import FaultPlan, FaultPlanError

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise _Exit(2, f"cannot read fault plan {path!r}: {error}") from None
    try:
        return FaultPlan.from_json(text)
    except FaultPlanError as error:
        raise _Exit(2, f"invalid fault plan {path!r}: {error}") from None


def _load_sensitivity_profile(path):
    """Load a JSON sensitivity profile; no ``path`` means the default."""
    from repro.risk import DEFAULT_PROFILE, ProfileError, load_profile

    if not path:
        return DEFAULT_PROFILE
    try:
        return load_profile(path)
    except OSError as error:
        raise _Exit(2, f"cannot read profile {path!r}: {error}") from None
    except ProfileError as error:
        raise _Exit(2, f"invalid profile {path!r}: {error}") from None


def _print_json(document, out) -> None:
    json.dump(document, out, ensure_ascii=False, indent=2)
    print(file=out)


def _emit(args, out, document, summary: str, render, ok: bool = True) -> int:
    """The one output path of the series verbs.

    ``--out PATH`` writes ``document`` and prints ``<summary> -> PATH``;
    ``--json`` prints the document; otherwise ``render(out)`` prints the
    text report.  The exit code is the series' own check, ``ok``.
    """
    if args.out_path:
        try:
            with open(args.out_path, "w", encoding="utf-8") as handle:
                _print_json(document, handle)
        except OSError as error:
            raise _Exit(1, f"cannot write {args.out_path!r}: {error}") from None
        print(f"{summary} -> {args.out_path}", file=out)
    if args.json:
        _print_json(document, out)
    elif not args.out_path:
        render(out)
    return 0 if ok else 1


def _print_table_summaries(summaries, out) -> bool:
    all_match = True
    for summary in summaries:
        print(summary.report.render(), file=out)
        print(
            f"  verdict: {'DECOUPLED' if summary.verdict_decoupled else 'NOT DECOUPLED'}",
            file=out,
        )
        coalitions = summary.coalitions
        print(
            "  minimal re-coupling coalitions:",
            [list(c) for c in coalitions] if coalitions else "none possible",
            file=out,
        )
        print(file=out)
        all_match &= summary.report.matches
    return all_match


_FIGURE_TITLES = {
    "F1": "F1: mix-net decoupling flow (paper Figure 1)",
    "F2": "F2: Privacy Pass decoupling flow (paper Figure 2)",
}


def _figure_series() -> Dict[str, list]:
    return {"F1": harness.figure_f1_series(), "F2": harness.figure_f2_series()}


def _print_figures(figures, out) -> None:
    for key, steps in figures.items():
        print(_FIGURE_TITLES[key], file=out)
        for step in steps:
            print(" ", step.render(), file=out)
        print(file=out)


def _sweep_payloads(results) -> Dict[str, object]:
    return {result.key: result.payload for result in results}


def _print_sweep_payloads(payloads: Dict[str, object], out) -> None:
    """Render the D-series sections from keyed sweep payloads.

    ``payloads`` comes from :func:`harness.sweep_results` (serial or
    parallel); presentation order is fixed here, so a parallel run
    prints byte-identically to a serial one.
    """
    print(payloads["D1"].render(), file=out)
    print(file=out)
    print(payloads["D2"].render(), file=out)
    print(file=out)
    print("D3: traffic analysis (no padding / padded)", file=out)
    header = f"{'batch':>6} {'timing acc':>11} {'size acc':>9} {'latency':>9}"
    for padded in (False, True):
        print(f"{header}   ({'padded cells' if padded else 'no padding'})", file=out)
        for row in payloads["D3p" if padded else "D3u"]:
            print(
                f"{row['batch']:>6} {row['timing_accuracy']:>11.3f}"
                f" {row['size_accuracy']:>9.3f} {row['latency']:>9.4f}",
                file=out,
            )
    print(file=out)
    print("D4: resolver striping", file=out)
    for row in payloads["D4"]:
        print(
            f"  resolvers={row['resolvers']:<3} max_share={row['max_query_share']:.3f}"
            f" coverage={row['max_name_coverage']:.3f}"
            f" entropy={row['load_entropy_bits']:.2f}b",
            file=out,
        )
    print(file=out)
    print("D5 (extension): PGPP tracking vs population", file=out)
    for row in payloads["D5"]:
        print(
            f"  users={row['users']:<3} tracking={row['tracking_accuracy']:.3f}"
            f" (chance {row['chance']:.3f})",
            file=out,
        )
    print(file=out)
    print("D6 (extension): statistical disclosure vs rounds observed", file=out)
    for row in payloads["D6"]:
        print(
            f"  rounds={row['rounds']:<4} accuracy={row['accuracy']:.3f}"
            f" (chance {row['chance']:.3f})",
            file=out,
        )
    print(file=out)


# ----------------------------------------------------------------------
# --trace sections
# ----------------------------------------------------------------------
#
# A serial ``--trace`` run holds everything under one capture and reads
# its rows from the spans; under ``--jobs N`` each worker captures
# locally and ships back wall time, span counts and counter snapshots,
# which fold into the same rows.  Figures run in the parent untraced,
# so the folded totals leave them out.


def _capture(trace: bool, jobs: int):
    """The capture of a serial ``--trace`` run; a no-op otherwise."""
    if trace and jobs == 1:
        return obs.capture()
    return contextlib.nullcontext((None, None))


def _fold_counters(parts) -> Dict[str, int]:
    """Sum per-worker counter snapshots into one totals mapping."""
    totals: Dict[str, int] = {}
    for part in parts:
        for name, value in part.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _trace_counters(registry, parts) -> Dict[str, int]:
    """Counter totals: the serial capture's, or folded from ``parts``."""
    return _fold_counters(parts) if registry is None else registry.counters()


#: A run's totals, as experiment span attributes and summary fields.
_RUN_COUNTS = ("events", "messages", "bytes", "observations")


def _experiment_rows(tracer, summaries) -> List[dict]:
    """One timing row per experiment, from its span or its summary."""
    if tracer is None:
        keys = ("experiment_id", "title", "wall_ms", "sim_seconds", "spans", *_RUN_COUNTS)
        return [{key: getattr(s, key) for key in keys} for s in summaries]
    from repro.obs import analyze

    spans = tracer.by_name("experiment")
    counts = analyze.descendant_counts(tracer.spans, [s.span_id for s in spans])
    return [
        {
            "experiment_id": span.attributes.get("experiment"),
            "title": span.attributes.get("title", ""),
            "wall_ms": (span.wall_seconds or 0.0) * 1000.0,
            "sim_seconds": span.sim_duration,
            "spans": counts.get(span.span_id, 0),
            **{key: span.attributes.get(key) for key in _RUN_COUNTS},
        }
        for span in spans
    ]


def _sweep_lines(tracer, sweep_results) -> List[str]:
    """One ``points=… wall=…`` line per sweep, from spans or worker results."""
    if tracer is not None:
        parts = [
            (str(span.attributes.get("sweep", "?")), 1, (span.wall_seconds or 0.0) * 1000.0)
            for span in tracer.by_name("sweep-point")
        ]
    else:
        # D3u/D3p are halves of the paper's D3; fold them back together
        # so the keys match the span-derived ones.
        parts = [
            ("D3" if r.key.startswith("D3") else r.key, r.points, r.wall_ms)
            for r in sweep_results
        ]
    totals: Dict[str, List[float]] = {}
    for sweep, points, wall_ms in parts:
        row = totals.setdefault(sweep, [0, 0.0])
        row[0] += points
        row[1] += wall_ms
    return [
        f"  {sweep}: points={points} wall={wall_ms:.2f}ms"
        for sweep, (points, wall_ms) in sorted(totals.items())
    ]


def _dash(value):
    return "-" if value is None else value


def _experiment_line(row) -> str:
    return (
        f"  {row['experiment_id']:<4}"
        f" {row['title'][:42]:<42}"
        f" wall={row['wall_ms']:8.2f}ms sim={row['sim_seconds'] or 0.0:8.4f}s"
        f" spans={row['spans']:>4}"
        f" events={_dash(row['events']):>5}"
        f" messages={_dash(row['messages']):>4}"
        f" bytes={_dash(row['bytes']):>7}"
        f" observations={_dash(row['observations']):>4}"
    )


#: The counters a ``--trace`` totals line shows: (label, counter).
_TOTALS = (
    ("events", "sim.events"),
    ("messages", "net.messages"),
    ("dropped", "net.packets_dropped"),
    ("bytes", "net.bytes"),
    ("observations", "ledger.observations"),
)


def _print_trace_section(heading, tracer, lines, totals, out) -> None:
    """A ``--trace`` section: heading, one line per row, totals."""
    source = "tracing enabled" if tracer is not None else "folded from worker traces"
    print(f"{heading} ({source})", file=out)
    for line in lines:
        print(line, file=out)
    print(
        "  totals: " + " ".join(f"{label}={value}" for label, value in totals),
        file=out,
    )
    print(file=out)


def _print_provenance_section(tracer, out) -> None:
    """``report --trace``: span analytics plus wire-causality counts."""
    from repro.obs import analyze

    print("Provenance & trace analytics", file=out)
    for line in analyze.render_span_stats(analyze.span_stats(tracer.spans)).splitlines():
        print(" ", line, file=out)
    delivers = [
        s for s in tracer.by_name("deliver") if "packet_id" in s.attributes
    ]
    by_id = {span.span_id: span for span in tracer.spans}
    forwards = 0
    for span in delivers:
        ancestor = by_id.get(span.parent_id)
        while ancestor is not None:
            if ancestor.name == "deliver" and "packet_id" in ancestor.attributes:
                forwards += 1
                break
            ancestor = by_id.get(ancestor.parent_id)
    print(
        f"  packets delivered={len(delivers)} forwarding links={forwards}",
        file=out,
    )
    path = analyze.critical_path(tracer.spans, "wall")
    for line in analyze.render_critical_path(path, "wall").splitlines():
        print(" ", line, file=out)
    print(file=out)


# ----------------------------------------------------------------------
# report / tables / figures / sweeps
# ----------------------------------------------------------------------


def _report_risk(jobs: int):
    """``report --risk``: the G-series over the paper's experiment specs."""
    from repro.risk import DEFAULT_PROFILE

    return (
        harness.risk_summaries(
            jobs=jobs, scenario_ids=[spec.id for spec in experiment_specs()]
        ),
        harness.risk_sweep(jobs=jobs),
        DEFAULT_PROFILE,
    )


def _experiment_document(summary) -> dict:
    from repro.core.serialize import experiment_report_to_dict

    row = experiment_report_to_dict(summary.report)
    row["verdict_decoupled"] = summary.verdict_decoupled
    row["grade"] = summary.grade
    row["observations"] = summary.observations
    if summary.sim_seconds is not None:
        row["sim_seconds"] = summary.sim_seconds
        row["events"] = summary.events
        row["messages"] = summary.messages
        row["bytes"] = summary.bytes
    return row


def _report(args, out) -> int:
    """``report``: every paper artifact, as text or one JSON document.

    Tables, figures and sweeps run in that order, under one capture
    when ``--trace`` is serial; both output forms read the same runs.
    """
    with _capture(args.trace, args.jobs) as (tracer, registry):
        summaries = harness.table_summaries(jobs=args.jobs)
        figures = _figure_series()
        sweep_results = harness.sweep_results(jobs=args.jobs)
    all_match = all(summary.report.matches for summary in summaries)
    payloads = _sweep_payloads(sweep_results)
    if args.trace:
        rows = _experiment_rows(tracer, summaries)
        counters = _trace_counters(registry, [*summaries, *sweep_results])
    if args.json:
        from repro.core.serialize import degree_sweep_to_dict

        document = {
            "experiments": [_experiment_document(s) for s in summaries],
            "figures": {
                key: [step.render() for step in steps]
                for key, steps in figures.items()
            },
            "sweeps": {
                "D1": degree_sweep_to_dict(payloads["D1"]),
                "D2": degree_sweep_to_dict(payloads["D2"]),
                "D3": {"unpadded": payloads["D3u"], "padded": payloads["D3p"]},
                "D4": payloads["D4"],
                "D5": payloads["D5"],
                "D6": payloads["D6"],
            },
        }
        if args.trace:
            document["timing"] = [
                {key: value for key, value in row.items() if key != "title"}
                for row in rows
            ]
            document["metrics"] = (
                registry.snapshot()
                if registry is not None
                else [
                    {"type": "counter", "name": name, "value": value}
                    for name, value in sorted(counters.items())
                ]
            )
        if args.risk:
            document["risk"] = _risk_document(*_report_risk(args.jobs))
        document["all_match"] = all_match
        _print_json(document, out)
        return 0 if all_match else 1
    _print_table_summaries(summaries, out)
    _print_figures(figures, out)
    _print_sweep_payloads(payloads, out)
    if args.trace:
        spans = (
            len(tracer.spans)
            if tracer is not None
            else sum(s.spans + 1 for s in summaries) + sum(r.spans for r in sweep_results)
        )
        _print_trace_section(
            "Per-experiment timing / metrics",
            tracer,
            [_experiment_line(row) for row in rows],
            [("spans", spans)]
            + [(label, counters.get(name, 0)) for label, name in _TOTALS],
            out,
        )
        if tracer is not None:
            _print_provenance_section(tracer, out)
    if args.risk:
        _print_risk(*_report_risk(args.jobs), out)
    print(
        "ALL PAPER TABLES REPRODUCED EXACTLY" if all_match else "SOME TABLES MISMATCHED",
        file=out,
    )
    return 0 if all_match else 1


def _tables(args, out) -> int:
    summaries = harness.table_summaries(jobs=args.jobs)
    return 0 if _print_table_summaries(summaries, out) else 1


def _figures(args, out) -> int:
    _print_figures(_figure_series(), out)
    return 0


def _sweeps(args, out) -> int:
    with _capture(args.trace, args.jobs) as (tracer, registry):
        sweep_results = harness.sweep_results(jobs=args.jobs)
    _print_sweep_payloads(_sweep_payloads(sweep_results), out)
    if args.trace:
        counters = _trace_counters(registry, sweep_results)
        _print_trace_section(
            "Per-sweep timing",
            tracer,
            _sweep_lines(tracer, sweep_results),
            [(label, counters.get(name, 0)) for label, name in _TOTALS[:4]],
            out,
        )
    return 0


# ----------------------------------------------------------------------
# one demo: demo / trace / profile / explain / timeline
# ----------------------------------------------------------------------


def _obs_sampler(mode, sample, seed):
    """The CLI-configured span sampler; ``None`` outside sampled mode."""
    if mode != "sampled":
        return None
    from repro.obs.runtime import DEFAULT_SAMPLE_RATE

    return obs.SpanSampler(
        rate=DEFAULT_SAMPLE_RATE if sample is None else sample,
        seed=0 if seed is None else seed,
    )


def _trace(args, out) -> int:
    """``trace NAME``: one traced demo run, exported as JSONL."""
    name, out_path = args.name, args.out_path
    _check_demo(name)
    sampler = _obs_sampler(args.obs_mode, args.obs_sample, args.obs_seed)
    with obs.capture(mode=args.obs_mode, sampler=sampler) as (tracer, registry):
        with tracer.span("demo", kind="demo", sim_time=0.0, demo=name) as root:
            run = run_scenario(name, faults=args.faults)
            network = getattr(run, "network", None)
            if network is not None:
                root.end_sim(network.simulator.now)
                root.set("events", network.simulator.events_processed)
                root.set("messages", network.messages_delivered)
                root.set("bytes", network.bytes_delivered)
            world = getattr(run, "world", None)
            if world is not None:
                root.set("observations", len(world.ledger))
    from repro.obs import provenance

    graph = provenance.build_provenance(run, tracer)
    try:
        lines = obs_export.write_jsonl(out_path, tracer, registry, graph)
    except OSError as error:
        raise _Exit(1, f"cannot write {out_path}: {error}") from None
    print(
        f"traced demo {name!r}: {len(tracer.spans)} spans,"
        f" {registry.counter_value('sim.events')} events,"
        f" {registry.counter_value('net.messages')} messages,"
        f" {registry.counter_value('net.bytes')} bytes,"
        f" {len(graph.nodes)} provenance nodes"
        f" -> {lines} JSONL records in {out_path}",
        file=out,
    )
    print(file=out)
    print(obs_export.render_span_tree(tracer.spans), file=out)
    return 0


def _trace_digest(span_dicts) -> str:
    """A wall-clock-free sha256 over the recorded span set.

    Spans are hashed in span-id order with ``wall_ms`` dropped, so two
    runs of the same scenario under the same obs mode (and, in sampled
    mode, the same seed) produce the same digest -- the determinism
    check CI leans on.
    """
    import hashlib

    digest = hashlib.sha256()
    for record in sorted(span_dicts, key=lambda d: d["span_id"]):
        record = dict(record)
        record.pop("wall_ms", None)
        digest.update(
            json.dumps(record, ensure_ascii=False, sort_keys=True).encode("utf-8")
        )
        digest.update(b"\n")
    return digest.hexdigest()


def _segment_span_dicts(segments) -> List[dict]:
    """Span records from a :class:`StreamingWriter`'s segment files."""
    records: List[dict] = []
    for path in segments:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "span":
                    records.append(record)
    return records


def _profile(args, out) -> int:
    """``profile NAME``: per-phase wall times under one obs tier.

    Steps the scenario through ``build -> drive -> settle -> analyze``
    one phase at a time, timing each, inside ``obs.capture(mode=...)``.
    ``--repeats N`` reruns the whole lifecycle and keeps the minimum
    per-phase time (metric totals and the trace digest come from the
    final repeat; in sampled mode every repeat gets a fresh sampler so
    the sampled span set is identical across repeats).  ``--trace-out
    DIR`` streams spans into segmented JSONL files instead of holding
    them in memory.
    """
    import time as time_mod

    from repro.scenario import PHASES
    from repro.scenario.spec import ScenarioError

    name, mode, repeats = args.name, args.obs_mode or "off", max(args.repeats, 1)
    try:
        spec = get_spec(name)
    except ScenarioError as error:
        raise _Exit(2, str(error)) from None
    sampler = _obs_sampler(mode, args.obs_sample, args.obs_seed)
    best: Dict[str, float] = {}
    document: Dict[str, object] = {}
    for _repeat in range(repeats):
        run_sampler = sampler.fresh() if sampler is not None else None
        writer = (
            obs_export.StreamingWriter(args.trace_dir, ring=32)
            if args.trace_dir is not None
            else None
        )
        phase_ms: Dict[str, float] = {}
        with obs.capture(mode=mode, sampler=run_sampler, sink=writer) as (
            tracer,
            registry,
        ):
            program = spec.program(spec, spec.bind({}))
            for phase in PHASES:
                started = time_mod.perf_counter()
                program.run_phase(phase)
                phase_ms[phase] = (time_mod.perf_counter() - started) * 1000.0
        for phase, elapsed in phase_ms.items():
            if phase not in best or elapsed < best[phase]:
                best[phase] = elapsed
        if writer is not None:
            manifest = writer.close(registry)
            span_dicts = _segment_span_dicts(
                [p for p in manifest["segments"] if "-metrics" not in p]
            )
            spans_recorded = writer.spans_written
        else:
            manifest = None
            span_dicts = [obs_export.span_to_dict(s) for s in tracer.spans]
            spans_recorded = len(tracer.spans)
        document = {
            "scenario": name,
            "obs_mode": mode,
            "repeats": repeats,
            "phase_ms": {phase: round(best[phase], 3) for phase in PHASES},
            "total_ms": round(sum(best.values()), 3),
            "events": registry.counter_value("sim.events"),
            "messages": registry.counter_value("net.messages"),
            "bytes": registry.counter_value("net.bytes"),
            "observations": registry.counter_value("ledger.observations"),
            "spans": spans_recorded,
            "trace_digest": _trace_digest(span_dicts),
        }
        if run_sampler is not None:
            document["sampler"] = {
                "rate": run_sampler.rate,
                "seed": run_sampler.seed,
                "decisions": run_sampler.decisions,
                "sampled": run_sampler.sampled,
            }
        if manifest is not None:
            document["trace"] = manifest
    if args.out_path is not None:
        try:
            with open(args.out_path, "w", encoding="utf-8") as handle:
                _print_json(document, handle)
        except OSError as error:
            raise _Exit(1, f"cannot write {args.out_path}: {error}") from None
    if args.json:
        _print_json(document, out)
        return 0
    print(f"profile {name!r} (obs-mode={mode}, repeats={repeats})", file=out)
    for phase in ("build", "drive", "settle", "analyze"):
        print(f"  {phase:<8} {document['phase_ms'][phase]:>10.3f}ms", file=out)
    print(f"  {'total':<8} {document['total_ms']:>10.3f}ms", file=out)
    print(
        f"  events={document['events']}"
        f" messages={document['messages']}"
        f" bytes={document['bytes']}"
        f" observations={document['observations']}"
        f" spans={document['spans']}",
        file=out,
    )
    print(f"  trace_digest={document['trace_digest']}", file=out)
    if "sampler" in document:
        sampler_doc = document["sampler"]
        print(
            f"  sampler: rate={sampler_doc['rate']} seed={sampler_doc['seed']}"
            f" sampled={sampler_doc['sampled']}/{sampler_doc['decisions']}",
            file=out,
        )
    if "trace" in document:
        trace_doc = document["trace"]
        print(
            f"  trace: {trace_doc['spans']} spans in"
            f" {len(trace_doc['segments'])} segments under"
            f" {trace_doc['directory']}"
            f" (peak buffered {trace_doc['peak_buffered']})",
            file=out,
        )
    return 0


def _resolve_entity(graph, requested: str, name: str) -> str:
    """Exact, then case-insensitive, then unique-substring match; an
    exit 2 that lists demo ``name``'s entities when none matches."""
    names = graph.entities()
    if requested in names:
        return requested
    lowered = requested.lower()
    insensitive = [n for n in names if n.lower() == lowered]
    if len(insensitive) == 1:
        return insensitive[0]
    partial = [n for n in names if lowered in n.lower()]
    if len(partial) == 1:
        return partial[0]
    raise _Exit(
        2,
        f"unknown entity {requested!r} in demo {name!r};"
        f" entities: {', '.join(names)}",
    )


def _traced_run(name: str, faults=None):
    """Run one demo under capture; (run, tracer, provenance graph)."""
    _check_demo(name)
    from repro.obs import provenance

    with obs.capture() as (tracer, _registry):
        run = run_scenario(name, faults=faults)
    return run, tracer, provenance.build_provenance(run, tracer)


def _breach_explain(args, out) -> int:
    """``explain NAME --breach``: identity+data chains behind breaches.

    For every organization whose single-party breach couples a subject
    (no re-coupling coalition needed), render the provenance chains --
    how the identity fact and the data fact each reached it, and the
    shared link that couples them.  Under ``--faults`` this is how a
    fallback-induced breach is attributed to the degraded path.
    """
    name, entity = args.name, args.entity
    run, _, graph = _traced_run(name, args.faults)
    reports = [r for r in run.analyzer.breach_reports() if not r.breach_proof]
    if entity:
        lowered = entity.lower()
        reports = [r for r in reports if lowered in r.organization.lower()]
    if not reports:
        scope = f" matching {entity!r}" if entity else ""
        print(
            f"no breachable organization{scope} in demo {name!r}:"
            " every single-party breach leaves identity and data decoupled",
            file=out,
        )
        return 0
    for report in reports:
        subjects = ", ".join(s.name for s in report.coupled_subjects)
        print(f"breach of {report.organization} couples: {subjects}", file=out)
        print(file=out)
        for chain in graph.breach_chain(report):
            print(chain.render(), file=out)
            print(file=out)
    return 0


def _risk_explain(args, out) -> int:
    """``explain NAME --entity E --risk``: per-pair risk decompositions."""
    from repro.risk import RiskError, score_run

    name = args.name
    run, _, graph = _traced_run(name, args.faults)
    if not args.entity:
        raise _Exit(2, "explain --risk requires --entity")
    resolved = _resolve_entity(graph, args.entity, name)
    report = score_run(run, graph=graph)
    if args.subject is not None:
        subjects = [args.subject]
    else:
        subjects = [p.subject for p in report.pairs if p.entity == resolved]
    if not subjects:
        print(f"{resolved} observed nothing; no pairs to decompose", file=out)
        return 0
    print(f"risk decomposition for {resolved!r} in demo {name!r}:", file=out)
    print(file=out)
    for subject_name in subjects:
        try:
            decomposition = report.why(resolved, subject_name)
        except RiskError as error:
            raise _Exit(1, f"error: {error}") from None
        print(decomposition.render(), file=out)
        print(file=out)
    return 0


def _explain(args, out) -> int:
    """``explain NAME --entity E``: causal chains behind E's knowledge."""
    from repro.obs.provenance import ProvenanceError

    if args.risk:
        return _risk_explain(args, out)
    if args.breach:
        return _breach_explain(args, out)
    if not args.entity:
        raise _Exit(2, "explain requires --entity (or --breach)")
    name, fact = args.name, args.fact
    _, _, graph = _traced_run(name, args.faults)
    resolved = _resolve_entity(graph, args.entity, name)
    try:
        chains = graph.why(resolved, fact, subject=args.subject)
    except ProvenanceError as error:
        raise _Exit(1, f"error: {error}") from None
    what = f"fact {fact!r}" if fact is not None else "every sensitive fact"
    print(f"why {resolved!r} holds {what} in demo {name!r}:", file=out)
    print(file=out)
    for chain in chains:
        print(chain.render(), file=out)
        print(file=out)
    return 0


def _timeline(args, out) -> int:
    """``timeline NAME``: when each entity's knowledge tuple grew."""
    _, _, graph = _traced_run(args.name, args.faults)
    from repro.obs import provenance

    events = graph.knowledge_timeline()
    print(
        f"knowledge timeline of demo {args.name!r} ({len(events)} growth steps):",
        file=out,
    )
    print(provenance.render_timeline(events), file=out)
    return 0


def _demo(args, out) -> int:
    _check_demo(args.name)
    run = run_scenario(args.name, faults=args.faults)
    if args.json:
        from repro.core.serialize import scenario_run_to_dict

        _print_json(scenario_run_to_dict(run), out)
        return 0
    print(run.table().render(), file=out)
    print(run.analyzer.verdict(), file=out)
    coalitions = run.analyzer.minimal_recoupling_coalitions()
    print(
        "minimal re-coupling coalitions:",
        [sorted(c) for c in coalitions] if coalitions else "none possible",
        file=out,
    )
    for report in run.analyzer.breach_reports():
        status = "breach-proof" if report.breach_proof else "EXPOSED"
        print(f"breach of {report.organization}: {status}", file=out)
    _print_fault_summary(run, out)
    print(file=out)
    for entity_name in run.table().entities():
        print(run.analyzer.explain(entity_name, max_items=6), file=out)
    return 0


def _print_fault_summary(run, out) -> None:
    """The fault-injection section of a faulted ``demo`` run's output."""
    summary = getattr(run, "fault_summary", None)
    if summary is None:
        return
    stats = summary["stats"]
    network = summary["network"]
    print("fault injection:", file=out)
    print(
        f"  packets: sent={network['packets_sent']}"
        f" delivered={network['packets_delivered']}"
        f" dropped={network['packets_dropped']}"
        f" duplicated={network['packets_duplicated']}",
        file=out,
    )
    print(
        f"  attempts={stats['attempts']} retries={stats['retries']}"
        f" timeouts={stats['timeouts']} fallbacks={stats['fallbacks']}"
        f" failures={stats['failures']}",
        file=out,
    )
    for label in stats["fallback_labels"]:
        print(f"  fallback taken: {label}", file=out)
    for error in stats["phase_errors"]:
        print(f"  phase error: {error}", file=out)


def _demos(args, out) -> int:
    """``demos``: every registered scenario, with schema and provenance."""
    for spec in all_specs():
        experiment = f"  [{spec.experiment_id}]" if spec.experiment_id else ""
        print(f"{spec.id:<16} {spec.title}{experiment}", file=out)
        for param in spec.params:
            doc = f"  -- {param.doc}" if param.doc else ""
            print(f"    {param.name}={param.default!r}{doc}", file=out)
    return 0


def _list(args, out) -> int:
    for name in _spec_ids():
        print(name, file=out)
    return 0


# ----------------------------------------------------------------------
# the series verbs: resilience / risk / scale / privcount
# ----------------------------------------------------------------------


def _print_resilience(points, seed: int, out) -> None:
    """Render the R-series table: delivery and verdict stability."""
    print(
        f"R-series: decoupling verdicts under failure"
        f" (uniform loss ramp, seed={seed})",
        file=out,
    )
    header = (
        f"  {'scenario':<16} {'rate':>5} {'delivery':>9} {'verdict':<14}"
        f" {'stable':<7} {'fallbacks':>9} {'failures':>8} {'errors':>6}"
    )
    print(header, file=out)
    for point in points:
        verdict = "DECOUPLED" if point.decoupled else "NOT DECOUPLED"
        print(
            f"  {point.scenario:<16} {point.rate:>5.2f}"
            f" {point.delivery_rate:>9.3f} {verdict:<14}"
            f" {'yes' if point.verdict_stable else 'NO':<7}"
            f" {point.fallbacks:>9} {point.failures:>8} {point.phase_errors:>6}",
            file=out,
        )
    flips = [p for p in points if not p.verdict_stable]
    stable = len(points) - len(flips)
    print(file=out)
    print(
        f"  {stable}/{len(points)} points kept their fault-free verdict;"
        f" {len(flips)} fault-induced verdict flip(s)"
        + (
            ": " + ", ".join(f"{p.scenario}@{p.rate:.2f}" for p in flips)
            if flips
            else ""
        ),
        file=out,
    )
    print(file=out)


def _resilience(args, out) -> int:
    """``resilience``: the R-series sweep over the scenario registry."""
    scenario_ids = _scenario_ids(args.scenarios)
    try:
        rates = tuple(float(r) for r in args.rates.split(","))
    except ValueError:
        raise _Exit(
            2, f"invalid --rates {args.rates!r}: expected comma-separated floats"
        ) from None
    points = harness.resilience_sweep(
        rates=rates, scenario_ids=scenario_ids, seed=args.seed, jobs=args.jobs
    )
    document = {
        "series": "R",
        "seed": args.seed,
        "rates": list(rates),
        "points": [point.to_dict() for point in points],
        "verdict_flips": [
            {"scenario": p.scenario, "rate": p.rate}
            for p in points
            if not p.verdict_stable
        ],
    }
    return _emit(
        args,
        out,
        document,
        f"resilience sweep: {len(points)} points",
        functools.partial(_print_resilience, points, args.seed),
    )


def _risk_document(summaries, sweeps, profile, deltas=None) -> Dict[str, object]:
    """The G-series as a machine-readable document."""
    document: Dict[str, object] = {
        "series": "G",
        "profile": profile.to_dict(),
        "scenarios": [summary.to_dict() for summary in summaries],
    }
    if sweeps is not None:
        titles = {key: title for key, title, *_rest in harness.RISK_SWEEPS}
        document["sweeps"] = {
            key: {
                "title": titles.get(key, key),
                "points": [point.to_dict() for point in points],
                "monotone_non_increasing": harness.risk_monotone_non_increasing(
                    points
                ),
                "diminishing_returns": harness.risk_diminishing_returns(points),
            }
            for key, points in sweeps.items()
        }
    if deltas is not None:
        document["fault_deltas"] = deltas
    return document


def _print_risk(summaries, sweeps, profile, out, deltas=None) -> None:
    """Render the G-series: per-scenario risk plus degree curves."""
    print(
        f"G-series: graded decoupling risk (profile {profile.name!r}:"
        f" sensitivity {profile.w_sensitivity:g},"
        f" linkability {profile.w_linkability:g},"
        f" inferability {profile.w_inferability:g})",
        file=out,
    )
    print(
        f"  {'scenario':<16} {'grade':<10} {'system':>7} {'max pair':>9}"
        f" {'mean':>7} {'coupled':>8} {'resist':>7}  riskiest pair",
        file=out,
    )
    for summary in summaries:
        riskiest = (
            f"{summary.max_pair_entity} -> {summary.max_pair_subject}"
            if summary.max_pair_entity
            else "-"
        )
        print(
            f"  {summary.scenario:<16} {summary.grade:<10}"
            f" {summary.system_risk:>7.4f} {summary.max_pair_risk:>9.4f}"
            f" {summary.mean_pair_risk:>7.4f} {summary.coupled_pairs:>8}"
            f" {summary.collusion_resistance:>7}  {riskiest}",
            file=out,
        )
    print(file=out)
    if sweeps:
        titles = {key: title for key, title, *_rest in harness.RISK_SWEEPS}
        for key, points in sweeps.items():
            print(titles.get(key, key), file=out)
            print(
                f"  {'degree':>6} {'resist':>7} {'system':>7}"
                f" {'max pair':>9} {'mean':>7} {'coupled':>8}",
                file=out,
            )
            for point in points:
                print(
                    f"  {point.degree:>6} {point.collusion_resistance:>7}"
                    f" {point.system_risk:>7.4f} {point.max_pair_risk:>9.4f}"
                    f" {point.mean_pair_risk:>7.4f} {point.coupled_pairs:>8}",
                    file=out,
                )
            monotone = harness.risk_monotone_non_increasing(points)
            diminishing = harness.risk_diminishing_returns(points)
            print(
                f"  monotone non-increasing: {'yes' if monotone else 'NO'};"
                f" diminishing returns: {'yes' if diminishing else 'NO'}",
                file=out,
            )
            print(file=out)
    if deltas is not None:
        print("risk under faults:", file=out)
        for delta in deltas:
            sign = "+" if delta["system_risk_delta"] >= 0 else ""
            print(
                f"  {delta['scenario']}: system"
                f" {delta['baseline_system_risk']:.4f} ->"
                f" {delta['faulted_system_risk']:.4f}"
                f" ({sign}{delta['system_risk_delta']:.4f}),"
                f" fallbacks={delta['fallbacks']}"
                f" failures={delta['failures']}",
                file=out,
            )
            for pair in delta["pair_deltas"]:
                pair_sign = "+" if pair["delta"] >= 0 else ""
                print(
                    f"    {pair['entity']} / {pair['subject']}:"
                    f" {pair['before']:.4f} -> {pair['after']:.4f}"
                    f" ({pair_sign}{pair['delta']:.4f})",
                    file=out,
                )
        print(file=out)


def _risk(args, out) -> int:
    """``risk``: the G-series over the scenario registry."""
    profile = _load_sensitivity_profile(args.profile_path)
    scenario_ids = _scenario_ids(args.scenarios)
    summaries = harness.risk_summaries(
        jobs=args.jobs, scenario_ids=scenario_ids, profile=profile
    )
    # The degree sweeps belong to the full G-series document; a
    # --scenarios subset is a focused query, so they are skipped.
    sweeps = (
        harness.risk_sweep(jobs=args.jobs, profile=profile)
        if scenario_ids is None
        else None
    )
    deltas = None
    if args.faults is not None:
        ids = scenario_ids or [summary.scenario for summary in summaries]
        deltas = [
            harness.risk_delta(scenario_id, args.faults, profile)
            for scenario_id in ids
        ]
    return _emit(
        args,
        out,
        _risk_document(summaries, sweeps, profile, deltas),
        f"risk report: {len(summaries)} scenarios",
        functools.partial(_print_risk, summaries, sweeps, profile, deltas=deltas),
    )


def _print_scale(points, out) -> None:
    print(
        "T-series ledger ingest: streaming analysis at population scale",
        file=out,
    )
    for point in points:
        status = "ok" if point.mid_run_matches else "MISMATCH"
        print(
            f"  {point.users:>9} users  {point.observations:>10} obs"
            f"  {point.observations_per_second:>9.0f} ingest obs/s"
            f"  rss {point.peak_rss_mb:7.1f} MiB"
            f"  cr={point.collusion_resistance}"
            f"  mid-run {status}",
            file=out,
        )


def _scale(args, out) -> int:
    """``scale``: the T-series streaming-scale workload."""
    from repro.population.workload import check_scale_workload

    (user_counts,) = _count_grids("scale", ("users", args.users))
    if args.observations is not None:
        _check_point(check_scale_workload, args.observations)
    points = harness.scale_sweep(
        user_counts,
        args.observations,
        seed=args.seed,
        segment_rows=args.segment_rows,
        spill=not args.no_spill,
        checkpoints=max(args.checkpoints, 1),
        jobs=args.jobs,
    )
    document = {
        "series": "T",
        "title": "ledger ingest: streaming ledger + population engine scale points",
        "points": [point.to_dict() for point in points],
    }
    return _emit(
        args,
        out,
        document,
        f"scale report: {len(points)} points",
        functools.partial(_print_scale, points),
        ok=all(point.mid_run_matches for point in points),
    )


def _print_privcount(points, out) -> None:
    print("P-series: reconstruction threshold vs coalition size", file=out)
    print(
        "  collectors  keepers  threshold  expected  system_risk", file=out
    )
    for point in points:
        status = "ok" if point.threshold_matches else "MISMATCH"
        print(
            f"  {point.collectors:>10}  {point.share_keepers:>7}"
            f"  {point.reconstruction_threshold:>9}"
            f"  {point.share_keepers + 1:>8}"
            f"  {point.system_risk:>11.4f}  {status}",
            file=out,
        )


def _privcount(args, out) -> int:
    """``privcount``: the P-series reconstruction-threshold sweep."""
    collectors, share_keepers = _count_grids(
        "privcount",
        ("collectors", args.collectors),
        ("share-keepers", args.share_keepers),
    )
    spec = get_spec("privcount")
    for count in collectors:
        for keepers in share_keepers:
            # Building the program runs the scenario's own ``validate``.
            params = dict(collectors=count, share_keepers=keepers, users=args.users)
            _check_point(spec.program, spec, spec.bind(params))
    points = harness.privcount_sweep(
        collectors=collectors,
        share_keepers=share_keepers,
        users=args.users,
        jobs=args.jobs,
    )
    document = {
        "series": "P",
        "title": "PrivCount reconstruction threshold vs deployment shape",
        "points": [point.to_dict() for point in points],
    }
    return _emit(
        args,
        out,
        document,
        f"privcount report: {len(points)} points",
        functools.partial(_print_privcount, points),
        ok=all(point.threshold_matches for point in points),
    )


# ----------------------------------------------------------------------
# the parser
# ----------------------------------------------------------------------

#: Flags and arguments several verbs share, declared once each.
_SHARED = {
    "name": (("name",), dict(help="system name (see `list`)")),
    "jobs": (
        ("--jobs",),
        dict(
            type=int,
            default=1,
            metavar="N",
            help="fan the runs across N worker processes",
        ),
    ),
    "json": (
        ("--json",),
        dict(action="store_true", help="emit a machine-readable document instead of text"),
    ),
    "out": (
        ("--out",),
        dict(
            default=None,
            dest="out_path",
            metavar="PATH",
            help="also write the JSON document to PATH",
        ),
    ),
    "faults": (
        ("--faults",),
        dict(
            default=None,
            metavar="PLAN",
            help="run under a JSON fault plan (see docs/ROBUSTNESS.md)",
        ),
    ),
    "scenarios": (
        ("--scenarios",),
        dict(
            default=None,
            help="comma-separated scenario ids (default: every registered spec)",
        ),
    ),
}


def _add_obs_args(parser, mode_help: str) -> None:
    """The shared ``--obs-mode`` / ``--obs-sample`` / ``--obs-seed`` trio."""
    from repro.obs.runtime import MODES

    parser.add_argument(
        "--obs-mode",
        default=None,
        choices=MODES,
        dest="obs_mode",
        help=mode_help,
    )
    parser.add_argument(
        "--obs-sample",
        type=float,
        default=None,
        dest="obs_sample",
        metavar="RATE",
        help="head-sampling rate for sampled mode (default: 0.01)",
    )
    parser.add_argument(
        "--obs-seed",
        type=int,
        default=None,
        dest="obs_seed",
        metavar="SEED",
        help="sampler seed for sampled mode (default: 0; same seed"
        " reproduces the same sampled span set)",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Decoupling Principle, made executable (HotNets '22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")

    def verb(name, handler, help, *shared):
        """Add verb ``name`` with its ``shared`` flags, dispatching to ``handler``."""
        verb_parser = sub.add_parser(name, help=help)
        for flag in shared:
            names, options = _SHARED[flag]
            verb_parser.add_argument(*names, **options)
        verb_parser.set_defaults(handler=handler)
        return verb_parser

    report = verb("report", _report, "regenerate every paper artifact", "json", "jobs")
    report.add_argument(
        "--trace",
        action="store_true",
        help="trace the runs and append a per-experiment timing/metrics section",
    )
    report.add_argument(
        "--risk",
        action="store_true",
        help="append the G-series graded-decoupling risk section",
    )
    verb("tables", _tables, "the T-series knowledge tables", "jobs")
    verb("figures", _figures, "the F-series flow figures")
    sweeps = verb("sweeps", _sweeps, "the D-series degree sweeps", "jobs")
    sweeps.add_argument(
        "--trace",
        action="store_true",
        help="trace the runs and append a per-sweep timing section",
    )
    verb("demo", _demo, "run one system's scenario", "name", "json", "faults")
    verb("demos", _demos, "list registered scenarios with titles and parameters")
    trace = verb(
        "trace",
        _trace,
        "run one demo with tracing on; export spans+metrics as JSONL",
        "name",
        "faults",
    )
    trace.add_argument(
        "--out",
        default="spans.jsonl",
        dest="out_path",
        help="JSONL output path (default: spans.jsonl)",
    )
    _add_obs_args(trace, "capture mode (default: full; REPRO_OBS_MODE overrides)")
    profile = verb(
        "profile",
        _profile,
        "time one demo phase-by-phase under an observability tier",
        "name",
        "json",
        "out",
    )
    _add_obs_args(profile, "observability tier to profile under (default: off)")
    profile.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="N",
        help="best-of-N per-phase timing (default: 1)",
    )
    profile.add_argument(
        "--trace-out",
        default=None,
        dest="trace_dir",
        metavar="DIR",
        help="stream spans to segmented JSONL files under DIR"
        " (bounded memory; see docs/OBSERVABILITY.md)",
    )
    explain = verb(
        "explain",
        _explain,
        "trace one demo and explain an entity's knowledge from the wire up",
        "name",
        "faults",
    )
    explain.add_argument(
        "--entity",
        default=None,
        help="entity whose knowledge to explain (case-insensitive; unique"
        " substring ok); required unless --breach",
    )
    explain.add_argument(
        "--subject",
        default=None,
        help="restrict to facts about one subject",
    )
    explain.add_argument(
        "--fact",
        default=None,
        help="a glyph (▲, ●, ⊙/●), kind/facet word, or description substring"
        " (default: every sensitive fact)",
    )
    explain.add_argument(
        "--breach",
        action="store_true",
        help="explain analyzer breaches instead: the identity and data"
        " chains that meet at each breached organization"
        " (--entity then filters by organization)",
    )
    explain.add_argument(
        "--risk",
        action="store_true",
        help="print the entity's per-pair risk decomposition instead:"
        " sub-score terms pinned to provenance chains (see docs/RISK.md)",
    )
    verb(
        "timeline",
        _timeline,
        "trace one demo and print its knowledge-growth timeline",
        "name",
        "faults",
    )
    resilience = verb(
        "resilience",
        _resilience,
        "R-series: delivery and verdict stability under a fault-rate ramp",
        "scenarios",
        "jobs",
        "json",
        "out",
    )
    rates = ",".join(str(r) for r in harness.DEFAULT_RESILIENCE_RATES)
    resilience.add_argument(
        "--rates",
        default=rates,
        help=f"comma-separated uniform loss rates (default: {rates})",
    )
    resilience.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    risk = verb(
        "risk",
        _risk,
        "G-series: graded decoupling risk scores and degree sweeps",
        "scenarios",
        "jobs",
        "json",
        "out",
        "faults",
    )
    risk.add_argument(
        "--profile",
        default=None,
        dest="profile_path",
        metavar="PATH",
        help="JSON sensitivity profile (default: the built-in weights)",
    )
    scale = verb(
        "scale",
        _scale,
        "T-series ledger ingest: streaming analysis at population scale",
        "jobs",
        "json",
        "out",
    )
    scale.add_argument(
        "--users",
        default="10000",
        metavar="N[,N...]",
        help="population size; a comma-separated list runs a sweep",
    )
    scale.add_argument(
        "--observations",
        type=int,
        default=None,
        metavar="N",
        help="ledger rows to ingest (default: 10 per user)",
    )
    scale.add_argument(
        "--segment-rows",
        type=int,
        default=65_536,
        metavar="N",
        help="rows per ledger segment before sealing",
    )
    scale.add_argument(
        "--no-spill",
        action="store_true",
        help="keep sealed segments resident instead of spilling to disk",
    )
    scale.add_argument(
        "--checkpoints",
        type=int,
        default=8,
        metavar="N",
        help="mid-run verdict checkpoints verified against a full scan",
    )
    scale.add_argument("--seed", type=int, default=7, help="population seed")
    privcount = verb(
        "privcount",
        _privcount,
        "P-series: reconstruction threshold vs deployment shape",
        "jobs",
        "json",
        "out",
    )
    privcount.add_argument(
        "--collectors",
        default="1,2,3",
        metavar="N[,N...]",
        help="data-collector counts to sweep",
    )
    privcount.add_argument(
        "--share-keepers",
        default="2,3,4",
        metavar="N[,N...]",
        help="share-keeper counts to sweep",
    )
    privcount.add_argument(
        "--users",
        type=int,
        default=6,
        metavar="N",
        help="measured users per point",
    )
    verb("list", _list, "list available demos")
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(out)
        return 2
    if hasattr(args, "jobs"):
        args.jobs = max(args.jobs, 1)
    try:
        if hasattr(args, "faults"):
            args.faults = _load_fault_plan(args.faults) if args.faults else None
        return args.handler(args, out)
    except _Exit as error:
        print(error.message, file=out)
        return error.code
