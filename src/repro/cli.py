"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``      -- regenerate every paper artifact, paper vs measured
  (``--trace`` appends a per-experiment timing/metrics section,
  ``--json`` emits the machine-readable equivalent, ``--jobs N`` fans
  experiments and sweeps across N worker processes with output
  identical to a serial run)
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
* ``list``        -- list the available demos

``demo``, ``trace``, ``explain``, and ``timeline`` all accept
``--faults plan.json``; ``report --risk`` appends the G-series risk
section and ``explain NAME --entity E --risk`` prints the per-pair
risk decomposition (sub-score terms pinned to provenance chains).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Dict, List, Optional

from repro import harness, obs
from repro.obs import export as obs_export
from repro.scenario import all_specs, experiment_specs, run_scenario


__all__ = ["main"]

#: Back-compat view of the scenario registry: demo name -> runner.
#: Populated by :func:`_register_demos`; both survive from the
#: pre-registry CLI because tests and downstream scripts import them.
_DEMOS: Dict[str, Callable[[], object]] = {}


def _register_demos() -> None:
    """Populate :data:`_DEMOS` from the scenario registry."""
    for spec in all_specs():
        _DEMOS.setdefault(spec.id, functools.partial(run_scenario, spec.id))


def _resolve_demo(name: str, out, faults=None):
    """The runner registered under ``name``, or ``None`` (with a hint).

    ``faults`` (a :class:`repro.faults.FaultPlan`) rebinds the runner
    to carry the plan into :func:`run_scenario`.
    """
    _register_demos()
    runner = _DEMOS.get(name)
    if runner is None:
        print(f"unknown demo {name!r}; try: {', '.join(sorted(_DEMOS))}", file=out)
        return None
    if faults is not None:
        return functools.partial(run_scenario, name, faults=faults)
    return runner


def _load_fault_plan(path: str, out):
    """Parse a JSON fault-plan file; ``None`` (with a message) on error."""
    from repro.faults import FaultPlan, FaultPlanError

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        print(f"cannot read fault plan {path!r}: {error}", file=out)
        return None
    try:
        return FaultPlan.from_json(text)
    except FaultPlanError as error:
        print(f"invalid fault plan {path!r}: {error}", file=out)
        return None


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


def _print_tables(out, jobs: int = 1) -> bool:
    return _print_table_summaries(harness.table_summaries(jobs=jobs), out)


def _print_figures(out) -> None:
    print("F1: mix-net decoupling flow (paper Figure 1)", file=out)
    for step in harness.figure_f1_series():
        print(" ", step.render(), file=out)
    print(file=out)
    print("F2: Privacy Pass decoupling flow (paper Figure 2)", file=out)
    for step in harness.figure_f2_series():
        print(" ", step.render(), file=out)
    print(file=out)


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


def _sweep_payload_map(results) -> Dict[str, object]:
    return {result.key: result.payload for result in results}


def _print_sweeps(out, jobs: int = 1) -> None:
    _print_sweep_payloads(
        _sweep_payload_map(harness.sweep_results(jobs=jobs)), out
    )


def _spans_per_experiment(tracer) -> Dict[int, int]:
    """Descendant-span counts keyed by experiment span id."""
    from repro.obs import analyze

    return analyze.descendant_counts(
        tracer.spans,
        [span.span_id for span in tracer.by_name("experiment")],
    )


def _print_trace_section(tracer, registry, out) -> None:
    """The per-experiment timing/metrics section behind ``--trace``."""
    print("Per-experiment timing / metrics (tracing enabled)", file=out)
    counts = _spans_per_experiment(tracer)
    for span in tracer.by_name("experiment"):
        attrs = span.attributes
        wall_ms = (span.wall_seconds or 0.0) * 1000.0
        sim = span.sim_duration or 0.0
        print(
            f"  {attrs.get('experiment', '?'):<4}"
            f" {attrs.get('title', '')[:42]:<42}"
            f" wall={wall_ms:8.2f}ms sim={sim:8.4f}s"
            f" spans={counts.get(span.span_id, 0):>4}"
            f" events={attrs.get('events', '-'):>5}"
            f" messages={attrs.get('messages', '-'):>4}"
            f" bytes={attrs.get('bytes', '-'):>7}"
            f" observations={attrs.get('observations', '-'):>4}",
            file=out,
        )
    print(
        f"  totals: spans={len(tracer.spans)}"
        f" events={registry.counter_value('sim.events')}"
        f" messages={registry.counter_value('net.messages')}"
        f" dropped={registry.counter_value('net.packets_dropped')}"
        f" bytes={registry.counter_value('net.bytes')}"
        f" observations={registry.counter_value('ledger.observations')}",
        file=out,
    )
    print(file=out)


def _print_sweep_trace_section(tracer, registry, out) -> None:
    points = tracer.by_name("sweep-point")
    by_sweep: Dict[str, list] = {}
    for span in points:
        by_sweep.setdefault(str(span.attributes.get("sweep", "?")), []).append(span)
    print("Per-sweep timing (tracing enabled)", file=out)
    for sweep in sorted(by_sweep):
        spans = by_sweep[sweep]
        wall_ms = sum((s.wall_seconds or 0.0) for s in spans) * 1000.0
        print(
            f"  {sweep}: points={len(spans)} wall={wall_ms:.2f}ms",
            file=out,
        )
    print(
        f"  totals: events={registry.counter_value('sim.events')}"
        f" messages={registry.counter_value('net.messages')}"
        f" dropped={registry.counter_value('net.packets_dropped')}"
        f" bytes={registry.counter_value('net.bytes')}",
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


def _fold_counters(parts) -> Dict[str, int]:
    """Sum per-worker counter snapshots into one totals mapping."""
    totals: Dict[str, int] = {}
    for part in parts:
        for name, value in part.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _print_folded_trace_section(summaries, sweep_results, out) -> None:
    """The ``--trace`` section for parallel runs.

    Worker processes cannot append to the parent's tracer, so each
    worker captures locally and returns wall time, span counts, and
    counter snapshots; this prints the same per-experiment rows as the
    serial section from those folded metrics (figures, which run in the
    parent untraced, are not included in the totals).
    """
    print("Per-experiment timing / metrics (folded from worker traces)", file=out)
    for summary in summaries:
        print(
            f"  {summary.experiment_id:<4}"
            f" {summary.title[:42]:<42}"
            f" wall={summary.wall_ms:8.2f}ms sim={summary.sim_seconds or 0.0:8.4f}s"
            f" spans={summary.spans:>4}"
            f" events={summary.events if summary.events is not None else '-':>5}"
            f" messages={summary.messages if summary.messages is not None else '-':>4}"
            f" bytes={summary.bytes if summary.bytes is not None else '-':>7}"
            f" observations={summary.observations:>4}",
            file=out,
        )
    totals = _fold_counters([*summaries, *sweep_results])
    spans = sum(s.spans + 1 for s in summaries)
    print(
        f"  totals: spans={spans}"
        f" events={totals.get('sim.events', 0)}"
        f" messages={totals.get('net.messages', 0)}"
        f" dropped={totals.get('net.packets_dropped', 0)}"
        f" bytes={totals.get('net.bytes', 0)}"
        f" observations={totals.get('ledger.observations', 0)}",
        file=out,
    )
    print(file=out)


def _print_folded_sweep_trace_section(sweep_results, out) -> None:
    """``sweeps --trace --jobs N``: per-sweep timing from worker metrics."""
    by_sweep: Dict[str, list] = {}
    for result in sweep_results:
        # D3u/D3p are halves of the paper's D3; fold them back together
        # so the section keys match the serial (span-derived) one.
        key = "D3" if result.key.startswith("D3") else result.key
        by_sweep.setdefault(key, []).append(result)
    print("Per-sweep timing (folded from worker traces)", file=out)
    for sweep in sorted(by_sweep):
        parts = by_sweep[sweep]
        wall_ms = sum(part.wall_ms for part in parts)
        points = sum(part.points for part in parts)
        print(f"  {sweep}: points={points} wall={wall_ms:.2f}ms", file=out)
    totals = _fold_counters(sweep_results)
    print(
        f"  totals: events={totals.get('sim.events', 0)}"
        f" messages={totals.get('net.messages', 0)}"
        f" dropped={totals.get('net.packets_dropped', 0)}"
        f" bytes={totals.get('net.bytes', 0)}",
        file=out,
    )
    print(file=out)


def _experiment_timing_rows(tracer) -> list:
    counts = _spans_per_experiment(tracer)
    rows = []
    for span in tracer.by_name("experiment"):
        attrs = span.attributes
        rows.append(
            {
                "experiment_id": attrs.get("experiment"),
                "wall_ms": (span.wall_seconds or 0.0) * 1000.0,
                "sim_seconds": span.sim_duration,
                "spans": counts.get(span.span_id, 0),
                "events": attrs.get("events"),
                "messages": attrs.get("messages"),
                "bytes": attrs.get("bytes"),
                "observations": attrs.get("observations"),
            }
        )
    return rows


def _report_json(out, trace: bool = False, jobs: int = 1, risk: bool = False) -> int:
    """``report --json``: machine-readable tables, sweeps, figures."""
    from repro.core.serialize import degree_sweep_to_dict, experiment_report_to_dict

    def build():
        all_match = True
        experiments = []
        summaries = harness.table_summaries(jobs=jobs)
        for summary in summaries:
            row = experiment_report_to_dict(summary.report)
            row["verdict_decoupled"] = summary.verdict_decoupled
            row["grade"] = summary.grade
            row["observations"] = summary.observations
            if summary.sim_seconds is not None:
                row["sim_seconds"] = summary.sim_seconds
                row["events"] = summary.events
                row["messages"] = summary.messages
                row["bytes"] = summary.bytes
            experiments.append(row)
            all_match &= summary.report.matches
        sweep_results = harness.sweep_results(jobs=jobs)
        payloads = _sweep_payload_map(sweep_results)
        document = {
            "experiments": experiments,
            "figures": {
                "F1": [step.render() for step in harness.figure_f1_series()],
                "F2": [step.render() for step in harness.figure_f2_series()],
            },
            "sweeps": {
                "D1": degree_sweep_to_dict(payloads["D1"]),
                "D2": degree_sweep_to_dict(payloads["D2"]),
                "D3": {
                    "unpadded": payloads["D3u"],
                    "padded": payloads["D3p"],
                },
                "D4": payloads["D4"],
                "D5": payloads["D5"],
                "D6": payloads["D6"],
            },
        }
        return all_match, document, summaries, sweep_results

    if trace and jobs <= 1:
        with obs.capture() as (tracer, registry):
            all_match, document, _, _ = build()
        document["timing"] = _experiment_timing_rows(tracer)
        document["metrics"] = registry.snapshot()
    elif trace:
        all_match, document, summaries, sweep_results = build()
        document["timing"] = [
            {
                "experiment_id": s.experiment_id,
                "wall_ms": s.wall_ms,
                "sim_seconds": s.sim_seconds,
                "spans": s.spans,
                "events": s.events,
                "messages": s.messages,
                "bytes": s.bytes,
                "observations": s.observations,
            }
            for s in summaries
        ]
        document["metrics"] = [
            {"type": "counter", "name": name, "value": value}
            for name, value in sorted(
                _fold_counters([*summaries, *sweep_results]).items()
            )
        ]
    else:
        all_match, document, _, _ = build()
    if risk:
        from repro.risk import DEFAULT_PROFILE

        document["risk"] = _risk_document(
            harness.risk_summaries(
                jobs=jobs,
                scenario_ids=[spec.id for spec in experiment_specs()],
            ),
            harness.risk_sweep(jobs=jobs),
            DEFAULT_PROFILE,
        )
    document["all_match"] = all_match
    json.dump(document, out, ensure_ascii=False, indent=2)
    print(file=out)
    return 0 if all_match else 1


def _obs_sampler(mode, sample, seed):
    """The CLI-configured span sampler; ``None`` outside sampled mode."""
    if mode != "sampled":
        return None
    from repro.obs.runtime import DEFAULT_SAMPLE_RATE

    return obs.SpanSampler(
        rate=DEFAULT_SAMPLE_RATE if sample is None else sample,
        seed=0 if seed is None else seed,
    )


def _run_trace(
    name: str,
    out_path: str,
    out,
    faults=None,
    mode=None,
    sample=None,
    seed=None,
) -> int:
    """``trace NAME``: one traced demo run, exported as JSONL."""
    runner = _resolve_demo(name, out, faults=faults)
    if runner is None:
        return 2
    sampler = _obs_sampler(mode, sample, seed)
    with obs.capture(mode=mode, sampler=sampler) as (tracer, registry):
        with tracer.span("demo", kind="demo", sim_time=0.0, demo=name) as root:
            run = runner()
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
        print(f"cannot write {out_path}: {error}", file=out)
        return 1
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


def _run_profile(
    name: str,
    out,
    mode: str = "off",
    sample=None,
    seed=None,
    repeats: int = 1,
    as_json: bool = False,
    out_path: Optional[str] = None,
    trace_dir: Optional[str] = None,
) -> int:
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
    from repro.scenario.spec import ScenarioError, get_spec

    try:
        spec = get_spec(name)
    except ScenarioError as error:
        print(error, file=out)
        return 2
    sampler = _obs_sampler(mode, sample, seed)
    best: Dict[str, float] = {}
    document: Dict[str, object] = {}
    for _repeat in range(max(repeats, 1)):
        run_sampler = sampler.fresh() if sampler is not None else None
        writer = (
            obs_export.StreamingWriter(trace_dir, ring=32)
            if trace_dir is not None
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
        network = getattr(program, "network", None)
        document = {
            "scenario": name,
            "obs_mode": mode,
            "repeats": max(repeats, 1),
            "phase_ms": {phase: round(best[phase], 3) for phase in PHASES},
            "total_ms": round(sum(best.values()), 3),
            "events": registry.counter_value("sim.events"),
            "messages": registry.counter_value("net.messages"),
            "bytes": registry.counter_value("net.bytes"),
            "observations": registry.counter_value("ledger.observations"),
            "fast_deliveries": (
                network.fast_deliveries if network is not None else 0
            ),
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
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, ensure_ascii=False, indent=2)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write {out_path}: {error}", file=out)
            return 1
    if as_json:
        json.dump(document, out, ensure_ascii=False, indent=2)
        print(file=out)
        return 0
    print(f"profile {name!r} (obs-mode={mode}, repeats={max(repeats, 1)})", file=out)
    for phase in ("build", "drive", "settle", "analyze"):
        print(f"  {phase:<8} {document['phase_ms'][phase]:>10.3f}ms", file=out)
    print(f"  {'total':<8} {document['total_ms']:>10.3f}ms", file=out)
    print(
        f"  events={document['events']}"
        f" messages={document['messages']}"
        f" bytes={document['bytes']}"
        f" observations={document['observations']}"
        f" fast_deliveries={document['fast_deliveries']}"
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


def _resolve_entity(graph, requested: str):
    """Exact, then case-insensitive, then unique-substring match."""
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
    return None


def _traced_run(name: str, out, faults=None):
    """Run one demo under capture; (run, tracer, graph) or None."""
    runner = _resolve_demo(name, out, faults=faults)
    if runner is None:
        return None
    from repro.obs import provenance

    with obs.capture() as (tracer, _registry):
        run = runner()
    return run, tracer, provenance.build_provenance(run, tracer)


def _run_breach_explain(name: str, entity, out, faults=None) -> int:
    """``explain NAME --breach``: identity+data chains behind breaches.

    For every organization whose single-party breach couples a subject
    (no re-coupling coalition needed), render the provenance chains --
    how the identity fact and the data fact each reached it, and the
    shared link that couples them.  Under ``--faults`` this is how a
    fallback-induced breach is attributed to the degraded path.
    """
    traced = _traced_run(name, out, faults=faults)
    if traced is None:
        return 2
    run, _, graph = traced
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


def _run_explain(name: str, entity: str, subject, fact, out, faults=None) -> int:
    """``explain NAME --entity E``: causal chains behind E's knowledge."""
    from repro.obs.provenance import ProvenanceError

    traced = _traced_run(name, out, faults=faults)
    if traced is None:
        return 2
    _, _, graph = traced
    resolved = _resolve_entity(graph, entity)
    if resolved is None:
        print(
            f"unknown entity {entity!r} in demo {name!r};"
            f" entities: {', '.join(graph.entities())}",
            file=out,
        )
        return 2
    try:
        chains = graph.why(resolved, fact, subject=subject)
    except ProvenanceError as error:
        print(f"error: {error}", file=out)
        return 1
    what = f"fact {fact!r}" if fact is not None else "every sensitive fact"
    print(f"why {resolved!r} holds {what} in demo {name!r}:", file=out)
    print(file=out)
    for chain in chains:
        print(chain.render(), file=out)
        print(file=out)
    return 0


def _run_timeline(name: str, out, faults=None) -> int:
    """``timeline NAME``: when each entity's knowledge tuple grew."""
    traced = _traced_run(name, out, faults=faults)
    if traced is None:
        return 2
    _, _, graph = traced
    from repro.obs import provenance

    events = graph.knowledge_timeline()
    print(f"knowledge timeline of demo {name!r} ({len(events)} growth steps):", file=out)
    print(provenance.render_timeline(events), file=out)
    return 0


def _run_demo(name: str, out, as_json: bool = False, faults=None) -> int:
    runner = _resolve_demo(name, out, faults=faults)
    if runner is None:
        return 2
    run = runner()
    if as_json:
        from repro.core.serialize import scenario_run_to_dict

        json.dump(scenario_run_to_dict(run), out, ensure_ascii=False, indent=2)
        print(file=out)
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


def _resilience_document(points, rates, seed: int) -> Dict[str, object]:
    """The R-series sweep as a machine-readable document."""
    return {
        "series": "R",
        "seed": seed,
        "rates": list(rates),
        "points": [point.to_dict() for point in points],
        "verdict_flips": [
            {"scenario": p.scenario, "rate": p.rate}
            for p in points
            if not p.verdict_stable
        ],
    }


def _print_resilience(points, rates, seed: int, out) -> None:
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


def _run_resilience(
    out,
    rates,
    scenarios,
    seed: int,
    jobs: int,
    as_json: bool,
    out_path,
) -> int:
    """``resilience``: the R-series sweep over the scenario registry."""
    scenario_ids = None
    if scenarios:
        _register_demos()
        scenario_ids = [name.strip() for name in scenarios.split(",") if name.strip()]
        unknown = sorted(set(scenario_ids) - set(_DEMOS))
        if unknown:
            print(
                f"unknown scenario(s): {', '.join(unknown)};"
                f" try: {', '.join(sorted(_DEMOS))}",
                file=out,
            )
            return 2
    try:
        rate_values = tuple(float(r) for r in rates.split(","))
    except ValueError:
        print(f"invalid --rates {rates!r}: expected comma-separated floats", file=out)
        return 2
    points = harness.resilience_sweep(
        rates=rate_values, scenario_ids=scenario_ids, seed=seed, jobs=jobs
    )
    if out_path:
        document = _resilience_document(points, rate_values, seed)
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, ensure_ascii=False, indent=2)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write {out_path!r}: {error}", file=out)
            return 1
        print(f"resilience sweep: {len(points)} points -> {out_path}", file=out)
    if as_json:
        json.dump(_resilience_document(points, rate_values, seed), out,
                  ensure_ascii=False, indent=2)
        print(file=out)
    elif not out_path:
        _print_resilience(points, rate_values, seed, out)
    return 0


def _load_sensitivity_profile(path, out):
    """Load a JSON sensitivity profile; ``None`` on error, with a message.

    A missing ``path`` (no ``--profile``) returns the default profile.
    """
    from repro.risk import DEFAULT_PROFILE, ProfileError, load_profile

    if not path:
        return DEFAULT_PROFILE
    try:
        return load_profile(path)
    except OSError as error:
        print(f"cannot read profile {path!r}: {error}", file=out)
        return None
    except ProfileError as error:
        print(f"invalid profile {path!r}: {error}", file=out)
        return None


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


def _run_risk(
    out,
    scenarios,
    jobs: int,
    as_json: bool,
    out_path,
    faults_plan=None,
    profile_path=None,
) -> int:
    """``risk``: the G-series over the scenario registry."""
    profile = _load_sensitivity_profile(profile_path, out)
    if profile is None:
        return 2
    scenario_ids = None
    if scenarios:
        _register_demos()
        scenario_ids = [name.strip() for name in scenarios.split(",") if name.strip()]
        unknown = sorted(set(scenario_ids) - set(_DEMOS))
        if unknown:
            print(
                f"unknown scenario(s): {', '.join(unknown)};"
                f" try: {', '.join(sorted(_DEMOS))}",
                file=out,
            )
            return 2
    summaries = harness.risk_summaries(
        jobs=jobs, scenario_ids=scenario_ids, profile=profile
    )
    # The degree sweeps belong to the full G-series document; a
    # --scenarios subset is a focused query, so they are skipped.
    sweeps = harness.risk_sweep(jobs=jobs, profile=profile) if scenario_ids is None else None
    deltas = None
    if faults_plan is not None:
        ids = scenario_ids or [summary.scenario for summary in summaries]
        deltas = [
            harness.risk_delta(scenario_id, faults_plan, profile)
            for scenario_id in ids
        ]
    if out_path:
        document = _risk_document(summaries, sweeps, profile, deltas)
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, ensure_ascii=False, indent=2)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write {out_path!r}: {error}", file=out)
            return 1
        print(f"risk report: {len(summaries)} scenarios -> {out_path}", file=out)
    if as_json:
        json.dump(
            _risk_document(summaries, sweeps, profile, deltas),
            out,
            ensure_ascii=False,
            indent=2,
        )
        print(file=out)
    elif not out_path:
        _print_risk(summaries, sweeps, profile, out, deltas)
    return 0


def _scale_document(points) -> dict:
    return {
        "series": "T",
        "title": (
            "ledger ingest: streaming ledger + population engine scale points"
        ),
        "points": [point.to_dict() for point in points],
    }


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


def _run_scale(
    out,
    users,
    observations,
    jobs: int,
    segment_rows,
    spill: bool,
    checkpoints: int,
    seed: int,
    as_json: bool,
    out_path,
) -> int:
    """``scale``: the T-series streaming-scale workload."""
    user_counts = [int(n.strip()) for n in str(users).split(",") if n.strip()]
    if not user_counts:
        print("scale needs at least one --users count", file=out)
        return 2
    if len(user_counts) == 1:
        points = [
            harness.scale_point(
                user_counts[0],
                observations,
                seed=seed,
                segment_rows=segment_rows,
                spill=spill,
                checkpoints=checkpoints,
            )
        ]
    else:
        points = harness.scale_sweep(user_counts, seed=seed, jobs=jobs)
    document = _scale_document(points)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, ensure_ascii=False, indent=2)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write {out_path!r}: {error}", file=out)
            return 1
        print(f"scale report: {len(points)} points -> {out_path}", file=out)
    if as_json:
        json.dump(document, out, ensure_ascii=False, indent=2)
        print(file=out)
    elif not out_path:
        _print_scale(points, out)
    return 0 if all(point.mid_run_matches for point in points) else 1


def _privcount_document(points) -> dict:
    return {
        "series": "P",
        "title": "PrivCount reconstruction threshold vs deployment shape",
        "points": [point.to_dict() for point in points],
    }


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


def _run_privcount(
    out,
    collectors,
    share_keepers,
    users: int,
    jobs: int,
    as_json: bool,
    out_path,
) -> int:
    """``privcount``: the P-series reconstruction-threshold sweep."""

    def _parse_grid(text, label):
        counts = [int(n.strip()) for n in str(text).split(",") if n.strip()]
        if not counts:
            print(f"privcount needs at least one --{label} count", file=out)
            return None
        return counts

    collector_counts = _parse_grid(collectors, "collectors")
    keeper_counts = _parse_grid(share_keepers, "share-keepers")
    if collector_counts is None or keeper_counts is None:
        return 2
    points = harness.privcount_sweep(
        collectors=collector_counts,
        share_keepers=keeper_counts,
        users=users,
        jobs=jobs,
    )
    document = _privcount_document(points)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, ensure_ascii=False, indent=2)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write {out_path!r}: {error}", file=out)
            return 1
        print(
            f"privcount report: {len(points)} points -> {out_path}", file=out
        )
    if as_json:
        json.dump(document, out, ensure_ascii=False, indent=2)
        print(file=out)
    elif not out_path:
        _print_privcount(points, out)
    return 0 if all(point.threshold_matches for point in points) else 1


def _run_risk_explain(name: str, entity, subject, out, faults=None) -> int:
    """``explain NAME --entity E --risk``: per-pair risk decompositions."""
    from repro.risk import RiskError, score_run

    traced = _traced_run(name, out, faults=faults)
    if traced is None:
        return 2
    run, _, graph = traced
    if not entity:
        print("explain --risk requires --entity", file=out)
        return 2
    resolved = _resolve_entity(graph, entity)
    if resolved is None:
        print(
            f"unknown entity {entity!r} in demo {name!r};"
            f" entities: {', '.join(graph.entities())}",
            file=out,
        )
        return 2
    report = score_run(run, graph=graph)
    if subject is not None:
        subjects = [subject]
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
            print(f"error: {error}", file=out)
            return 1
        print(decomposition.render(), file=out)
        print(file=out)
    return 0


def _run_demos_listing(out) -> int:
    """``demos``: every registered scenario, with schema and provenance."""
    for spec in all_specs():
        experiment = f"  [{spec.experiment_id}]" if spec.experiment_id else ""
        print(f"{spec.id:<16} {spec.title}{experiment}", file=out)
        for param in spec.params:
            doc = f"  -- {param.doc}" if param.doc else ""
            print(f"    {param.name}={param.default!r}{doc}", file=out)
    return 0


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


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Decoupling Principle, made executable (HotNets '22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")
    report = sub.add_parser("report", help="regenerate every paper artifact")
    report.add_argument(
        "--trace",
        action="store_true",
        help="trace the runs and append a per-experiment timing/metrics section",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable table/sweep results instead of text",
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan experiments and sweeps across N worker processes",
    )
    report.add_argument(
        "--risk",
        action="store_true",
        help="append the G-series graded-decoupling risk section",
    )
    tables = sub.add_parser("tables", help="the T-series knowledge tables")
    tables.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan table experiments across N worker processes",
    )
    sub.add_parser("figures", help="the F-series flow figures")
    sweeps = sub.add_parser("sweeps", help="the D-series degree sweeps")
    sweeps.add_argument(
        "--trace",
        action="store_true",
        help="trace the runs and append a per-sweep timing section",
    )
    sweeps.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan D-series sweeps across N worker processes",
    )
    faults_kwargs = dict(
        default=None,
        metavar="PLAN",
        help="run under a JSON fault plan (see docs/ROBUSTNESS.md)",
    )
    demo = sub.add_parser("demo", help="run one system's scenario")
    demo.add_argument("name", help="system name (see `demos`)")
    demo.add_argument(
        "--json",
        action="store_true",
        help="emit the run as a machine-readable document",
    )
    demo.add_argument("--faults", **faults_kwargs)
    sub.add_parser(
        "demos", help="list registered scenarios with titles and parameters"
    )
    trace = sub.add_parser(
        "trace", help="run one demo with tracing on; export spans+metrics as JSONL"
    )
    trace.add_argument("name", help="system name (see `list`)")
    trace.add_argument(
        "--out",
        default="spans.jsonl",
        dest="out_path",
        help="JSONL output path (default: spans.jsonl)",
    )
    trace.add_argument("--faults", **faults_kwargs)
    _add_obs_args(trace, "capture mode (default: full; REPRO_OBS_MODE overrides)")
    profile = sub.add_parser(
        "profile",
        help="time one demo phase-by-phase under an observability tier",
    )
    profile.add_argument("name", help="system name (see `list`)")
    _add_obs_args(
        profile, "observability tier to profile under (default: off)"
    )
    profile.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="N",
        help="best-of-N per-phase timing (default: 1)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit the profile as a machine-readable document",
    )
    profile.add_argument(
        "--out",
        default=None,
        dest="out_path",
        metavar="PATH",
        help="also write the JSON document to PATH",
    )
    profile.add_argument(
        "--trace-out",
        default=None,
        dest="trace_dir",
        metavar="DIR",
        help="stream spans to segmented JSONL files under DIR"
        " (bounded memory; see docs/OBSERVABILITY.md)",
    )
    explain = sub.add_parser(
        "explain",
        help="trace one demo and explain an entity's knowledge from the wire up",
    )
    explain.add_argument("name", help="system name (see `list`)")
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
    explain.add_argument("--faults", **faults_kwargs)
    timeline = sub.add_parser(
        "timeline", help="trace one demo and print its knowledge-growth timeline"
    )
    timeline.add_argument("name", help="system name (see `list`)")
    timeline.add_argument("--faults", **faults_kwargs)
    resilience = sub.add_parser(
        "resilience",
        help="R-series: delivery and verdict stability under a fault-rate ramp",
    )
    resilience.add_argument(
        "--rates",
        default=",".join(str(r) for r in harness.DEFAULT_RESILIENCE_RATES),
        help="comma-separated uniform loss rates"
        f" (default: {','.join(str(r) for r in harness.DEFAULT_RESILIENCE_RATES)})",
    )
    resilience.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario ids (default: every registered spec)",
    )
    resilience.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    resilience.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan sweep cells across N worker processes",
    )
    resilience.add_argument(
        "--json",
        action="store_true",
        help="emit the sweep as a machine-readable document",
    )
    resilience.add_argument(
        "--out",
        default=None,
        dest="out_path",
        metavar="PATH",
        help="also write the JSON document to PATH",
    )
    risk = sub.add_parser(
        "risk",
        help="G-series: graded decoupling risk scores and degree sweeps",
    )
    risk.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario ids (default: every registered spec,"
        " plus the G1/G2 degree sweeps)",
    )
    risk.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan scenarios and sweep cells across N worker processes",
    )
    risk.add_argument(
        "--json",
        action="store_true",
        help="emit the risk report as a machine-readable document",
    )
    risk.add_argument(
        "--out",
        default=None,
        dest="out_path",
        metavar="PATH",
        help="also write the JSON document to PATH",
    )
    risk.add_argument(
        "--profile",
        default=None,
        dest="profile_path",
        metavar="PATH",
        help="JSON sensitivity profile (default: the built-in weights)",
    )
    risk.add_argument("--faults", **faults_kwargs)
    scale = sub.add_parser(
        "scale",
        help="T-series ledger ingest: streaming analysis at population scale",
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
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan sweep points across N worker processes",
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
    scale.add_argument(
        "--json",
        action="store_true",
        help="emit the scale report as a machine-readable document",
    )
    scale.add_argument(
        "--out",
        default=None,
        dest="out_path",
        metavar="PATH",
        help="also write the JSON document to PATH",
    )
    privcount = sub.add_parser(
        "privcount",
        help="P-series: reconstruction threshold vs deployment shape",
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
    privcount.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan grid points across N worker processes",
    )
    privcount.add_argument(
        "--json",
        action="store_true",
        help="emit the P-series report as a machine-readable document",
    )
    privcount.add_argument(
        "--out",
        default=None,
        dest="out_path",
        metavar="PATH",
        help="also write the JSON document to PATH",
    )
    sub.add_parser("list", help="list available demos")
    args = parser.parse_args(argv)

    faults_plan = None
    if getattr(args, "faults", None):
        faults_plan = _load_fault_plan(args.faults, out)
        if faults_plan is None:
            return 2

    if args.command == "report":
        jobs = max(getattr(args, "jobs", 1), 1)
        if args.json:
            return _report_json(out, trace=args.trace, jobs=jobs, risk=args.risk)
        if args.trace and jobs <= 1:
            with obs.capture() as (tracer, registry):
                ok = _print_tables(out)
                _print_figures(out)
                _print_sweeps(out)
            _print_trace_section(tracer, registry, out)
            _print_provenance_section(tracer, out)
        elif args.trace:
            summaries = harness.table_summaries(jobs=jobs)
            ok = _print_table_summaries(summaries, out)
            _print_figures(out)
            sweep_results = harness.sweep_results(jobs=jobs)
            _print_sweep_payloads(_sweep_payload_map(sweep_results), out)
            _print_folded_trace_section(summaries, sweep_results, out)
        else:
            ok = _print_tables(out, jobs=jobs)
            _print_figures(out)
            _print_sweeps(out, jobs=jobs)
        if args.risk:
            from repro.risk import DEFAULT_PROFILE

            _print_risk(
                harness.risk_summaries(
                    jobs=jobs,
                    scenario_ids=[spec.id for spec in experiment_specs()],
                ),
                harness.risk_sweep(jobs=jobs),
                DEFAULT_PROFILE,
                out,
            )
        print(
            "ALL PAPER TABLES REPRODUCED EXACTLY" if ok else "SOME TABLES MISMATCHED",
            file=out,
        )
        return 0 if ok else 1
    if args.command == "tables":
        return 0 if _print_tables(out, jobs=max(args.jobs, 1)) else 1
    if args.command == "figures":
        _print_figures(out)
        return 0
    if args.command == "sweeps":
        jobs = max(args.jobs, 1)
        if args.trace and jobs <= 1:
            with obs.capture() as (tracer, registry):
                _print_sweeps(out)
            _print_sweep_trace_section(tracer, registry, out)
        elif args.trace:
            sweep_results = harness.sweep_results(jobs=jobs)
            _print_sweep_payloads(_sweep_payload_map(sweep_results), out)
            _print_folded_sweep_trace_section(sweep_results, out)
        else:
            _print_sweeps(out, jobs=jobs)
        return 0
    if args.command == "demo":
        return _run_demo(args.name, out, as_json=args.json, faults=faults_plan)
    if args.command == "demos":
        return _run_demos_listing(out)
    if args.command == "trace":
        return _run_trace(
            args.name,
            args.out_path,
            out,
            faults=faults_plan,
            mode=args.obs_mode,
            sample=args.obs_sample,
            seed=args.obs_seed,
        )
    if args.command == "profile":
        return _run_profile(
            args.name,
            out,
            mode=args.obs_mode or "off",
            sample=args.obs_sample,
            seed=args.obs_seed,
            repeats=max(args.repeats, 1),
            as_json=args.json,
            out_path=args.out_path,
            trace_dir=args.trace_dir,
        )
    if args.command == "explain":
        if args.risk:
            return _run_risk_explain(
                args.name, args.entity, args.subject, out, faults=faults_plan
            )
        if args.breach:
            return _run_breach_explain(args.name, args.entity, out, faults=faults_plan)
        if not args.entity:
            print("explain requires --entity (or --breach)", file=out)
            return 2
        return _run_explain(
            args.name, args.entity, args.subject, args.fact, out, faults=faults_plan
        )
    if args.command == "timeline":
        return _run_timeline(args.name, out, faults=faults_plan)
    if args.command == "resilience":
        return _run_resilience(
            out,
            rates=args.rates,
            scenarios=args.scenarios,
            seed=args.seed,
            jobs=max(args.jobs, 1),
            as_json=args.json,
            out_path=args.out_path,
        )
    if args.command == "risk":
        return _run_risk(
            out,
            scenarios=args.scenarios,
            jobs=max(args.jobs, 1),
            as_json=args.json,
            out_path=args.out_path,
            faults_plan=faults_plan,
            profile_path=args.profile_path,
        )
    if args.command == "scale":
        return _run_scale(
            out,
            users=args.users,
            observations=args.observations,
            jobs=max(args.jobs, 1),
            segment_rows=args.segment_rows,
            spill=not args.no_spill,
            checkpoints=max(args.checkpoints, 1),
            seed=args.seed,
            as_json=args.json,
            out_path=args.out_path,
        )
    if args.command == "privcount":
        return _run_privcount(
            out,
            collectors=args.collectors,
            share_keepers=args.share_keepers,
            users=args.users,
            jobs=max(args.jobs, 1),
            as_json=args.json,
            out_path=args.out_path,
        )
    if args.command == "list":
        _register_demos()
        for name in sorted(_DEMOS):
            print(name, file=out)
        return 0
    parser.print_help(out)
    return 2
