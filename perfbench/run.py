"""End-to-end benchmark: population -> net -> crypto -> handlers -> ledger -> analysis.

Run from the root of a checkout::

    python3 perfbench/run.py --workload odns-relay --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer split of the traced ones (see ``spans.py``).  Either way the
report lists every metric by name, unit and sample count, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

The exit code is 0 when every op passed its correctness check, 1 when
one did not, and 2 when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from spans import Tracer, layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics in the final JSON line of an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("obs_per_s", "1/s"),
    ("analyze_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics in the final JSON line of a traced run: every
#: layer's counts, and the self times of the layers all four workloads
#: touch (the full table, every layer's self time included, is printed
#: above the JSON line).
PER_LAYER = (
    ("population.arrivals", "count"),
    ("net.sim.events", "count"),
    ("net.sim.peak_pending", "count"),
    ("net.send.calls", "count"),
    ("net.deliver.count", "count"),
    ("net.fast_share", "ratio"),
    ("net.dropped", "count"),
    ("net.duplicated", "count"),
    ("net.transact.calls", "count"),
    ("faults.attempts", "count"),
    ("faults.retries", "count"),
    ("faults.timeouts", "count"),
    ("faults.failures", "count"),
    ("crypto.x25519.calls", "count"),
    ("crypto.aead.calls", "count"),
    ("handlers.calls", "count"),
    ("core.observe.calls", "count"),
    ("core.ledger.rows", "count"),
    ("core.ledger.record.calls", "count"),
    ("core.ledger.record.self_s", "s"),
    ("core.segments.sealed", "count"),
    ("core.segments.spilled_rows", "count"),
    ("core.segments.reloads", "count"),
    ("core.segments.reload_ratio", "ratio"),
    ("core.analysis.queries", "count"),
    ("core.analysis.verdict.self_s", "s"),
    ("core.analysis.collusion.self_s", "s"),
    ("core.analysis.table.self_s", "s"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
)

#: Per-layer self times printed in the traced report (in addition to
#: the layer table); zero on workloads that never enter the layer.
LAYER_TIMES = (
    ("scenario.build_s", "s"),
    ("scenario.drive_s", "s"),
    ("scenario.settle_s", "s"),
    ("scenario.analyze_s", "s"),
    ("population.self_s", "s"),
    ("net.sim.self_s", "s"),
    ("net.send.self_s", "s"),
    ("net.deliver.self_s", "s"),
    ("faults.self_s", "s"),
    ("crypto.x25519.self_s", "s"),
    ("crypto.aead.self_s", "s"),
    ("crypto.hpke.self_s", "s"),
    ("crypto.self_s", "s"),
    ("handlers.self_s", "s"),
    ("core.observe.self_s", "s"),
    ("core.segments.seal.self_s", "s"),
    ("core.segments.spill.self_s", "s"),
    ("core.segments.load.self_s", "s"),
    ("core.analysis.sync.self_s", "s"),
    ("ingest_loop_s", "s"),
)

#: Every op runs at least this many times, however short the run.
MIN_OPS = 3

#: Set-up is measured this many times in fresh processes.
SETUP_PROBES = 9

#: Times are reported in *reference seconds*: each measured wall time
#: is scaled by ``REFERENCE_S`` over the time the reference loop took
#: right around it.  On a machine whose speed drifts with its
#: neighbours' load this cancels much of the drift, which moves the
#: loop and the op alike, and keeps what the program itself changes.  ``REFERENCE_S`` is what
#: the loop takes on a 2-vCPU x86-64 cloud VM with CPython 3.11, so
#: reference seconds read close to wall seconds there.
REFERENCE_ITERATIONS = 100_000
REFERENCE_S = 0.035


def reference_loop() -> float:
    """Wall seconds of a fixed slice of interpreter work (no ``repro``)."""
    start = perf_counter()
    table: Dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        str(i)
    return perf_counter() - start


def measure_setup(name: str, seed: int, size: str, probes: int) -> List[float]:
    """Reference seconds from process start to a workload ready to run.

    Each probe is a fresh interpreter: imports, scenario registry
    discovery, and workload construction.  It prints ``ready`` and
    exits; the clock stops at that line.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed), "--size", size,
    ]
    samples = []
    before = reference_loop()
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            took = perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed (exit {child.returncode})")
        after = reference_loop()
        samples.append(took * 2 * REFERENCE_S / (before + after))
        before = after
    return samples


def run_op(workload: Any, tracer: Any = None) -> Tuple[Optional[Any], List[str]]:
    """One op from a collected heap; ``(result, problems)``."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        result = workload.op(tracer)
    except Exception:
        return None, [traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, result.problems


def _quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` cut points)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(result: Any, tracer: Any) -> Dict[str, Any]:
    """Per-layer metrics of one traced op."""
    table = layer_table(tracer, result.wall_s)
    calls = tracer.calls
    self_s = tracer.self_s
    counts = tracer.counts
    counters = result.counters
    deliveries = calls["net.deliver"]
    spilled = counters.get("segments_spilled", 0)
    reloads = calls["core.segments.load"]
    phases = result.phases
    return {
        "scenario.build_s": phases.get("build", 0.0),
        "scenario.drive_s": phases.get("drive", 0.0),
        "scenario.settle_s": phases.get("settle", 0.0),
        "scenario.analyze_s": phases.get("analyze", 0.0),
        "population.arrivals": calls["population.arrivals"],
        "population.self_s": table["population"],
        "net.sim.events": counters.get("events", 0),
        "net.sim.peak_pending": tracer.peak_pending,
        "net.sim.self_s": table["net.sim"],
        "net.send.calls": calls["net.send"],
        "net.send.self_s": self_s["net.send"],
        "net.deliver.count": deliveries,
        "net.deliver.self_s": self_s["net.deliver"],
        "net.fast_share": counts["net.deliver.fast"] / deliveries if deliveries else 0.0,
        "net.dropped": counters.get("packets_dropped", 0),
        "net.duplicated": counters.get("packets_duplicated", 0),
        "net.transact.calls": calls["net.transact"],
        "faults.self_s": table["faults"],
        "faults.attempts": counters.get("fault_attempts", 0),
        "faults.retries": counters.get("fault_retries", 0),
        "faults.timeouts": counters.get("fault_timeouts", 0),
        "faults.failures": counters.get("fault_failures", 0),
        "crypto.x25519.calls": calls["crypto.x25519"],
        "crypto.x25519.self_s": self_s["crypto.x25519"],
        "crypto.aead.calls": calls["crypto.aead"],
        "crypto.aead.self_s": self_s["crypto.aead"],
        "crypto.hpke.self_s": self_s["crypto.hpke"],
        "crypto.self_s": table["crypto"],
        "handlers.calls": calls["handlers.handle"],
        "handlers.self_s": table["handlers"],
        "core.observe.calls": calls["core.observe"],
        "core.observe.self_s": self_s["core.observe"],
        "core.ledger.rows": counts["core.ledger.rows"],
        "core.ledger.record.calls": calls["core.ledger.record"],
        "core.ledger.record.self_s": self_s["core.ledger.record"],
        "core.segments.sealed": counters.get("segments_sealed", 0),
        "core.segments.spilled_rows": counts["core.segments.spilled_rows"],
        "core.segments.reloads": reloads,
        "core.segments.reload_ratio": reloads / spilled if spilled else 0.0,
        "core.segments.seal.self_s": self_s["core.segments.seal"],
        "core.segments.spill.self_s": self_s["core.segments.spill"],
        "core.segments.load.self_s": self_s["core.segments.load"],
        "core.analysis.queries": (
            calls["core.analysis.verdict"]
            + calls["core.analysis.collusion"]
            + calls["core.analysis.table"]
        ),
        "core.analysis.sync.self_s": self_s["core.analysis.sync"],
        "core.analysis.verdict.self_s": self_s["core.analysis.verdict"],
        "core.analysis.collusion.self_s": self_s["core.analysis.collusion"],
        "core.analysis.table.self_s": self_s["core.analysis.table"],
        "ingest_loop_s": table["ingest_loop"],
        "unattributed_s": table["unattributed"],
        "traced_wall_s": result.wall_s,
        "layers": table,
    }


#: X25519 scalar multiplications per ODoH lookup: the client derives
#: the target's public key, generates and exchanges an ephemeral, and
#: the target decapsulates (exchange) and re-derives its public key.
X25519_PER_ODOH_QUERY = 5


def cross_check(workload: Any, result: Any, tracer: Any, layers: Dict[str, float]) -> List[str]:
    """The trace must agree with the program's own counters."""
    calls = tracer.calls
    counts = tracer.counts
    counters = result.counters
    checks = [
        ("net.deliver.count", calls["net.deliver"], counters.get("messages_delivered", 0)),
        ("fast deliveries", counts["net.deliver.fast"], counters.get("fast_deliveries", 0)),
        ("net.send.calls", calls["net.send"], counters.get("packets_sent", 0)),
        ("core.ledger.rows", counts["core.ledger.rows"], counters["ledger_rows"]),
        ("population.arrivals", calls["population.arrivals"], counters.get("arrivals", 0)),
        ("spilled rows", counts["core.segments.spilled_rows"], counters.get("rows_spilled", 0)),
    ]
    if workload.name == "odoh-hpke":
        per_query = calls["crypto.x25519"] / workload.size["queries"]
        checks.append(("crypto.x25519.calls per query", per_query, X25519_PER_ODOH_QUERY))
    problems = [
        f"trace {label} = {traced}, program counts {counted}"
        for label, traced, counted in checks
        if traced != counted
    ]
    # Self times can only add up to more than the wall if a span was
    # counted twice.
    if layers["unattributed"] < -1e-6:
        problems.append(f"layer self times exceed the traced wall by {-layers['unattributed']} s")
    return problems


def _scaled(metrics: Dict[str, Any], scale: float) -> Dict[str, Any]:
    """Per-layer metrics with every time in reference seconds."""
    scaled = {key: value * scale if key.endswith("_s") else value
              for key, value in metrics.items() if key != "layers"}
    scaled["layers"] = {row: seconds * scale for row, seconds in metrics["layers"].items()}
    return scaled


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "default",
    probes: int = SETUP_PROBES,
) -> Dict[str, Any]:
    """One benchmark run of one workload; returns the full record."""
    import workloads

    setup = [] if trace else measure_setup(name, seed, size, probes)
    workload = workloads.make(name, seed, size, root=str(ROOT))
    problems: List[str] = []
    attempted = failed = 0
    plain: List[Tuple[Any, float]] = []  # (op result, speed scale)
    traced: List[Dict[str, Any]] = []
    tracer = Tracer() if trace else None
    try:
        # The first op warms caches and fixes the reference outputs
        # every later op must reproduce.
        ops = [(None, None)]
        gc.collect()
        gc.freeze()
        deadline = perf_counter() + seconds
        before = reference_loop()
        while (
            perf_counter() < deadline
            or len(plain) < MIN_OPS
            or (trace and len(traced) < MIN_OPS)
        ):
            for mode, op_tracer in ops:
                result, op_problems = run_op(workload, op_tracer)
                after = reference_loop()
                scale = 2 * REFERENCE_S / (before + after)
                before = after
                attempted += 1
                if op_problems:
                    failed += 1
                    problems += op_problems
                elif mode == "plain":
                    plain.append((result, scale))
                elif mode == "traced":
                    metrics = layer_metrics(result, tracer)
                    problems += cross_check(workload, result, tracer, metrics["layers"])
                    traced.append(_scaled(metrics, scale))
            ops = [("plain", None)] + ([("traced", tracer)] if trace else [])
    finally:
        gc.unfreeze()
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not plain:
        return {"name": name, "correct": False, "attempted": attempted,
                "failed": failed, "problems": problems, "report": {}, "metrics": {}}

    report: Dict[str, Tuple[float, str, int]] = {}
    if setup:
        report["setup_s"] = (statistics.median(setup), "s", len(setup))
    n = len(plain)
    report["run_s"] = (statistics.median(r.wall_s * k for r, k in plain), "s", n)
    if isinstance(workload, workloads.ScenarioWorkload):
        report["deliveries_per_s"] = (
            statistics.median(r.deliveries / (r.append_s * k) for r, k in plain), "1/s", n)
    report["obs_per_s"] = (statistics.median(r.rows / (r.append_s * k) for r, k in plain), "1/s", n)
    report["analyze_s"] = (statistics.median(r.analyze_s * k for r, k in plain), "s", n)
    queries = [q * k * 1000.0 for r, k in plain for q in r.queries_s]
    if queries:
        report["query_p50_ms"] = (statistics.median(queries), "ms", len(queries))
        report["query_p90_ms"] = (_quantile(queries, 90), "ms", len(queries))
    sub_attempted = sum(r.attempted for r, _ in plain)
    sub_failed = sum(r.failed for r, _ in plain)
    report["failed_ops_frac"] = (
        (failed + sub_failed) / (attempted + sub_attempted), "ratio", attempted + sub_attempted)
    report["peak_rss_mb"] = (peak_rss_mb, "MiB", 1)
    report["reference_loop_s"] = (
        statistics.median(REFERENCE_S / k for _, k in plain), "s", n)

    layers: Dict[str, Any] = {}
    if traced:
        keys = [key for key in traced[0] if key != "layers"]
        layers = {key: statistics.fmean(t[key] for t in traced) for key in keys}
        layers["trace_overhead"] = (
            statistics.median(t["traced_wall_s"] for t in traced) / report["run_s"][0]
        )
        layers["table"] = {
            row: statistics.fmean(t["layers"][row] for t in traced) for row in traced[0]["layers"]
        }

    wanted = PER_LAYER if trace else END_TO_END
    source = layers if trace else {k: v[0] for k, v in report.items()}
    metrics = {key: {"value": source[key], "unit": unit} for key, unit in wanted}
    return {
        "name": name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "report": report,
        "layers": layers,
        "traced_ops": len(traced),
        "metrics": metrics,
    }


def print_record(record: Dict[str, Any]) -> None:
    """The human-readable report for one workload run."""
    print(f"== {record['name']}  seed={record.get('seed')}  "
          f"ops={record['attempted']}  failed={record['failed']}")
    for key, (value, unit, n) in record["report"].items():
        print(f"  {key:<18} {value:>14.6g} {unit:<6} n={n}")
    layers = record.get("layers")
    if layers:
        wall = layers["traced_wall_s"]
        print(f"  layer table, mean over {record['traced_ops']} traced ops "
              f"(self seconds per op; rows sum to the traced wall {wall:.6f} s)")
        for row, seconds in layers["table"].items():
            print(f"    {row:<18} {seconds:>12.6f} s {100.0 * seconds / wall:6.1f}%")
        print(f"    {'total':<18} {sum(layers['table'].values()):>12.6f} s")
        for key, unit in PER_LAYER + LAYER_TIMES:
            print(f"  {key:<32} {layers[key]:>14.6g} {unit}")
    for problem in record["problems"][:20]:
        print(f"  PROBLEM: {problem.rstrip()}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="odoh-hpke, odns-relay, mixnet-lossy, ledger-stream, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workloads' default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to keep running ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split of traced ops")
    parser.add_argument("--size", choices=("default", "smoke"), default="default")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package next to {HERE.name}/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    if args.setup_probe:
        workloads.make(names[0], seed, args.size, root=str(ROOT))
        print("ready", flush=True)
        return 0

    correct = True
    for name in names:
        record = measure(name, seed, args.seconds, bool(args.trace), args.size)
        print_record(record)
        correct = correct and record["correct"]
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
