"""Smoke test for the benchmark, at tiny sizes (about a minute).

Run from the root of a checkout, either way::

    python3 perfbench/test_smoke.py
    python3 -m pytest -q perfbench/test_smoke.py

For every workload it checks that an untraced run reports each
end-to-end metric that applies to the workload, with its unit; that a
traced run reports each per-layer metric and a layer table summing to
the traced wall time; and that every op passes its correctness check.
It also checks that ``ledger-stream``'s ingest does the same work as
``repro.population.run_scale_workload``, which it mirrors.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED
SCENARIOS = {"odoh-hpke", "odns-relay", "mixnet-lossy"}

#: Every end-to-end metric, its unit, and the workloads it applies to.
REPORTED = (
    ("setup_s", "s", set(workloads.WORKLOADS)),
    ("run_s", "s", set(workloads.WORKLOADS)),
    ("deliveries_per_s", "1/s", SCENARIOS),
    ("obs_per_s", "1/s", set(workloads.WORKLOADS)),
    ("analyze_s", "s", set(workloads.WORKLOADS)),
    ("query_p50_ms", "ms", {"ledger-stream"}),
    ("query_p90_ms", "ms", {"ledger-stream"}),
    ("failed_ops_frac", "ratio", set(workloads.WORKLOADS)),
    ("peak_rss_mb", "MiB", set(workloads.WORKLOADS)),
)


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_untraced_run_reports_every_end_to_end_metric() -> None:
    for name in workloads.WORKLOADS:
        record = run.measure(name, SEED, 0, False, size="smoke", probes=1)
        assert record["correct"], (name, record["problems"])
        report = record["report"]
        for metric, unit, applies in REPORTED:
            if name in applies:
                value, reported_unit, samples = report[metric]
                assert reported_unit == unit, (name, metric)
                assert samples >= 1, (name, metric)
                assert value >= 0 if metric == "failed_ops_frac" else value > 0, (name, metric)
            else:
                assert metric not in report, (name, metric)
        assert _units(record["metrics"]) == dict(run.END_TO_END), name
    fraction = run.measure("mixnet-lossy", SEED, 0, False, size="smoke", probes=1)
    assert fraction["report"]["failed_ops_frac"][0] > 0, "loss must strand some messages"


def test_traced_run_layer_table_sums_to_traced_wall() -> None:
    for name in workloads.WORKLOADS:
        record = run.measure(name, SEED, 0, True, size="smoke")
        assert record["correct"], (name, record["problems"])
        layers = record["layers"]
        wall = layers["traced_wall_s"]
        assert abs(sum(layers["table"].values()) - wall) <= 1e-9 * wall, name
        assert layers["table"]["unattributed"] >= -1e-6, name
        assert layers["trace_overhead"] > 0, name
        for metric, _ in run.PER_LAYER + run.LAYER_TIMES:
            assert metric in layers, (name, metric)
        assert _units(record["metrics"]) == dict(run.PER_LAYER), name


def test_ledger_stream_does_the_work_of_run_scale_workload() -> None:
    from repro.population import run_scale_workload

    size = workloads.SIZES["ledger-stream"]["smoke"]
    workload = workloads.make("ledger-stream", SEED, "smoke", root=str(HERE.parent))
    spill = os.path.join(HERE.parent, ".perfbench-spill", "reference")
    try:
        result = workload.op()
        reference = run_scale_workload(
            users=size["users"],
            observations=size["observations"],
            seed=SEED,
            segment_rows=size["segment_rows"],
            spill=True,
            spill_directory=spill,
            checkpoints=size["checkpoints"],
        )
    finally:
        shutil.rmtree(spill, ignore_errors=True)
        workload.close()
    assert not result.problems, result.problems
    assert result.counters["ledger_rows"] == reference.observations
    assert result.counters["arrivals"] == reference.arrivals
    assert result.counters["segments_sealed"] == reference.accounting["segments_sealed"]
    assert result.counters["rows_spilled"] == reference.accounting["rows_spilled"]
    assert workload.reference["sessions"] == reference.sessions
    assert reference.all_checkpoints_match
    assert reference.checkpoints[-1].collusion_resistance == 2


if __name__ == "__main__":
    for test in (
        test_untraced_run_reports_every_end_to_end_metric,
        test_traced_run_layer_table_sums_to_traced_wall,
        test_ledger_stream_does_the_work_of_run_scale_workload,
    ):
        test()
        print(f"ok  {test.__name__}")
