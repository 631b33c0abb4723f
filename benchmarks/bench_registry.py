"""Every registered spec and sweep, timed and checked from the registry.

Two parametrised benchmarks read the scenario registry, so a newly
registered system or sweep joins them without an edit here:

- every spec (:func:`repro.scenario.all_specs`) runs at its default
  parameters, and a spec that declares a paper table must derive it
  cell for cell (``spec.expected_table()``);
- every D-series sweep (:func:`repro.scenario.sweep_specs`) runs at its
  default grid, and its series must keep the shape the paper argues for
  in section 4.2 (:data:`SHAPES`).  A sweep registered without a shape
  check fails :func:`test_every_sweep_has_a_shape_check`.

Verdicts, coalitions and the other per-system properties are tier-1
tests (``tests/test_all_demos.py``, ``tests/test_system_*.py``).

As a correctness gate, each body once and untimed::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_registry.py --benchmark-disable

With timings::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_registry.py --benchmark-only
"""

import pytest

from repro.core.report import compare_tables
from repro.scenario import all_specs, run_scenario, sweep_specs


def _relays(sweep):
    """D1: each relay raises the collusion bar by one, at a linear cost.

    One relay is the VPN anti-pattern (resistance 1).  Latency and
    messages grow with every relay, and each extra relay adds roughly
    one round trip: all marginal latencies within 3x of each other.
    """
    points = sorted(sweep.points, key=lambda p: p.degree)
    assert all(p.collusion_resistance == p.degree for p in points)
    assert sweep.privacy_is_monotone()
    assert sweep.cost_is_monotone()
    assert sweep.has_diminishing_returns()
    deltas = [b.latency - a.latency for a, b in zip(points, points[1:])]
    assert max(deltas) < 3 * min(deltas) + 1e-9


def _aggregators(sweep):
    """D2: reconstructing a report takes all aggregators, and each costs.

    Every added aggregator means more uploads and more Beaver traffic,
    so messages and bytes grow strictly.
    """
    points = sorted(sweep.points, key=lambda p: p.degree)
    assert all(p.collusion_resistance == p.degree for p in points)
    assert all(a.messages < b.messages for a, b in zip(points, points[1:]))
    assert all(
        a.bandwidth_overhead < b.bandwidth_overhead
        for a, b in zip(points, points[1:])
    )
    assert sweep.privacy_is_monotone()
    assert sweep.has_diminishing_returns()


def _batches_unpadded(series):
    """D3: batching decays FIFO timing accuracy toward 1/batch.

    Unbatched, the correlator wins outright; size matching still
    defeats the largest batch while sizes are distinct; latency pays.
    """
    accuracies = [row["timing_accuracy"] for row in series]
    assert accuracies[0] == 1.0
    assert accuracies[-1] < 0.45
    assert accuracies[0] >= accuracies[1] >= accuracies[-1]
    assert series[-1]["size_accuracy"] == 1.0
    assert series[0]["latency"] < series[-1]["latency"]


def _batches_padded(series):
    """D3: with constant-size cells, size matching degrades to timing level."""
    assert series[-1]["size_accuracy"] < 0.45


def _striping(series):
    """D4: round-robin striping leaves each resolver ~1/n of the knowledge.

    One resolver sees everything; query share is exactly 1/n, shares
    and name coverage fall, and load entropy grows with no imbalance.
    """
    shares = [row["max_query_share"] for row in series]
    coverages = [row["max_name_coverage"] for row in series]
    assert shares[0] == 1.0 and coverages[0] == 1.0
    assert all(row["max_query_share"] == 1.0 / row["resolvers"] for row in series)
    assert shares == sorted(shares, reverse=True)
    assert coverages == sorted(coverages, reverse=True)
    entropies = [row["load_entropy_bits"] for row in series]
    assert entropies == sorted(entropies)
    assert all(row["imbalance"] < 1e-9 for row in series)


def _tracking(series):
    """D5: larger shuffle populations make the core's analyst worse.

    Small populations are trackable; the largest approaches chance.
    """
    accuracies = [row["tracking_accuracy"] for row in series]
    assert accuracies == sorted(accuracies, reverse=True)
    assert accuracies[0] > 0.4
    assert accuracies[-1] < 3.0 * series[-1]["chance"]


def _disclosure(series):
    """D6: statistical disclosure approaches certainty with observation time."""
    accuracies = [row["accuracy"] for row in series]
    assert accuracies == sorted(accuracies)
    assert accuracies[-1] >= 0.85
    assert accuracies[0] < accuracies[-1]


#: Sweep key -> the check its series must pass.
SHAPES = {
    "D1": _relays,
    "D2": _aggregators,
    "D3u": _batches_unpadded,
    "D3p": _batches_padded,
    "D4": _striping,
    "D5": _tracking,
    "D6": _disclosure,
}


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.id)
def test_spec_default_run(benchmark, spec):
    run = benchmark(run_scenario, spec.id)
    table = run.table()
    expected = spec.expected_table()
    if expected is not None:
        report = compare_tables(
            spec.experiment_id or spec.id, spec.title, expected, table
        )
        assert report.matches, report.render()
    benchmark.extra_info["table"] = dict(table.as_mapping())


def test_every_sweep_has_a_shape_check():
    assert sorted(SHAPES) == sorted(sweep.key for sweep in sweep_specs())


@pytest.mark.parametrize("sweep", sweep_specs(), ids=lambda sweep: sweep.key)
def test_sweep_shape(benchmark, sweep):
    series = benchmark(sweep.runner)
    SHAPES[sweep.key](series)
    benchmark.extra_info["series"] = (
        series if isinstance(series, list) else series.render()
    )
