"""Drive-phase benchmark family: the simulation hot path.

Not a paper artifact: ``bench_perf_core.py`` watches the *analyze*
phase; these benchmarks watch the *drive* phase -- per-packet work in
``net/sim.py`` / ``net/network.py`` and the
``Entity.observe -> Ledger.record_fast`` chain.

Three scenario families (mixnet, odns, mpr) at three population sizes
each, timed over drive + settle.  The numbers are a trend report, not
a gate: end-to-end drive throughput with a noise model lives in
``perfbench`` (``deliveries_per_s`` on ``odns-relay`` and
``mixnet-lossy``).

Run with JSON output to record the trajectory::

    PYTHONPATH=src python -m pytest benchmarks/bench_drive.py -q \\
        --benchmark-json=BENCH_drive.json
"""

import pytest

import repro.harness  # noqa: F401  -- registers the scenario specs
from repro.scenario.spec import get_spec

# Family -> (population parameter, three sizes).  Mixnet payload sizes
# grow with sender index (superlinear total bytes), so its sweep stays
# moderate.
FAMILIES = {
    "mixnet": ("senders", (100, 200, 400)),
    "odns": ("queries", (100, 200, 400)),
    "mpr": ("requests", (150, 300, 600)),
}

POINTS = [
    (scenario, size)
    for scenario, (_, sizes) in FAMILIES.items()
    for size in sizes
]


def _fresh_program(scenario, size):
    """A built-but-not-driven scenario program at the given population."""
    spec = get_spec(scenario)
    program = spec.program(spec, spec.bind({FAMILIES[scenario][0]: size}))
    program.run_phase("build")
    return program


def _drive_and_settle(program):
    program.run_phase("drive")
    program.run_phase("settle")


@pytest.mark.parametrize("scenario,size", POINTS)
def test_drive(benchmark, scenario, size):
    """Drive + settle at each (family, population) point."""
    benchmark.pedantic(
        _drive_and_settle,
        setup=lambda: ((_fresh_program(scenario, size),), {}),
        rounds=3,
        iterations=1,
    )
