"""Committed metric goldens: every obs tier's registry snapshot, pinned.

``tests/golden/metrics.json`` maps each case to the registry snapshot
its run leaves behind.  Each case runs once per tier that records
metrics -- ``counters``, ``sampled`` (``SpanSampler(rate=0.4,
seed=0)``) and ``full`` -- each in a fresh interpreter, because
process-global id counters leak between in-process runs and would
shift the byte counts.  All three snapshots must equal the golden.

The cases cover what the trace goldens do not: drops and duplicates
under a lossy fault plan in the cheap tiers (``mixnet-lossy``), and
the ledger's segment seal and spill counters (``segments``).

Two more tests pin when a read is complete: inside a capture, and in a
``counters``-mode run with no capture at all.

Regenerate only for an intended change to what runs count, and say so
in CHANGES.md::

    PYTHONPATH=src python tests/test_metrics_goldens.py --regenerate
"""

import concurrent.futures
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_goldens import LOSSY_PLAN, REPO, _env

GOLDEN = REPO / "tests" / "golden" / "metrics.json"

#: The tiers that record metrics; every one must read the same.
MODES = ("counters", "sampled", "full")


def _segments() -> None:
    """Ten single-value observations through 4-row spilling segments."""
    from repro.core.entities import World
    from repro.core.labels import NONSENSITIVE_DATA
    from repro.core.values import LabeledValue, Subject

    world = World()
    collector = world.entity("Collector", "collector-org")
    world.ledger.configure_segments(rows=4, spill=True)
    subject = Subject("alice")
    for index in range(10):
        collector.observe(
            LabeledValue(f"v{index}", NONSENSITIVE_DATA, subject, "blob"),
            channel="upload",
        )
    world.ledger.seal_active_segment()


def _scenario(scenario_id, **kwargs):
    def run() -> None:
        from repro.scenario import run_scenario

        run_scenario(scenario_id, **kwargs)

    return run


CASES = {
    "mixnet-lossy": _scenario(
        "mixnet", faults=json.loads((REPO / LOSSY_PLAN).read_text(encoding="utf-8"))
    ),
    "odns": _scenario("odns"),
    "segments": _segments,
}


def snapshot(case, mode):
    """``case``'s registry snapshot under ``mode``, in this process."""
    from repro import obs

    sampler = obs.SpanSampler(rate=0.4, seed=0) if mode == "sampled" else None
    with obs.capture(mode=mode, sampler=sampler) as (_tracer, registry):
        CASES[case]()
    return registry.snapshot()


def fresh_snapshot(case, mode):
    """:func:`snapshot` in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, __file__, case, mode],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=_env(),
    )
    if result.returncode != 0:
        raise AssertionError(f"{case} under {mode} failed:\n{result.stderr}")
    return json.loads(result.stdout)


@functools.lru_cache(maxsize=None)
def tier_snapshots(case):
    """{mode: snapshot} for one case, two fresh interpreters at a time."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        snapshots = pool.map(lambda mode: fresh_snapshot(case, mode), MODES)
        return dict(zip(MODES, snapshots))


def test_every_case_has_a_golden():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_tier_matches_the_metrics_golden(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert tier_snapshots(case) == {mode: golden for mode in MODES}


def test_read_inside_a_counters_capture_is_complete():
    """A read before the ``with`` block ends already counts every delivery."""
    from repro import obs
    from repro.scenario import run_scenario

    with obs.capture(mode="counters") as (_tracer, registry):
        run = run_scenario("odns")
        messages = registry.counter_value("net.messages")
    assert run.network.messages_delivered > 0
    assert messages == run.network.messages_delivered


def test_counters_mode_without_a_capture_counts_into_its_own_registry():
    """Counts land in the registry that was current while the run ran;
    a later capture moves none of them into another registry."""
    from repro import obs
    from repro.obs import runtime
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.scenario import run_scenario

    own = MetricsRegistry()
    default = set_registry(own)
    saved = runtime.state()
    try:
        default_before = default.counter_value("net.messages")
        runtime.set_mode("counters")
        run = run_scenario("odns")
    finally:
        runtime.restore(saved)
        set_registry(default)
    with obs.capture():
        pass
    assert own.counter_value("net.messages") == run.network.messages_delivered
    assert default.counter_value("net.messages") == default_before


def regenerate():
    goldens = {}
    for case in sorted(CASES):
        snapshots = tier_snapshots(case)
        if any(snapshots[mode] != snapshots[MODES[0]] for mode in MODES):
            sys.exit(f"{case}: the tiers disagree; no golden written")
        goldens[case] = snapshots[MODES[0]]
    GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        regenerate()
    elif len(sys.argv) == 3 and sys.argv[1] in CASES and sys.argv[2] in MODES:
        print(json.dumps(snapshot(sys.argv[1], sys.argv[2])))
    else:
        sys.exit(
            "usage: PYTHONPATH=src python tests/test_metrics_goldens.py"
            " --regenerate | CASE MODE"
        )
