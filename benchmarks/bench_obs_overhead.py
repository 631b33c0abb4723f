"""Observability overhead benchmark family: the cost of each obs tier.

Not a paper artifact: observability is tiered (``repro.obs.runtime``),
and every tier runs the one delivery pipeline.  These benchmarks
measure what each tier costs over a dark (``off``) run of the same
scenario, per lifecycle phase, in the same process -- cross-process
comparisons are not trustworthy on shared CI machines.

Two scenario families at the largest ``bench_drive`` populations, four
modes each.  Every mode runs the full ``build -> drive -> settle ->
analyze`` lifecycle under ``obs.capture(mode=...)`` exactly as the
``repro profile`` command does; per-phase wall times land in
``extra_info`` so ``BENCH_obs_overhead.json`` records the full
decomposition, and the acceptance gates from the observability issue
are asserted on the drive+settle slice (the drive pipeline's part):

* ``counters`` must stay within 10% of ``off`` (deliveries fold into
  the batched ``MetricsBatch`` accumulator), and
* ``sampled`` at the default 1% rate must stay within 25% of ``off``
  (only the sampler's chosen packets run span code).

``full`` mode is measured and recorded too -- it is the expensive
reference, not a gated tier.  Gate measurements are median-of-9 with
the modes interleaved (and the cyclic GC parked), and cached so the
gate tests and the benchmark rows share one measurement.

Run with JSON output to record the trajectory::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q \\
        --benchmark-json=BENCH_obs_overhead.json
"""

import gc
import statistics
import time

import pytest

import repro.harness  # noqa: F401  -- registers the scenario specs
from repro import obs
from repro.obs.runtime import SpanSampler
from repro.scenario import PHASES
from repro.scenario.spec import get_spec

#: counters may cost at most 10% over off on drive+settle.
COUNTERS_GATE = 1.10

#: sampled (at the default 1% rate) may cost at most 25% over off.
SAMPLED_GATE = 1.25

SAMPLE_RATE = 0.01
SAMPLE_SEED = 0

#: Family -> (population parameter, gate population) -- the largest
#: ``bench_drive`` points, where per-delivery overhead shows.
FAMILIES = {
    "mixnet": ("senders", 400),
    "odns": ("queries", 400),
}

MODES = ("off", "counters", "sampled", "full")

POINTS = [(scenario, mode) for scenario in FAMILIES for mode in MODES]


def _sampler_for(mode):
    """A fresh deterministic sampler per run (sampled mode only)."""
    if mode != "sampled":
        return None
    return SpanSampler(rate=SAMPLE_RATE, seed=SAMPLE_SEED)


def _fresh_program(scenario):
    param, size = FAMILIES[scenario]
    spec = get_spec(scenario)
    return spec.program(spec, spec.bind({param: size}))


def _lifecycle(scenario, mode):
    """One full lifecycle under ``mode``; per-phase wall seconds.

    Timed with the cyclic collector off: a lifecycle strands ~20k
    objects in reference cycles, and the gen-2 collection they trigger
    (~100ms+) lands on whichever mode happens to be running when the
    threshold trips -- deterministically the *same* mode given a fixed
    rotation, which poisons best-of-N ratios.  Collecting up front and
    disabling GC makes every mode pay zero collector cost instead of a
    randomly-assigned one.
    """
    times = {}
    gc.collect()
    gc.disable()
    try:
        with obs.capture(mode=mode, sampler=_sampler_for(mode)):
            program = _fresh_program(scenario)
            for phase in PHASES:
                start = time.perf_counter()
                program.run_phase(phase)
                times[phase] = time.perf_counter() - start
    finally:
        gc.enable()
    return times


_PROFILE_CACHE = {}


def _measure_scenario(scenario, repeats=9):
    """Median-of-N per-phase wall seconds for every mode, interleaved.

    Modes are measured round-robin within each repeat (not back to
    back) so machine-load drift hits all four tiers evenly, and the
    whole scenario gets one warm-up lifecycle first.  The median (not
    the min) is the kept statistic: a ratio gate built on minima is
    poisoned by a single lucky baseline run, while the median ignores
    outliers on both tails -- the ratio between modes is the number
    that matters, not the absolute time.
    """
    samples = {mode: {phase: [] for phase in PHASES} for mode in MODES}
    _lifecycle(scenario, "off")  # warm caches (size/digest memos, imports)
    for _ in range(repeats):
        for mode in MODES:
            for phase, elapsed in _lifecycle(scenario, mode).items():
                samples[mode][phase].append(elapsed)
    for mode in MODES:
        _PROFILE_CACHE[(scenario, mode)] = {
            phase: statistics.median(values)
            for phase, values in samples[mode].items()
        }


def _best_phase_times(scenario, mode):
    """Median-of-N per-phase wall seconds, measured once per scenario."""
    if (scenario, mode) not in _PROFILE_CACHE:
        _measure_scenario(scenario)
    return _PROFILE_CACHE[(scenario, mode)]


def _hot_seconds(times):
    """Drive+settle: the slice the delivery pipeline (and the gates) own."""
    return times["drive"] + times["settle"]


_GATE_CACHE = {}


def _gate_record(scenario):
    """All four tiers at the gate population, measured once."""
    if scenario not in _GATE_CACHE:
        param, size = FAMILIES[scenario]
        off = _hot_seconds(_best_phase_times(scenario, "off"))
        counters = _hot_seconds(_best_phase_times(scenario, "counters"))
        sampled = _hot_seconds(_best_phase_times(scenario, "sampled"))
        full = _hot_seconds(_best_phase_times(scenario, "full"))
        counters_ratio = counters / off if off > 0 else float("inf")
        sampled_ratio = sampled / off if off > 0 else float("inf")
        _GATE_CACHE[scenario] = {
            "scenario": scenario,
            "population": {param: size},
            "off_seconds": off,
            "counters_seconds": counters,
            "sampled_seconds": sampled,
            "full_seconds": full,
            "counters_ratio": counters_ratio,
            "sampled_ratio": sampled_ratio,
            "full_ratio": full / off if off > 0 else float("inf"),
            "counters_gate": COUNTERS_GATE,
            "sampled_gate": SAMPLED_GATE,
            "sample_rate": SAMPLE_RATE,
            "counters_passed": counters_ratio <= COUNTERS_GATE,
            "sampled_passed": sampled_ratio <= SAMPLED_GATE,
        }
    return _GATE_CACHE[scenario]


def _run_lifecycle(scenario, mode):
    _lifecycle(scenario, mode)


@pytest.mark.parametrize("scenario,mode", POINTS)
def test_obs_mode_lifecycle(benchmark, scenario, mode):
    """Full lifecycle at the gate population under each obs tier."""
    benchmark.pedantic(
        _run_lifecycle, args=(scenario, mode), rounds=3, iterations=1
    )
    benchmark.extra_info["phase_ms"] = {
        phase: elapsed * 1000.0
        for phase, elapsed in _best_phase_times(scenario, mode).items()
    }
    if mode == "full":
        benchmark.extra_info["obs_gate"] = _gate_record(scenario)


@pytest.mark.parametrize("scenario", sorted(FAMILIES))
def test_counters_overhead_gate(scenario):
    """counters stays within 10% of off on drive+settle."""
    record = _gate_record(scenario)
    assert record["counters_ratio"] <= COUNTERS_GATE, (
        f"{scenario} {record['population']}: counters "
        f"{record['counters_seconds'] * 1000:.1f}ms vs off "
        f"{record['off_seconds'] * 1000:.1f}ms = "
        f"{record['counters_ratio']:.3f}x > {COUNTERS_GATE}x"
    )


@pytest.mark.parametrize("scenario", sorted(FAMILIES))
def test_sampled_overhead_gate(scenario):
    """sampled at 1% stays within 25% of off on drive+settle."""
    record = _gate_record(scenario)
    assert record["sampled_ratio"] <= SAMPLED_GATE, (
        f"{scenario} {record['population']}: sampled@{SAMPLE_RATE} "
        f"{record['sampled_seconds'] * 1000:.1f}ms vs off "
        f"{record['off_seconds'] * 1000:.1f}ms = "
        f"{record['sampled_ratio']:.3f}x > {SAMPLED_GATE}x"
    )
