"""The streaming trace pipeline and the tiered obs runtime.

PR 8 turned observability from a boolean into four tiers and replaced
the unbounded ``Tracer.spans`` list with an optional streaming sink.
These tests pin the new machinery itself (how the tiers meet the drive
pipeline is pinned in ``test_drive.py``):

* ``StreamingWriter`` -- segmented JSONL with bounded peak memory and
  an optional last-N ring;
* ``SpanSampler`` -- seeded per-kind decision streams;
* ``obs.capture(mode=...)`` -- mode resolution, nesting, restoration;
* the ``repro profile`` verb end to end, in process.
"""

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.net.sim import Simulator
from repro.obs import export as obs_export
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.scenario import run_scenario


# ------------------------------------------------------- StreamingWriter


def _emit_spans(tracer, count):
    for index in range(count):
        with tracer.span(f"work-{index}", kind="test", sim_time=float(index)):
            pass


def test_streaming_writer_bounds_span_memory(tmp_path):
    """Segments spill to disk; the tracer holds nothing; peak is bounded."""
    writer = obs_export.StreamingWriter(
        str(tmp_path), segment_spans=20, ring=5
    )
    tracer = Tracer(enabled=True, sink=writer)
    _emit_spans(tracer, 53)
    manifest = writer.close()
    assert tracer.spans == []
    assert writer.spans_written == 53
    assert writer.peak_buffered <= 20
    assert manifest["spans"] == 53
    assert len(manifest["segments"]) == 3  # 20 + 20 + 13
    lines = []
    for path in manifest["segments"]:
        with open(path, encoding="utf-8") as handle:
            lines.extend(json.loads(line) for line in handle)
    assert len(lines) == 53
    assert [record["name"] for record in lines[:3]] == [
        "work-0",
        "work-1",
        "work-2",
    ]
    tail = writer.tail()
    assert [span.name for span in tail] == [
        f"work-{index}" for index in range(48, 53)
    ]


def test_streaming_writer_metrics_segment(tmp_path):
    writer = obs_export.StreamingWriter(str(tmp_path), segment_spans=10)
    tracer = Tracer(enabled=True, sink=writer)
    _emit_spans(tracer, 3)
    registry = MetricsRegistry()
    registry.counter("sim.events").inc(5)
    manifest = writer.close(registry)
    metrics_paths = [p for p in manifest["segments"] if "-metrics" in p]
    assert len(metrics_paths) == 1
    with open(metrics_paths[0], encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    assert rows == [{"type": "counter", "name": "sim.events", "value": 5}]


def test_streaming_writer_rejects_emit_after_close(tmp_path):
    writer = obs_export.StreamingWriter(str(tmp_path))
    writer.close()
    tracer = Tracer(enabled=True, sink=writer)
    with pytest.raises(RuntimeError):
        with tracer.span("late", kind="test", sim_time=0.0):
            pass


def test_capture_with_sink_streams_spans(tmp_path):
    """``capture(sink=...)`` wires the writer into the capture tracer."""
    writer = obs_export.StreamingWriter(str(tmp_path), segment_spans=4)
    with obs.capture(mode="full", sink=writer) as (tracer, registry):
        run_scenario("mixnet")
    manifest = writer.close(registry)
    assert tracer.spans == []
    assert manifest["spans"] > 0
    assert writer.peak_buffered <= 4


# ----------------------------------------------------------- SpanSampler


def test_sampler_streams_are_deterministic_per_kind():
    first = obs.SpanSampler(rate=0.5, seed=3)
    second = obs.SpanSampler(rate=0.5, seed=3)
    decisions = [first.decide("deliver") for _ in range(64)]
    assert decisions == [second.decide("deliver") for _ in range(64)]
    assert 0 < sum(decisions) < 64
    # A different kind draws from an independent stream.
    third = obs.SpanSampler(rate=0.5, seed=3)
    assert decisions != [third.decide("transact") for _ in range(64)]


def test_sampler_edge_rates_and_per_kind_overrides():
    always = obs.SpanSampler(rate=1.0, seed=0)
    never = obs.SpanSampler(rate=0.0, seed=0)
    assert all(always.decide("deliver") for _ in range(8))
    assert not any(never.decide("deliver") for _ in range(8))
    mixed = obs.SpanSampler(
        rate=0.0, seed=0, rates={"experiment": 1.0}
    )
    assert mixed.decide("experiment")
    assert not mixed.decide("deliver")
    assert mixed.decisions == 2 and mixed.sampled == 1


def test_sampler_fresh_rewinds_the_streams():
    sampler = obs.SpanSampler(rate=0.3, seed=11, rates={"transact": 0.9})
    run_one = [sampler.decide("deliver") for _ in range(32)]
    clone = sampler.fresh()
    assert clone.seed == sampler.seed
    assert clone.rates == sampler.rates
    assert clone.decisions == 0
    assert run_one == [clone.decide("deliver") for _ in range(32)]


def test_sampler_rejects_out_of_range_rates():
    with pytest.raises(ValueError):
        obs.SpanSampler(rate=1.5)
    with pytest.raises(ValueError):
        obs.SpanSampler(rate=0.5, rates={"deliver": -0.1})


# ------------------------------------------------------ modes & nesting


def test_capture_resolves_and_restores_modes():
    assert obs_runtime.MODE == "off"
    with obs.capture(mode="counters"):
        assert obs_runtime.MODE == "counters"
        assert obs_runtime.COUNTERS and not obs_runtime.TRACING
        assert not obs_runtime.ENABLED
    assert obs_runtime.MODE == "off"
    # The no-argument default stays the pre-tier behaviour: full.
    with obs.capture():
        assert obs_runtime.MODE == "full"
        assert obs_runtime.ENABLED and obs_runtime.TRACING
    assert obs_runtime.MODE == "off"


def test_capture_rejects_unknown_mode():
    with pytest.raises(ValueError):
        with obs.capture(mode="verbose"):
            pass


def _simulate(events):
    simulator = Simulator()
    for _ in range(events):
        simulator.schedule(0.0, lambda: None)
    simulator.run_until_idle()


def test_nested_capture_settles_enclosing_batch():
    """A nested capture neither loses nor takes the outer capture's counts."""
    with obs.capture(mode="counters") as (_t, outer_registry):
        _simulate(3)
        with obs.capture(mode="counters") as (_t2, inner_registry):
            _simulate(2)
        assert inner_registry.counter_value("sim.events") == 2
        assert outer_registry.counter_value("sim.events") == 3
        _simulate(1)
    assert outer_registry.counter_value("sim.events") == 4


def test_sampled_mode_installs_and_clears_sampler():
    sampler = obs.SpanSampler(rate=0.2, seed=1)
    with obs.capture(mode="sampled", sampler=sampler):
        assert obs_runtime.SAMPLER is sampler
        assert obs_runtime.TRACING and not obs_runtime.ENABLED
    assert obs_runtime.SAMPLER is None


def test_runtime_sample_is_open_outside_sampled_mode():
    assert obs_runtime.sample("experiment")
    sampler = obs.SpanSampler(rate=0.0, seed=0)
    with obs.capture(mode="sampled", sampler=sampler):
        assert not obs_runtime.sample("experiment")


# -------------------------------------------------------- `repro profile`


def _run_profile_cli(args):
    out = io.StringIO()
    code = main(["profile", *args], out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


def test_profile_cli_counters_smoke():
    text = _run_profile_cli(["mixnet", "--obs-mode", "counters"])
    assert "obs-mode=counters" in text
    for phase in ("build", "drive", "settle", "analyze", "total"):
        assert phase in text


def test_profile_cli_json_deterministic_digest(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        _run_profile_cli(
            [
                "mixnet",
                "--obs-mode",
                "sampled",
                "--obs-sample",
                "0.4",
                "--json",
                "--out",
                str(path),
            ]
        )
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    assert a["trace_digest"] == b["trace_digest"]
    assert a["spans"] > 0
    assert a["sampler"]["rate"] == 0.4
    assert a["phase_ms"].keys() == {"build", "drive", "settle", "analyze"}


def test_profile_cli_trace_out_segments(tmp_path):
    trace_dir = tmp_path / "segments"
    out = _run_profile_cli(
        [
            "mixnet",
            "--obs-mode",
            "full",
            "--trace-out",
            str(trace_dir),
        ]
    )
    assert "segments under" in out
    segment_files = sorted(trace_dir.glob("spans-*.jsonl"))
    assert segment_files
    spans = [
        json.loads(line)
        for path in segment_files
        if "-metrics" not in path.name
        for line in path.read_text().splitlines()
    ]
    assert spans and all(record["type"] == "span" for record in spans)


def test_profile_cli_unknown_scenario():
    out = io.StringIO()
    assert main(["profile", "no-such-demo"], out=out) == 2
    assert "unknown scenario" in out.getvalue()
