"""``repro.obs`` -- observability for simulator and harness runs.

Five pieces, all off by default:

* :mod:`repro.obs.tracing` -- span trees over both clocks (simulated
  and wall time), fed by instrumentation in ``repro.net`` and the
  harness;
* :mod:`repro.obs.metrics` -- counters, gauges, and fixed-bucket
  histograms (events processed, messages, bytes, packet sizes, hop
  latencies, ledger observations);
* :mod:`repro.obs.export` -- JSONL and text-tree exporters;
* :mod:`repro.obs.provenance` -- the causal event graph joining
  ledger observations, wire packets, and spans, with the
  ``why`` / ``knowledge_timeline`` / ``breach_chain`` queries;
* :mod:`repro.obs.analyze` -- per-span-name statistics and
  critical-path extraction over a captured trace.

``provenance`` and ``analyze`` are deliberately *not* imported here:
they depend on :mod:`repro.core`, which imports this package at
startup -- import them directly (``from repro.obs import provenance``)
after the core is loaded.

The usual entry point is :func:`capture`::

    with obs.capture() as (tracer, registry):
        run = run_mixnet()
    print(export.render_span_tree(tracer.spans))

which installs a fresh tracer/registry as the process defaults, turns
the requested observability *mode* on, and restores everything on
exit.  ``mode`` defaults to ``full`` (the pre-tier behaviour,
byte-identical), unless ``REPRO_OBS_MODE`` pins another tier; see
:mod:`repro.obs.runtime` for the ``off`` / ``counters`` / ``sampled``
/ ``full`` ladder.  While the gate is off, every instrumented hot path
short-circuits on one module-attribute check -- a run with
observability disabled performs like one built without it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

from . import export, runtime
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
    get_registry,
    set_registry,
)
from .runtime import SpanSampler
from .tracing import NOOP_SPAN, Span, Tracer, get_tracer, set_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SIZE_BUCKETS",
    "Span",
    "SpanSampler",
    "Tracer",
    "capture",
    "disable",
    "enable",
    "export",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "runtime",
    "set_registry",
    "set_tracer",
]

enable = runtime.enable
disable = runtime.disable
is_enabled = runtime.is_enabled


@contextmanager
def capture(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    mode: Optional[str] = None,
    sampler: Optional[SpanSampler] = None,
    sink: Any = None,
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Enable observability into a (fresh by default) tracer/registry.

    Installs both as the process defaults and turns the requested
    ``mode`` on (explicit arg wins over ``REPRO_OBS_MODE``, which wins
    over the ``full`` default); on exit the previous defaults and mode
    come back, so captures nest and never leak into later runs.  Hot
    paths count into whichever registry is the default while they run,
    and every registry read is complete, inside the ``with`` block or
    after it.

    ``sampler`` customizes the ``sampled`` tier (rate/seed/per-kind
    rates); ``sink`` streams finished spans instead of accumulating
    them on ``tracer.spans`` (see
    :class:`repro.obs.export.StreamingWriter`) and is only consulted
    when no explicit ``tracer`` is passed.
    """
    resolved = runtime.resolve_mode(mode)
    capture_tracer = tracer if tracer is not None else Tracer(sink=sink)
    capture_registry = registry if registry is not None else MetricsRegistry()
    previous_tracer = set_tracer(capture_tracer)
    previous_registry = set_registry(capture_registry)
    previous_state = runtime.state()
    runtime.set_mode(resolved, sampler=sampler)
    try:
        yield capture_tracer, capture_registry
    finally:
        runtime.restore(previous_state)
        set_tracer(previous_tracer)
        set_registry(previous_registry)
