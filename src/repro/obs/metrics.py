"""Run metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a namespace of named instruments,
get-or-created on first touch so instrumentation sites never need
registration ceremony::

    get_registry().counter("net.messages").inc()
    get_registry().histogram("net.packet_bytes", SIZE_BUCKETS).observe(512)

Histograms are fixed-bucket (cumulative counts per upper bound, plus
an overflow bucket) -- enough for packet-size and hop-latency
distributions without holding every sample.

The ``counters`` and ``sampled`` observability tiers do not touch the
registry from the hot loop at all: deliveries and ledger batches fold
into the process-wide slotted :class:`MetricsBatch` accumulator
(:data:`BATCH`), which :func:`flush_batch` merges into the registry
once per capture.  The merge reproduces exactly the instruments a
``full``-mode run would have created -- same names, same counts, same
histogram buckets, byte-equal snapshots -- because the batch observes
values in the same delivery order and folds each total exactly once.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsBatch",
    "MetricsRegistry",
    "SIZE_BUCKETS",
    "LATENCY_BUCKETS",
    "BATCH",
    "flush_batch",
    "reset_batch",
    "get_registry",
    "set_registry",
]

#: Default byte-size buckets (powers of two around typical payloads).
SIZE_BUCKETS: Tuple[float, ...] = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Default simulated-latency buckets, in seconds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, clock reading)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Fixed upper-bound buckets plus an overflow bucket.

    ``counts[i]`` holds samples ``<= buckets[i]`` (non-cumulative);
    ``counts[-1]`` holds everything beyond the last bound.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(sorted(buckets))
        if len(set(ordered)) != len(ordered):
            raise ValueError("histogram bucket bounds must be distinct")
        self.name = name
        self.buckets = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "name": self.name,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments, get-or-created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = SIZE_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, buckets)
        return histogram

    def counter_value(self, name: str, default: int = 0) -> int:
        """Read a counter without creating it."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every instrument as a plain dict, counters first, by name."""
        rows: List[Dict[str, Any]] = []
        for group in (self._counters, self._gauges, self._histograms):
            for name in sorted(group):
                rows.append(group[name].to_dict())
        return rows

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


class MetricsBatch:
    """Slotted per-batch accumulators for the batched obs tiers.

    One process-wide instance (:data:`BATCH`) absorbs the per-delivery
    and per-ledger-batch accounting that ``full`` mode would write to
    the registry per value: plain attribute increments and two local
    histograms, no registry lookups, no name formatting.  The whole
    batch folds into a :class:`MetricsRegistry` in one
    :meth:`flush` -- instruments are only created for non-zero
    accumulators, so a flushed ``counters``-mode registry snapshot is
    byte-equal to the ``full``-mode one for the same run.
    """

    #: Raw histogram values buffered before a drain -- deep enough to
    #: amortize bucketing, small enough to bound batch memory.
    DRAIN_THRESHOLD = 4096

    __slots__ = (
        "events",
        "messages",
        "bytes",
        "dropped",
        "packet_bytes",
        "hop_latency",
        "observations",
        "segments_sealed",
        "segments_spilled",
        "rows_spilled",
        "_sizes",
        "_latencies",
    )

    def __init__(self) -> None:
        self.events = 0
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.packet_bytes = Histogram("net.packet_bytes", SIZE_BUCKETS)
        self.hop_latency = Histogram("net.hop_latency", LATENCY_BUCKETS)
        self.observations: Dict[str, int] = {}
        self.segments_sealed = 0
        self.segments_spilled = 0
        self.rows_spilled = 0
        self._sizes: List[float] = []
        self._latencies: List[float] = []

    def note_delivery(self, size: int, latency: Optional[float]) -> None:
        """Account one delivered packet (``latency`` may be unknown).

        Histogram values are appended raw and bucketed later (at the
        capture-exit flush, or every :data:`DRAIN_THRESHOLD` values) so
        the per-delivery cost is two int adds and a list append.  The
        drain observes values in arrival order, which keeps the folded
        float totals bit-equal to ``full`` mode's per-value sums.
        """
        self.messages += 1
        self.bytes += size
        sizes = self._sizes
        sizes.append(size)
        if latency is not None:
            self._latencies.append(latency)
        if len(sizes) >= self.DRAIN_THRESHOLD:
            self._drain()

    def note_observations(self, channel: str, count: int) -> None:
        """Account one ledger batch of ``count`` observations."""
        observations = self.observations
        observations[channel] = observations.get(channel, 0) + count

    def note_segment(
        self, *, sealed: int = 0, spilled: int = 0, rows_spilled: int = 0
    ) -> None:
        """Account ledger segment lifecycle events (seal / spill)."""
        self.segments_sealed += sealed
        self.segments_spilled += spilled
        self.rows_spilled += rows_spilled

    def _drain(self) -> None:
        """Bucket the buffered raw values into the local histograms."""
        if self._sizes:
            observe = self.packet_bytes.observe
            for value in self._sizes:
                observe(value)
            self._sizes.clear()
        if self._latencies:
            observe = self.hop_latency.observe
            for value in self._latencies:
                observe(value)
            self._latencies.clear()

    def clear(self) -> None:
        self.events = 0
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.packet_bytes = Histogram("net.packet_bytes", SIZE_BUCKETS)
        self.hop_latency = Histogram("net.hop_latency", LATENCY_BUCKETS)
        self.observations.clear()
        self.segments_sealed = 0
        self.segments_spilled = 0
        self.rows_spilled = 0
        self._sizes.clear()
        self._latencies.clear()

    @staticmethod
    def _fold_histogram(registry: "MetricsRegistry", local: Histogram) -> None:
        if not local.count:
            return
        histogram = registry.histogram(local.name, local.buckets)
        counts = histogram.counts
        for index, count in enumerate(local.counts):
            if count:
                counts[index] += count
        histogram.count += local.count
        histogram.total += local.total
        if histogram.min is None or local.min < histogram.min:
            histogram.min = local.min
        if histogram.max is None or local.max > histogram.max:
            histogram.max = local.max

    def flush(self, registry: "MetricsRegistry") -> None:
        """Merge every non-zero accumulator into ``registry``; reset."""
        self._drain()
        if self.events:
            registry.counter("sim.events").inc(self.events)
        if self.messages:
            # ``full`` mode creates ``net.bytes`` per delivery even for
            # zero-size packets, so its existence follows messages, not
            # the byte total.
            registry.counter("net.messages").inc(self.messages)
            registry.counter("net.bytes").inc(self.bytes)
        self._fold_histogram(registry, self.packet_bytes)
        self._fold_histogram(registry, self.hop_latency)
        if self.dropped:
            registry.counter("net.packets_dropped").inc(self.dropped)
        if self.observations:
            total = sum(self.observations.values())
            registry.counter("ledger.observations").inc(total)
            for channel in sorted(self.observations):
                registry.counter(f"ledger.observations.{channel}").inc(
                    self.observations[channel]
                )
        if self.segments_sealed:
            registry.counter("ledger.segments.sealed").inc(self.segments_sealed)
        if self.segments_spilled:
            registry.counter("ledger.segments.spilled").inc(self.segments_spilled)
        if self.rows_spilled:
            registry.counter("ledger.rows.spilled").inc(self.rows_spilled)
        self.clear()


#: The process-wide batch accumulator.  A singleton mutated in place --
#: hot modules bind it once at import time -- so never rebind it.
BATCH = MetricsBatch()


def flush_batch(registry: Optional[MetricsRegistry] = None) -> None:
    """Fold :data:`BATCH` into ``registry`` (default: the process one)."""
    BATCH.flush(registry if registry is not None else get_registry())


def reset_batch() -> None:
    """Drop any pending batched accounting (test isolation)."""
    BATCH.clear()


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
