"""Run metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a namespace of named instruments,
get-or-created on first touch so instrumentation sites never need
registration ceremony::

    get_registry().counter("net.messages").inc()
    get_registry().histogram("net.packet_bytes", SIZE_BUCKETS).observe(512)

Histograms are fixed-bucket (cumulative counts per upper bound, plus
an overflow bucket) -- enough for packet-size and hop-latency
distributions without holding every sample.

The hot loops (simulator events, deliveries, drops, ledger batches,
segment seals and spills) do not look instruments up by name: in every
tier that records metrics they bump plain accumulators on the current
registry (``registry.events += 1``, :meth:`MetricsRegistry.note_delivery`).
Every read folds those pending counts into the named instruments first,
observing histogram values in arrival order, so a read is complete at
any time and its float sums are bit-equal to observing each value as
it happens.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIZE_BUCKETS",
    "LATENCY_BUCKETS",
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
    """Named instruments, get-or-created on first use.

    The public attributes below are the hot-loop accumulators: plain
    counts that instrumented hot paths bump directly, folded into the
    instruments they name on every read.
    """

    #: Raw histogram values buffered before they are bucketed -- deep
    #: enough to amortize bucketing, small enough to bound memory.
    DRAIN_THRESHOLD = 4096

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._clear_pending()

    def _clear_pending(self) -> None:
        #: ``sim.events``
        self.events = 0
        #: ``net.messages`` / ``net.bytes``
        self.messages = 0
        self.bytes = 0
        #: ``net.packets_dropped``
        self.dropped = 0
        #: ``ledger.observations[.<channel>]``, by channel
        self.observations: Dict[str, int] = {}
        #: ``ledger.segments.sealed`` / ``.spilled``, ``ledger.rows.spilled``
        self.segments_sealed = 0
        self.segments_spilled = 0
        self.rows_spilled = 0
        #: Raw ``net.packet_bytes`` / ``net.hop_latency`` values.
        self._sizes: List[float] = []
        self._latencies: List[float] = []

    def note_delivery(self, size: int, latency: float) -> None:
        """Account one delivered packet: two adds and two appends."""
        self.messages += 1
        self.bytes += size
        sizes = self._sizes
        sizes.append(size)
        self._latencies.append(latency)
        if len(sizes) >= self.DRAIN_THRESHOLD:
            self._drain()

    def _drain(self) -> None:
        """Bucket the buffered raw values, in arrival order."""
        sizes, latencies = self._sizes, self._latencies
        if sizes:
            observe = self._histogram("net.packet_bytes", SIZE_BUCKETS).observe
            for value in sizes:
                observe(value)
            observe = self._histogram("net.hop_latency", LATENCY_BUCKETS).observe
            for value in latencies:
                observe(value)
            sizes.clear()
            latencies.clear()

    def _fold(self) -> None:
        """Move every pending accumulator into its named instrument.

        An instrument appears only once something was counted for it,
        exactly as if each value had been written as it happened:
        ``net.bytes`` follows the message count (a zero-size packet
        still creates it), and a ledger batch of zero rows still
        creates its channel's counter.
        """
        self._drain()
        counter = self._counter
        if self.events:
            counter("sim.events").value += self.events
            self.events = 0
        if self.messages:
            counter("net.messages").value += self.messages
            counter("net.bytes").value += self.bytes
            self.messages = self.bytes = 0
        if self.dropped:
            counter("net.packets_dropped").value += self.dropped
            self.dropped = 0
        if self.observations:
            total = counter("ledger.observations")
            for channel, count in self.observations.items():
                total.value += count
                counter(f"ledger.observations.{channel}").value += count
            self.observations.clear()
        if self.segments_sealed:
            counter("ledger.segments.sealed").value += self.segments_sealed
            self.segments_sealed = 0
        if self.segments_spilled:
            # A spill always drops rows, so the two counters appear together.
            counter("ledger.segments.spilled").value += self.segments_spilled
            counter("ledger.rows.spilled").value += self.rows_spilled
            self.segments_spilled = self.rows_spilled = 0

    def _counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def _histogram(self, name: str, buckets: Sequence[float]) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, buckets)
        return histogram

    def counter(self, name: str) -> Counter:
        self._fold()
        return self._counter(name)

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = SIZE_BUCKETS
    ) -> Histogram:
        self._fold()
        return self._histogram(name, buckets)

    def counter_value(self, name: str, default: int = 0) -> int:
        """Read a counter without creating it."""
        self._fold()
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def counters(self) -> Dict[str, int]:
        """Every counter's value, by name, in name order."""
        self._fold()
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every instrument as a plain dict, counters first, by name."""
        self._fold()
        rows: List[Dict[str, Any]] = []
        for group in (self._counters, self._gauges, self._histograms):
            for name in sorted(group):
                rows.append(group[name].to_dict())
        return rows

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._clear_pending()

    def __len__(self) -> int:
        self._fold()
        return len(self._counters) + len(self._gauges) + len(self._histograms)


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
