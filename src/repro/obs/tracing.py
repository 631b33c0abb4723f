"""Span-based tracing for protocol runs.

A :class:`Span` is one timed region of a run -- a ``transact`` call, a
packet delivery, a harness experiment -- carrying both clocks that
matter here: *simulated* time (the event queue's ``now``) and *wall*
time (what the host CPU actually spent).  Spans form a tree through
parent links; the tracer keeps a stack of active spans so nesting
falls out of ``with`` blocks, and callers that schedule work for later
(a packet in flight) can capture :meth:`Tracer.current_span` and pass
it back as an explicit ``parent`` when the work runs.

The default tracer follows the global :mod:`repro.obs.runtime` gate:
while observability is disabled, :meth:`Tracer.span` hands back a
shared no-op span and records nothing, so instrumented code pays one
attribute check per call site.
"""

from __future__ import annotations

import itertools
import time as _time
from typing import Any, Dict, List, Optional

from . import runtime

__all__ = ["Span", "Tracer", "NOOP_SPAN", "get_tracer", "set_tracer"]

_AUTO = object()  # sentinel: derive the parent from the active-span stack


class Span:
    """One timed, attributed region of a run.

    ``sim_start`` / ``sim_end`` are simulated-clock timestamps supplied
    by the caller (the tracer has no simulator of its own); wall times
    are taken from ``time.perf_counter`` on enter/exit.  ``kind`` tags
    the instrumentation layer ("net", "harness", ...) so tooling can
    slice the tree without string-matching names.
    """

    __slots__ = (
        "name",
        "kind",
        "span_id",
        "parent_id",
        "sim_start",
        "sim_end",
        "wall_start",
        "wall_end",
        "attributes",
        "_tracer",
        "_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        *,
        kind: str = "",
        sim_time: Optional[float] = None,
        parent: Any = _AUTO,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._tracer = tracer
        self._parent = parent
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id: Optional[int] = None
        self.sim_start = sim_time
        self.sim_end: Optional[float] = None
        self.wall_start: Optional[float] = None
        self.wall_end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}

    # -- recording ------------------------------------------------------

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; chainable."""
        self.attributes[key] = value
        return self

    def end_sim(self, sim_time: float) -> None:
        """Record the simulated-clock end of this span."""
        self.sim_end = sim_time

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.wall_start is None or self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Span":
        parent = self._parent
        if parent is _AUTO:
            parent = self._tracer.current_span()
        if isinstance(parent, Span):
            self.parent_id = parent.span_id
        self.wall_start = _time.perf_counter()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_end = _time.perf_counter()
        if self.sim_end is None:
            self.sim_end = self.sim_start
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: mis-nested exit
            stack.remove(self)
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id},"
            f" sim=[{self.sim_start}, {self.sim_end}])"
        )


class _NoopSpan:
    """The disabled path: every method is a cheap no-op."""

    __slots__ = ()

    name = ""
    kind = ""
    span_id = 0
    parent_id = None
    sim_start = None
    sim_end = None
    wall_start = None
    wall_end = None
    wall_seconds = None
    sim_duration = None
    attributes: Dict[str, Any] = {}

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def end_sim(self, sim_time: float) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "NOOP_SPAN"


#: The shared no-op span returned whenever tracing is off.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans and keeps the finished ones, in completion order.

    ``enabled=None`` (the default) defers to the process-wide
    :mod:`repro.obs.runtime` gate; ``True`` / ``False`` force it, which
    standalone tests use.

    ``sink`` replaces the unbounded in-memory :attr:`spans` list with a
    streaming consumer (anything with an ``emit(span)`` method, e.g.
    :class:`repro.obs.export.StreamingWriter`): finished spans are
    handed to the sink instead of accumulating, so peak span memory is
    bounded by the sink's segment/ring sizes, not the run length.
    """

    def __init__(self, enabled: Optional[bool] = None, sink: Any = None) -> None:
        self._enabled = enabled
        self._sink = sink
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    @property
    def enabled(self) -> bool:
        if self._enabled is None:
            return runtime.TRACING
        return self._enabled

    @property
    def sink(self) -> Any:
        return self._sink

    def _finish(self, span: Span) -> None:
        """One span completed: stream it, or keep it in memory."""
        if self._sink is None:
            self.spans.append(span)
        else:
            self._sink.emit(span)

    def span(
        self,
        name: str,
        *,
        kind: str = "",
        sim_time: Optional[float] = None,
        parent: Any = _AUTO,
        **attributes: Any,
    ):
        """A new span (use as a context manager), or the no-op when off.

        ``parent`` defaults to whatever span is active when the span is
        *entered*; pass an explicit :class:`Span` (or ``None`` for a
        root) to link work that was scheduled earlier -- e.g. a packet
        delivery parented to the span active when it was sent.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(
            self,
            name,
            next(self._ids),
            kind=kind,
            sim_time=sim_time,
            parent=parent,
            attributes=attributes,
        )

    def current_span(self) -> Optional[Span]:
        """The innermost active span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._ids = itertools.count(1)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self.spans)


_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous
